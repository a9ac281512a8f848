"""Command-line front end: scene queries, certified constructions,
paths, section rendering, and the seeded self-test.

Exit codes: 0 on success, 2 when a query hits a degenerate configuration
(the answer would turn on rounding), 1 on any error (bad file, bad
arguments or flags, failed construction).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from functools import partial

import numpy as np

from . import scene as scene_io
from .charges import ComposedUnlocalized, compose, exchange_statistics
from .cones import (Hypercone, cone_leq, disjoint, hyperball_in_cone,
                    in_causal_completion, point_margin)
from .constructions import (avoid_ball_inside, common_complement_cone,
                            contracting_boosts, enclose_shadow, escape_ball,
                            funnel_from_exhaustion, funnel_in, path_connect,
                            path_connect_in_complement,
                            robust_enclosure_lorentz, shrink_across_shells,
                            shrink_for_connectivity, translate_enclosure,
                            wrap_ball_in_complement)
from .errors import DegenerateGeometry, HyperconesError, SceneError
from .minkowski import FourVector, LorentzTransform
from .render import render_to_file
from .selftest import run_selftest

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_DEGENERATE = 2

_AXIS_VECTORS = dict(zip("xyz", np.eye(3)))
_MAX_RAPIDITY = math.acosh(sys.float_info.max)  # the last finite cosh


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(c) + 0.0:.6g}" for c in v) + ")"


def _resolve(kind: str, scene: scene_io.Scene, name: str):
    """The scene's cone, ball or morphism of that name."""
    table = getattr(scene, kind + "s")
    if name not in table:
        raise SceneError(f"unknown {kind} {name!r}")
    return table[name]


_resolve_cone = partial(_resolve, "cone")
_resolve_ball = partial(_resolve, "ball")
_resolve_morphism = partial(_resolve, "morphism")


def _parse_four_vector(text: str) -> FourVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise SceneError("four-vector flag needs 4 comma-separated numbers")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise SceneError(f"bad four-vector {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise SceneError(f"four-vector {text!r} has a non-finite component")
    return FourVector.from_array(np.array(vals))


def _parse_generator(text: str) -> LorentzTransform:
    """Generator spec: 'boost:<axis>:<rapidity>' or 'rot:<axis>:<angle>'
    where <axis> is x, y, z, or three comma-separated numbers."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SceneError(f"bad generator {text!r}; use kind:axis:amount")
    kind, axis_spec, amount_text = parts
    if axis_spec in _AXIS_VECTORS:
        axis = _AXIS_VECTORS[axis_spec]
    else:
        try:
            axis = np.array([float(c) for c in axis_spec.split(",")])
        except ValueError:
            raise SceneError(f"bad generator axis {axis_spec!r}") from None
        if axis.shape != (3,):
            raise SceneError("generator axis needs three components")
    try:
        amount = float(amount_text)
    except ValueError:
        raise SceneError(f"bad generator amount {amount_text!r}") from None
    if not (math.isfinite(amount) and np.all(np.isfinite(axis))):
        raise SceneError(f"generator {text!r} has a non-finite number")
    if kind == "boost":
        if abs(amount) > _MAX_RAPIDITY:
            raise SceneError(f"--generator {text!r}: boost rapidity "
                             f"{amount:g} overflows cosh")
        return LorentzTransform.boost(axis, amount)
    if kind == "rot":
        return LorentzTransform.rotation(axis, amount)
    raise SceneError(f"generator kind must be boost or rot, got {kind!r}")


# ------------------------------------------------------------------ check


def _query_check(scene: scene_io.Scene, query: str) -> None:
    words = query.split()
    if not words:
        raise SceneError("empty query")
    op, args = words[0], words[1:]

    if op == "disjoint" and len(args) == 2:
        a, b = (_resolve_cone(scene, n) for n in args)
        res = disjoint(a, b)
        if res.disjoint:
            w, c = res.plane
            print(f"true, margin={res.margin:.6g}, "
                  f"plane n={_fmt_vec(w)} offset={c:.6g}")
        else:
            print(f"false, margin={res.margin:.6g}, "
                  f"common point={_fmt_vec(res.common_point)}")
        return

    if op == "leq" and len(args) == 2:
        a, b = (_resolve_cone(scene, n) for n in args)
        res = cone_leq(a, b)
        print(f"{'true' if res.holds else 'false'}, "
              f"cap_margin={res.cap_margin:.6g}, "
              f"apex_margin={res.apex_margin:.6g}")
        return

    if op == "contains" and len(args) == 2:
        cone = _resolve_cone(scene, args[0])
        target = args[1]
        if target in scene.balls:
            res = hyperball_in_cone(scene.balls[target], cone)
            print(f"{'true' if res.holds else 'false'}, "
                  f"margin={res.margin:.6g}")
            return
        if target in scene.events:
            ev = scene.events[target]
            if not float(np.linalg.norm(ev.xs)) < ev.x0:
                raise SceneError(f"event {target!r} has no ball image: "
                                 "it needs |x_s| < x0")
            margin = scene.tau * point_margin(cone, ev.xs / ev.x0)
            print(f"{'true' if margin > 0 else 'false'}, "
                  f"margin={margin:.6g}")
            return
        raise SceneError(f"unknown ball or event {target!r}")

    if op == "in-causal-completion" and len(args) == 2:
        if args[0] not in scene.events:
            raise SceneError(f"unknown event {args[0]!r}")
        cone = _resolve_cone(scene, args[1])
        inside = in_causal_completion(scene.events[args[0]],
                                      Hypercone(scene.shell, cone))
        print("true" if inside else "false")
        return

    if op == "compose" and len(args) == 2:
        s, t = (_resolve_morphism(scene, n) for n in args)
        result = compose(s, t)
        charge = _fmt_vec(result.charge.coords)
        if isinstance(result, ComposedUnlocalized):
            print(f"charge={charge}, unlocalized")
        else:
            loc = result.localization
            print(f"charge={charge}, localized "
                  f"apex={_fmt_vec(loc.apex.v)} "
                  f"axis={_fmt_vec(loc.base.axis.v)} "
                  f"half_angle_deg={math.degrees(loc.base.half_angle):.6g}")
        return

    if op == "statistics" and len(args) == 2:
        if scene.statistics is None:
            raise SceneError("scene has no statistics_signs")
        s, t = (_resolve_morphism(scene, n) for n in args)
        sign = exchange_statistics(s, t, scene.statistics)
        print(f"{sign:+d}")
        return

    raise SceneError(
        f"unrecognized query {query!r}; expected one of: disjoint A B, "
        "leq A B, contains A target, in-causal-completion x A, "
        "compose s t, statistics s t")


def cmd_check(ns) -> int:
    scene = scene_io.load(ns.scene)
    _query_check(scene, ns.query)
    return _EXIT_OK


# -------------------------------------------------------------- construct


def _report(label: str, detail: str = "") -> None:
    suffix = f" {detail}" if detail else ""
    print(f"certificate: {label} pass{suffix}")


def _append_cones(scene: scene_io.Scene, cones, prefix: str) -> list[str]:
    """Add the cones under fresh names prefix0, prefix1, ..., named in one
    pass over the scene's names."""
    names = scene._fresh_names(prefix, len(cones))
    for name, cone in zip(names, cones):
        scene.add_cone(name, cone)
    return names


def _write_out(scene: scene_io.Scene, ns) -> int:
    if ns.out:
        scene_io.save(scene, ns.out)
        print(f"scene written: {ns.out}")
    return _EXIT_OK


# Each lemma's names, as its arity error lists them: the last word of an
# item is the kind (cone or ball) of object that name resolves to, and A2
# takes two or more cones.  Then the relations its one-cone witness C<k>
# is certified in, each to the lemma's name at that index.
_LEMMAS = {
    "A1": ("cone, probe ball", ()),
    "A2": (None, ()),
    "A3": ("ball, cone", (("leq", 1), ("clear", 0))),
    "A4": ("ball, cone", (("contains", 0), ("disjoint", 1))),
    "A5": ("cone, cone", ()),
    "A6": ("forbidden cone, cone, cone", ()),
    "A7": ("cone, cone", (("leq", 0),)),
    "A8": ("cone, cone", (("disjoint", 0), ("disjoint", 1))),
    "A9": ("cone", (("contains-shadow", 0),)),
    "A10": ("cone", (("shadow-inside", 0),)),
    "A11": ("cone", ()),
    "A12": ("cone", (("contains-orbit", 0),)),
    "A13": ("cone", (("contains-shifted-completion", 0),)),
}


def cmd_construct(ns) -> int:
    if ns.nmax < 0:
        raise SceneError(f"--nmax must be at least 0, got {ns.nmax}")
    if ns.depth < 1:
        raise SceneError(f"--depth must be at least 1, got {ns.depth}")
    scene = scene_io.load(ns.scene)
    lemma, names = ns.lemma.upper(), ns.names
    if lemma not in _LEMMAS:
        raise SceneError(f"unknown lemma id {ns.lemma!r}; expected A1..A13")
    what, relations = _LEMMAS[lemma]
    kinds = ([item.split()[-1] for item in what.split(", ")] if what
             else ["cone"] * len(names))
    if not what and len(names) < 2:
        raise SceneError("A2 needs at least two exhaustion cone names")
    if len(names) != len(kinds):
        raise SceneError(f"{lemma} needs {len(kinds)} name(s): {what}")
    objs = [_resolve(kind, scene, n) for kind, n in zip(kinds, names)]
    detail = ""

    if lemma == "A1":
        funnel = funnel_in(objs[0], ns.depth, objs[1])
        added = _append_cones(scene, funnel.cones, "F")
        for i in range(len(added) - 1):
            _report(f"leq({added[i + 1]},{added[i]})")
        _report(f"disjoint({added[-1]},{names[1]})")
        print(f"funnel: {len(added)} cones {', '.join(added)}")
    elif lemma == "A2":
        added = _append_cones(scene, funnel_from_exhaustion(objs).cones, "Op")
        for i, nm in enumerate(added):
            _report(f"disjoint({nm},{names[i]})")
        print(f"opposite funnel: {', '.join(added)}")
    elif lemma in ("A5", "A6"):
        connect = path_connect if lemma == "A5" else path_connect_in_complement
        path = connect(*objs)
        node_names = _append_cones(scene, path.nodes, "P")
        _report(f"path adjacency witnesses ({len(path.witnesses)})")
        print(f"path: {len(path.nodes)} nodes {', '.join(node_names)}")
    elif lemma == "A11":
        family = contracting_boosts(objs[0])
        print(f"contracting directions: {len(family.directions)}, "
              f"cap half-angle {math.degrees(family.half_angle):.4g} deg")
        for chi in (0.5, 1.0, 2.0):  # contracting_boosts certified these
            _report(f"leq(boosted(chi={chi:g}),{names[0]})")
        if ns.ball:
            ball = _resolve_ball(scene, ns.ball)
            n = escape_ball(objs[0], ball, family.directions[0], ns.nmax)
            _report(f"escape({names[0]},{ns.ball})", f"n={n}")
            print(f"escape count: {n}")
    elif lemma in ("A9", "A10"):
        op = enclose_shadow if lemma == "A9" else shrink_across_shells
        witness = op(objs[0], ns.sigma, ns.tau)
        detail = f"sigma={ns.sigma:g} tau={ns.tau:g}"
    elif lemma == "A12":
        if not ns.generator:
            raise SceneError("A12 needs at least one --generator")
        gens = [_parse_generator(g) for g in ns.generator]
        witness = robust_enclosure_lorentz(objs[0], gens)
        detail = f"generators={len(gens)}"
    elif lemma == "A13":
        if not ns.t:
            raise SceneError("A13 needs at least one --t translation")
        translations = [_parse_four_vector(t) for t in ns.t]
        witness = translate_enclosure(objs[0], scene.tau, translations)
        detail = f"translations={len(translations)}"
    else:
        witness = {"A3": avoid_ball_inside, "A4": wrap_ball_in_complement,
                   "A7": shrink_for_connectivity,
                   "A8": common_complement_cone}[lemma](*objs)

    if relations:
        name = _append_cones(scene, [witness], "C")[0]
        for relation, i in relations:
            _report(f"{relation}({name},{names[i]})", detail)
        print(f"witness cone: {name}")
    return _write_out(scene, ns)


# ------------------------------------------------------------------- path


def cmd_path(ns) -> int:
    scene = scene_io.load(ns.scene)
    a = _resolve_cone(scene, ns.start)
    b = _resolve_cone(scene, ns.goal)
    if ns.forbidden:
        forb = _resolve_cone(scene, ns.forbidden)
        path = path_connect_in_complement(forb, a, b)
    else:
        path = path_connect(a, b)
    node_names = _append_cones(scene, path.nodes, "P")
    print(f"path: {len(path.nodes)} nodes, {len(path.witnesses)} "
          f"witnesses: {', '.join(node_names)}")
    return _write_out(scene, ns)


# ----------------------------------------------------------------- render


def cmd_render(ns) -> int:
    scene = scene_io.load(ns.scene)
    render_to_file(scene, ns.plane, ns.out)
    print(f"drawing written: {ns.out}")
    return _EXIT_OK


# --------------------------------------------------------------- selftest


def cmd_selftest(ns) -> int:
    if ns.seed < 0:  # numpy's seed error does not name the flag
        raise SceneError(f"--seed must be at least 0, got {ns.seed}")
    if not ns.budget > 0.0:  # nan too
        raise SceneError(f"--budget must be positive, got {ns.budget:g}")
    if ns.budget > 1000.0:  # the trial counts scale by it, inf too
        raise SceneError(f"--budget must be at most 1000, got {ns.budget:g}")
    started = time.monotonic()
    report, ok = run_selftest(seed=ns.seed, budget=ns.budget)
    sys.stdout.write(report)
    print(f"elapsed: {time.monotonic() - started:.1f}s", file=sys.stderr)
    return _EXIT_OK if ok else _EXIT_ERROR


# ------------------------------------------------------------------ main


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, like every
    other bad input; code 2 stays reserved for degenerate geometry."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypercones",
        description="Cone geometry on the light-cone ball model: queries, "
                    "certified constructions, section drawings, self-test.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one predicate on a scene")
    p.add_argument("scene")
    p.add_argument("query", help="e.g. 'disjoint A B' or 'compose s t'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct",
                       help="run a certified construction A1..A13")
    p.add_argument("scene")
    p.add_argument("lemma", help="A1..A13")
    p.add_argument("names", nargs="*", help="object names for the lemma")
    p.add_argument("--depth", type=int, default=3, help="funnel depth (A1)")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="source shell (A9/A10)")
    p.add_argument("--tau", type=float, default=2.0,
                   help="target shell (A9/A10)")
    p.add_argument("--ball", help="ball to escape from (A11)")
    p.add_argument("--nmax", type=int, default=64,
                   help="boost budget for escape (A11)")
    p.add_argument("--generator", action="append", default=[],
                   help="Lorentz generator kind:axis:amount (A12)")
    p.add_argument("--t", action="append", default=[],
                   help="translation t0,t1,t2,t3 (A13)")
    p.add_argument("--out", help="write the extended scene here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("path", help="certified cone path between two cones")
    p.add_argument("scene")
    p.add_argument("start")
    p.add_argument("goal")
    p.add_argument("--forbidden", help="cone the path must stay clear of")
    p.add_argument("--out", help="write the extended scene here")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("render", help="draw a planar section as SVG")
    p.add_argument("scene")
    p.add_argument("--plane", default="z=0", help="section plane, e.g. z=0")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed of the property suite")
    p.add_argument("--budget", type=float, default=1.0,
                   help="scale factor of the property suite's trial counts")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except DegenerateGeometry as err:
        print(f"degenerate: {err}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except (HyperconesError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
