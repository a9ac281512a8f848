"""Seeded instances of the thirteen constructions A1-A13, and the checks
of their witnesses.

The instance distributions follow the library's acceptance suite, but
every instance is made valid by construction with the benchmark's own
geometry: where the suite filters candidates through library predicates,
the samplers here demand a separating plane from ``oracles.separated``.
Witnesses are checked with ``oracles`` only: exact cap-and-apex inclusion,
sampled disjointness, metric-ball clearances and completion membership.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

import oracles as O

# A9 (enclose_shadow) is left out: on about 4% of random instances its
# enclosure misses part of the shadow, or it raises ConstructionFailure,
# so a seeded round would fail or answer wrongly on some seeds only
LABELS = tuple(f"A{i}" for i in range(1, 14) if i != 9)
CHECK_POINTS = 300  # sampled points per sampled certificate
SLACK = 1e-9


def random_cone(rng, psi_min=0.12, psi_max=1.0, apex_r=0.6) -> tuple:
    while True:
        axis = O.unit(rng)
        psi = rng.uniform(psi_min, psi_max)
        apex = rng.uniform(0.0, apex_r) * O.unit(rng)
        if float(axis @ apex) < math.cos(psi) - 1e-6:
            return (apex, axis, psi)


def axis_cone(scale, axis, psi) -> tuple:
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    return (scale * axis, axis, psi)


def _normals(a, b) -> list[np.ndarray]:
    """Candidate separating normals, pointing from cone b toward cone a."""
    out = []
    for v in (a[0] - b[0], a[0] + a[1] - b[0] - b[1], a[1] - b[1], a[1],
              -b[1]):
        if np.linalg.norm(v) > 1e-9:
            out.append(v / np.linalg.norm(v))
    return out


def disjoint_pair(rng, psi_max, margin=1e-3) -> tuple:
    while True:
        a = random_cone(rng, psi_max=psi_max)
        b = random_cone(rng, psi_max=psi_max)
        if O.separated(a, b, _normals(a, b)) > margin:
            return a, b


def ball_off_cone(rng, cone, radius=0.25) -> tuple:
    """Ball (centre, shell-1 radius) behind a cone, with a separating
    plane between their hulls."""
    while True:
        center = (-(0.35 + 0.35 * rng.random()) * cone[1]
                  + 0.12 * rng.normal(size=3))
        if np.linalg.norm(center) > 0.85:
            continue
        w = center - 0.5 * (cone[0] + cone[1])
        w /= np.linalg.norm(w)
        if -O.ellipsoid_support(center, radius, -w) - O.hull_support(
                cone, w) > 1e-3:
            return center, radius


def sample(rng, label: str, u: float | None = None) -> tuple:
    """Raw arguments for one instance of a construction; u in [0, 1)
    places an A6 instance in the distribution of its path length."""
    if label == "A1":
        return (random_cone(rng),
                (rng.uniform(0.0, 0.55) * O.unit(rng),
                 rng.uniform(0.15, 0.5)), int(rng.integers(2, 5)))
    if label == "A2":
        axis = O.unit(rng)
        return ([(-depth * axis, axis,
                  math.radians(deg + rng.uniform(-3.0, 3.0)))
                 for depth, deg in ((0.2, 30.0), (0.5, 50.0), (0.8, 70.0))],)
    if label == "A3":
        cone = random_cone(rng)
        return cone, (O.cone_points(cone, 1, rng)[0], rng.uniform(0.1, 0.25))
    if label == "A4":
        cone = random_cone(rng, psi_max=0.7)
        return cone, ball_off_cone(rng, cone)
    if label == "A5":
        return random_cone(rng), random_cone(rng)
    if label == "A6":
        return path_instance(rng, rng.random() if u is None else u)
    if label == "A7":
        while True:
            a, b = random_cone(rng), random_cone(rng)
            if abs(_cap_gap(a, b)) > 1e-4:
                return a, b
    if label == "A8":
        return disjoint_pair(rng, 0.7)
    if label == "A9":
        return (random_cone(rng),
                math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
                math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    if label == "A10":
        tau = rng.uniform(0.8, 1.5)
        return (random_cone(rng, psi_min=0.5, apex_r=0.3),
                tau * rng.uniform(0.75, 1.35), tau)
    if label == "A11":
        return (random_cone(rng),)
    if label == "A12":
        return (random_cone(rng),
                [O.boost(O.unit(rng), rng.uniform(0.05, 0.2)),
                 O.rotation(O.unit(rng), rng.uniform(0.1, 0.3))])
    if label == "A13":
        tau = rng.uniform(0.7, 1.5)
        t0 = rng.uniform(0.2, 1.0)
        xs = O.unit(rng) * rng.uniform(0.0, 0.5) * t0
        return random_cone(rng), tau, np.concatenate([[t0], xs])
    raise ValueError(label)


def path_instance(rng, u: float) -> tuple:
    """A forbidden cone and two cones clear of it, all with apexes on
    their own axes, the second cone u of the way round from the first.

    The azimuthal sweep between the two endpoint axes, about the
    forbidden axis, sets the length of the path around the forbidden
    cone and so most of the construction's time; u in [0, 1) spreads it
    from 0.3 rad to pi.
    """
    clear = lambda f, k: O.separated(f, k, _normals(f, k)) > 1e-3  # noqa
    sweep = 0.3 + u * (math.pi - 0.3)
    while True:
        pole = O.unit(rng)
        psi_f = rng.uniform(0.2, 0.5)
        forbidden = axis_cone(rng.uniform(0.1, 0.5), pole, psi_f)
        e1 = O.unit(rng)
        e1 -= float(e1 @ pole) * pole
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(pole, e1)
        ends = []
        for az in (0.0, sweep):
            phi = psi_f + rng.uniform(0.4, 1.2)
            axis = (math.cos(phi) * pole + math.sin(phi)
                    * (math.cos(az) * e1 + math.sin(az) * e2))
            ends.append(axis_cone(rng.uniform(0.1, 0.5), axis,
                                  rng.uniform(0.15, 0.35)))
        if all(clear(forbidden, k) for k in ends):
            return (forbidden, *ends)


def _cap_gap(a, b) -> float:
    gamma = math.atan2(float(np.linalg.norm(np.cross(a[1], b[1]))),
                       float(a[1] @ b[1]))
    return gamma - a[2] - b[2]


# -------------------------------------------------------------- the calls


def call(H, label: str, raw: tuple):
    """Build the library objects from raw arrays and run the construction.

    Returns a function of no arguments, so that building stays outside
    the timed region.
    """
    K = lambda t: H.BallCone(H.BallPoint(t[0]),  # noqa: E731
                             H.Cap(H.SphereDirection.normalized(t[1]), t[2]))
    ball = lambda b, tau=1.0: H.Hyperball(  # noqa: E731
        H.Hyperboloid(tau), H.BallPoint(b[0]), b[1])
    if label == "A1":
        cone, probe, depth = K(raw[0]), ball(raw[1]), raw[2]
        return lambda: H.funnel_in(cone, depth, probe)
    if label == "A2":
        fam = [K(c) for c in raw[0]]
        return lambda: H.funnel_from_exhaustion(fam)
    if label == "A3":
        cone, b = K(raw[0]), ball(raw[1])
        return lambda: H.avoid_ball_inside(b, cone)
    if label == "A4":
        cone, b = K(raw[0]), ball(raw[1])
        return lambda: H.wrap_ball_in_complement(b, cone)
    if label == "A5":
        a, b = K(raw[0]), K(raw[1])
        return lambda: H.path_connect(a, b)
    if label == "A6":
        f, a, b = (K(c) for c in raw)
        return lambda: H.path_connect_in_complement(f, a, b)
    if label == "A7":
        a, b = K(raw[0]), K(raw[1])
        return lambda: H.shrink_for_connectivity(a, b)
    if label == "A8":
        a, b = K(raw[0]), K(raw[1])
        return lambda: H.common_complement_cone(a, b)
    if label == "A9":
        cone, sigma, tau = K(raw[0]), raw[1], raw[2]
        return lambda: H.enclose_shadow(cone, sigma, tau)
    if label == "A10":
        cone, sigma, tau = K(raw[0]), raw[1], raw[2]
        return lambda: H.shrink_across_shells(cone, sigma, tau)
    if label == "A11":
        cone = K(raw[0])
        return lambda: H.contracting_boosts(cone)
    if label == "A12":
        cone = K(raw[0])
        gens = [H.LorentzTransform(m) for m in raw[1]]
        return lambda: H.robust_enclosure_lorentz(cone, gens)
    if label == "A13":
        cone, tau = K(raw[0]), raw[1]
        shift = [H.FourVector.from_array(raw[2])]
        return lambda: H.translate_enclosure(cone, tau, shift)
    raise ValueError(label)


# ------------------------------------------------------------- the checks


def _t(cone) -> tuple:
    """Raw tuple of a library cone."""
    return (np.array(cone.apex.v), np.array(cone.base.axis.v),
            float(cone.base.half_angle))


def _open_disjoint(a, b, rng) -> bool:
    pa = O.cone_points(a, CHECK_POINTS, rng)
    pb = O.cone_points(b, CHECK_POINTS, rng)
    return (not np.any(O.exit_margins(b, pa) > 0.0)
            and not np.any(O.exit_margins(a, pb) > 0.0))


def _inside(inner, outer, rng) -> bool:
    pts = O.cone_points(inner, CHECK_POINTS, rng)
    return (O.leq(inner, outer)
            and bool(np.all(O.exit_margins(outer, pts) >= -SLACK)))


def _ball_clear(cone, center, radius, rng) -> bool:
    """Cone and closed metric ball share no sampled point."""
    pts = O.cone_points(cone, CHECK_POINTS, rng)
    if any(O.ball_distance(center, p) <= radius for p in pts):
        return False
    return not np.any(O.exit_margins(
        cone, O.ball_points(center, radius, CHECK_POINTS, rng)) > 0.0)


def _shadow_inside(source, target, sigma, tau, rng) -> bool:
    radius = O.shadow_radius(sigma, tau) / tau
    centers = O.cone_points(source, CHECK_POINTS, rng)
    return bool(np.all(O.ball_inside(target, centers, radius)[0]))


def check(label: str, raw: tuple, out, rng) -> bool:
    """Whether a construction's witness satisfies its claim."""
    if label == "A1":
        cones = [_t(c) for c in out.cones]
        chain = [raw[0]] + cones
        return (len(cones) == raw[2]
                and all(_inside(chain[i + 1], chain[i], rng)
                        for i in range(len(cones)))
                and _ball_clear(cones[-1], *raw[1], rng))
    if label == "A2":
        cones = [_t(c) for c in out.cones]
        return (len(cones) == len(raw[0])
                and all(_inside(cones[i + 1], cones[i], rng)
                        for i in range(len(cones) - 1))
                and all(_open_disjoint(o, s, rng)
                        for o, s in zip(cones, raw[0])))
    if label == "A3":
        sub = _t(out)
        return _inside(sub, raw[0], rng) and _ball_clear(sub, *raw[1], rng)
    if label == "A4":
        wrap = _t(out)
        center, radius = raw[1]
        return (bool(O.ball_inside(wrap, center, radius)[0][0])
                and _open_disjoint(wrap, raw[0], rng))
    if label in ("A5", "A6"):
        a, b = raw[-2], raw[-1]
        nodes = [_t(c) for c in out.nodes]
        wits = [_t(c) for c in out.witnesses]
        ok = (len(wits) == len(nodes) - 1
              and O.leq(nodes[0], a) and O.leq(a, nodes[0])
              and O.leq(nodes[-1], b) and O.leq(b, nodes[-1])
              and all(O.leq(w, nodes[i]) and O.leq(w, nodes[i + 1])
                      for i, w in enumerate(wits)))
        if label == "A6":
            ok = ok and all(_open_disjoint(c, raw[0], rng)
                            for c in nodes[1:-1] + wits)
        return ok
    if label == "A7":
        sub = _t(out)
        a, b = raw
        if not _inside(sub, a, rng):
            return False
        if _cap_gap(a, b) > 0.0:
            return _open_disjoint(sub, b, rng)
        return _inside(sub, b, rng)
    if label == "A8":
        w = _t(out)
        return (_open_disjoint(w, raw[0], rng)
                and _open_disjoint(w, raw[1], rng))
    if label == "A9":
        return _shadow_inside(raw[0], _t(out), raw[1], raw[2], rng)
    if label == "A10":
        core = _t(out)
        return (_inside(core, raw[0], rng)
                and _shadow_inside(core, raw[0], raw[1], raw[2], rng))
    if label == "A11":
        d = out.directions[0]
        return all(O.leq(O.map_cone(out.boost_maker(d, chi).matrix, raw[0]),
                         raw[0]) for chi in (0.5, 1.0, 2.0))
    if label == "A12":
        region = _t(out)
        ring = [np.eye(4)] + [m for g in raw[1] for m in (g, O.inverse(g))]
        words = ring + [a @ b for a, b in itertools.product(ring, ring)]
        return all(O.leq(O.map_cone(w, raw[0]), region) for w in words)
    if label == "A13":
        cone, tau, shift = raw
        grown = _t(out)
        events = completion_events(cone, tau, CHECK_POINTS, rng)
        return bool(np.all(O.in_completion(events + shift, grown, tau)[0]))
    raise ValueError(label)


def completion_events(cone, tau, n, rng) -> np.ndarray:
    """n events in the causal completion of a cone on shell tau: lifts
    of cone points, rescaled in time as in the A13 check."""
    kept = np.empty((0, 4))
    while len(kept) < n:
        x = lifted_events(cone, tau, 2 * n, rng)
        kept = np.vstack([kept, x[O.in_completion(x, cone, tau)[0]]])
    return kept[:n]


def lifted_events(cone, tau, n, rng) -> np.ndarray:
    """Lifts of n cone points to shell tau, scaled by exp(U(-0.3, 0.5))."""
    u = O.cone_points(cone, n, rng)
    x0 = tau / np.sqrt(1.0 - np.einsum("ij,ij->i", u, u))
    scale = np.exp(rng.uniform(-0.3, 0.5, n))
    return (scale * x0)[:, None] * np.hstack([np.ones((n, 1)), u])
