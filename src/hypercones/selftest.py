"""Seeded self-test: every module's invariants re-checked by sampling.

Each named property draws its own child generator from the master seed, so
the whole run — including the report text — is a pure function of (seed,
budget).  The report deliberately contains no timing or environment data;
two runs with the same arguments must be byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ball_model import (BallPoint, Cap, Hyperboloid, SphereDirection,
                         ball_distance, boost_ball_action, fit_cap,
                         homology_through_many, lift_from_ball,
                         lorentz_ball_action, shadow_radius)
from .charges import ChargeGroup, StatisticsCharacter, verify_group_axioms
from .config import DEFAULT_TOLERANCES
from .cones import BallCone, Hyperball, cone_leq, disjoint, map_cone
from .constructions import (common_complement_cone, funnel_in,
                            interval_expansion, lightray_point, path_connect)
from .errors import ConstructionFailure, DegenerateGeometry
from .minkowski import FourVector, LorentzTransform, minkowski_product

# closed-membership slack for sampled points
_SLACK = DEFAULT_TOLERANCES.degenerate_window


@dataclass
class PropertyResult:
    name: str
    trials: int
    violations: list
    worst: float  # smallest slack observed against the property's bound

    @property
    def passed(self) -> bool:
        return not self.violations


def _random_point(rng: np.random.Generator, rmax: float = 0.9) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rmax * rng.random() ** (1 / 3)


def _random_direction(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_cone(rng: np.random.Generator, *, psi_max: float = 0.9
                 ) -> BallCone:
    for _ in range(100):
        axis = _random_direction(rng)
        psi = rng.uniform(0.08, psi_max)
        apex = _random_point(rng, 0.7)
        if float(axis @ apex) < math.cos(psi) - 1e-6:
            return BallCone(BallPoint(apex),
                            Cap(SphereDirection.normalized(axis), psi))
    return BallCone(BallPoint(np.zeros(3)),
                    Cap(SphereDirection.normalized(np.array([0, 0, 1.0])),
                        0.5))


def _random_transform(rng: np.random.Generator,
                      scale: float = 0.8) -> LorentzTransform:
    g = LorentzTransform.boost(_random_direction(rng),
                               rng.uniform(-scale, scale))
    r = LorentzTransform.rotation(_random_direction(rng),
                                  rng.uniform(0, math.pi))
    return r @ g


def _score(name: str, errors: list, bound: float,
           violation: str) -> PropertyResult:
    """An error-bound property: the least slack bound - error over the
    trials, and one violation line, `violation` with the trial index k and
    its error err, per error past the bound."""
    worst, bad = math.inf, []
    for k, err in enumerate(errors):
        worst = min(worst, bound - err)
        if err > bound:
            bad.append(violation.format(k=k, err=err))
    return PropertyResult(name, len(errors), bad, worst)


def _check_metric_matches_lift(rng, n) -> PropertyResult:
    errors = []
    for _ in range(n):
        tau = rng.uniform(0.2, 5.0)
        shell = Hyperboloid(tau)
        u = BallPoint(_random_point(rng, 0.95))
        w = BallPoint(_random_point(rng, 0.95))
        d = ball_distance(u, w, shell)
        x, y = lift_from_ball(u, shell), lift_from_ball(w, shell)
        arg = minkowski_product(x, y) / tau ** 2
        d_ref = tau * math.acosh(max(arg, 1.0))
        errors.append(abs(d - d_ref))
    return _score("metric_matches_hyperboloid_lift", errors, 1e-9,
                  "pair {k}: metric mismatch {err:.3e}")


def _check_shadow_radius_euclid(rng, n) -> PropertyResult:
    errors = []
    for _ in range(n):
        sigma = rng.uniform(0.1, 10.0)
        tau = rng.uniform(0.1, 10.0)
        model = shadow_radius(sigma, tau) / tau
        got = math.tanh(model)
        want = abs(tau ** 2 - sigma ** 2) / (tau ** 2 + sigma ** 2)
        errors.append(abs(got - want))
    return _score("shadow_radius_matches_lightcone", errors, 1e-10,
                  "pair {k}: shadow radius off by {err:.3e}")


def _check_boost_formula(rng, n) -> PropertyResult:
    errors = []
    for _ in range(n):
        l = SphereDirection.normalized(_random_direction(rng))
        chi = rng.uniform(-3.0, 3.0)
        u = BallPoint(_random_point(rng, 0.95))
        via_matrix = lorentz_ball_action(
            LorentzTransform.boost(l.v, chi), u)
        direct = boost_ball_action(l, chi, u)
        errors.append(float(np.linalg.norm(via_matrix.v - direct.v)))
    return _score("boost_closed_form_matches_matrix", errors, 1e-10,
                  "sample {k}: boost closed form off by {err:.3e}")


def _check_homology_involution(rng, n) -> PropertyResult:
    errors = []
    for _ in range(n):
        u0 = _random_point(rng, 0.85)
        dirs = np.array([_random_direction(rng) for _ in range(8)])
        once = homology_through_many(u0, dirs)
        twice = homology_through_many(u0, once)
        errors.append(float(np.max(np.linalg.norm(twice - dirs, axis=1))))
    return _score("interior_homology_is_involution", errors, 1e-8,
                  "sample {k}: involution defect {err:.3e}")


def _check_circle_preservation(rng, n) -> PropertyResult:
    worst, bad = math.inf, []
    for k in range(n):
        cap = Cap(SphereDirection.normalized(_random_direction(rng)),
                  rng.uniform(0.1, 1.2))
        g = _random_transform(rng)
        ring = cap.boundary_points(24)
        mapped = np.array([lorentz_ball_action(
            g, SphereDirection.normalized(p)).v for p in ring])
        inside = lorentz_ball_action(g, SphereDirection(cap.axis.v)).v
        try:
            _, residual = fit_cap(mapped, inside)
        except Exception as err:  # fit failure is itself a violation
            bad.append(f"sample {k}: cap fit failed ({err})")
            continue
        worst = min(worst, DEFAULT_TOLERANCES.circle_fit - residual)
        if residual > DEFAULT_TOLERANCES.circle_fit:
            bad.append(f"sample {k}: circle image residual {residual:.3e}")
    return PropertyResult("sphere_action_preserves_circles", n, bad, worst)


def _check_lorentz_inverse(rng, n) -> PropertyResult:
    errors, eye = [], np.eye(4)
    for _ in range(n):
        g = _random_transform(rng, scale=2.0)
        defect = np.abs(g.matrix @ g.inverse().matrix - eye)
        errors.append(float(np.max(defect)))
    return _score("lorentz_inverse_identity", errors,
                  DEFAULT_TOLERANCES.matrix_identity,
                  "sample {k}: inverse defect {err:.3e}")


def _check_transport_membership(rng, n) -> PropertyResult:
    worst, bad = math.inf, []
    for k in range(n):
        cone = _random_cone(rng)
        g = _random_transform(rng, scale=0.6)
        image = map_cone(g, cone)
        pts = cone.sample_points(64, rng)
        margins = cone.interior_margins(pts)
        keep = margins > 1e-4
        if not np.any(keep):
            continue
        mapped = np.array([lorentz_ball_action(g, BallPoint(p)).v
                           for p in pts[keep]])
        ok = image.contains_many(mapped, slack=_SLACK, closed=True)
        worst = min(worst, float(np.min(image.interior_margins(mapped))))
        if not np.all(ok):
            bad.append(f"sample {k}: {int(np.sum(~ok))} mapped points "
                       "escape the mapped cone")
    return PropertyResult("transport_preserves_membership", n, bad, worst)


def _check_disjoint_certificates(rng, n) -> PropertyResult:
    worst, bad = math.inf, []
    for k in range(n):
        a, b = _random_cone(rng), _random_cone(rng)
        try:
            res = disjoint(a, b)
        except DegenerateGeometry:
            continue
        if res.disjoint:
            w, c = res.plane  # first cone on the positive side
            pa = a.sample_points(64, rng)
            pb = b.sample_points(64, rng)
            sa = c - float(np.min(pa @ w))
            sb = float(np.max(pb @ w)) - c
            margin = -max(sa, sb)
            worst = min(worst, margin + 1e-9)
            if sa > 1e-9 or sb > 1e-9:
                bad.append(f"pair {k}: separating plane crossed by "
                           f"{max(sa, sb):.3e}")
        else:
            p = res.common_point[None, :]
            in_a = a.contains_many(p, slack=_SLACK, closed=True)[0]
            in_b = b.contains_many(p, slack=_SLACK, closed=True)[0]
            if not (in_a and in_b):
                bad.append(f"pair {k}: overlap witness not in both cones")
    return PropertyResult("disjoint_certificates_hold", n, bad, worst)


def _check_enlargement_orders(rng, n) -> PropertyResult:
    worst, bad = math.inf, []
    for k in range(n):
        inner = _random_cone(rng, psi_max=0.7)
        apex_in = inner.apex.v
        beta = 0.05 * (1.0 - float(np.linalg.norm(apex_in)))
        apex_out = apex_in - beta * (inner.base.axis.v - apex_in)
        outer = BallCone(BallPoint(apex_out),
                         Cap(inner.base.axis,
                             min(inner.base.half_angle + 0.1, 1.4)))
        res = cone_leq(inner, outer)
        if not res.holds:
            bad.append(f"pair {k}: padded cone fails to dominate")
            continue
        pts = inner.sample_points(64, rng)
        margins = outer.interior_margins(pts)
        worst = min(worst, float(np.min(margins)))
        ok = outer.contains_many(pts, slack=_SLACK, closed=True)
        if not np.all(ok):
            bad.append(f"pair {k}: inner sample escapes the padded cone")
    return PropertyResult("cone_order_matches_membership", n, bad, worst)


def _check_funnels(rng, n) -> PropertyResult:
    bad, built = [], 0
    for k in range(n):
        cone = _random_cone(rng, psi_max=0.7)
        probe_center = cone.centroid().v + 0.05 * _random_direction(rng)
        if float(probe_center @ probe_center) >= 0.8:
            probe_center = cone.centroid().v
        probe = Hyperball(Hyperboloid(1.0), BallPoint(probe_center), 0.05)
        try:
            funnel = funnel_in(cone, 3, probe)
            built += 1
        except (ConstructionFailure, DegenerateGeometry) as err:
            bad.append(f"instance {k}: funnel failed ({err})")
            continue
        for i in range(len(funnel.cones) - 1):
            if not cone_leq(funnel.cones[i + 1], funnel.cones[i]):
                bad.append(f"instance {k}: funnel not decreasing at {i}")
    return PropertyResult("funnels_decrease_and_clear_probe", n, bad,
                          float(built))


def _check_paths(rng, n) -> PropertyResult:
    bad = []
    for k in range(n):
        a, b = _random_cone(rng, psi_max=0.7), _random_cone(rng, psi_max=0.7)
        try:
            path = path_connect(a, b)
        except ConstructionFailure as err:
            bad.append(f"pair {k}: path failed ({err})")
            continue
        for i, w in enumerate(path.witnesses):
            if not (cone_leq(w, path.nodes[i])
                    and cone_leq(w, path.nodes[i + 1])):
                bad.append(f"pair {k}: witness {i} escapes its nodes")
    return PropertyResult("paths_carry_adjacency_witnesses", n, bad,
                          float(n - len(bad)))


def _check_common_complement(rng, n) -> PropertyResult:
    bad, built = [], 0
    for k in range(n):
        axis = _random_direction(rng)
        tilt = _random_direction(rng)
        psi = rng.uniform(0.15, 0.5)
        gap = rng.uniform(0.05, 0.3)
        a = BallCone(BallPoint(gap * axis),
                     Cap(SphereDirection.normalized(axis + 0.1 * tilt), psi))
        b = BallCone(BallPoint(-gap * axis),
                     Cap(SphereDirection.normalized(-axis + 0.1 * tilt),
                         psi))
        try:
            if not disjoint(a, b).disjoint:
                continue
        except DegenerateGeometry:
            continue
        try:
            w = common_complement_cone(a, b)
            built += 1
        except (ConstructionFailure, DegenerateGeometry) as err:
            bad.append(f"pair {k}: no common complement cone ({err})")
            continue
        if not (disjoint(w, a).disjoint and disjoint(w, b).disjoint):
            bad.append(f"pair {k}: complement witness touches an input")
    return PropertyResult("disjoint_pairs_admit_complement_cone", n, bad,
                          float(built))


def _check_charge_axioms(rng, n) -> PropertyResult:
    bad = []
    seed = int(rng.integers(0, 2 ** 31))
    for group, signs in (
        (ChargeGroup(1, ()), (-1,)),
        (ChargeGroup(1, (2,)), (-1, -1)),
        (ChargeGroup(0, (2, 4)), (1, -1)),
    ):
        eps = StatisticsCharacter(group, signs)
        report = verify_group_axioms(group, eps, trials=n, seed=seed)
        bad.extend(report.violations)
    return PropertyResult("charge_group_and_character_laws", 3 * n, bad,
                          float(3 * n - len(bad)))


def _check_lightray_interval(rng, n) -> PropertyResult:
    errors = []
    for _ in range(n):
        tau = rng.uniform(0.3, 3.0)
        u, up = rng.uniform(0.05, 1.0, size=2)
        t = rng.uniform(0.0, 3.0)
        l, lp = _random_direction(rng), _random_direction(rng)
        a = lightray_point(u, tau, l)
        ap = lightray_point(up, tau, lp)
        diff = FourVector.from_parts(a.x0 + t - ap.x0, a.xs - ap.xs)
        direct = diff.square()
        expanded = interval_expansion(u, up, t, float(l @ lp), tau)
        errors.append(abs(direct - expanded))
    return _score("lightray_interval_expansion_identity", errors, 1e-10,
                  "sample {k}: interval expansion off by {err:.3e}")


def _check_completion_equivariance(rng, n) -> PropertyResult:
    from .cones import Hypercone, in_causal_completion
    bad, checked = [], 0
    for k in range(n):
        cone = _random_cone(rng, psi_max=0.6)
        tau = rng.uniform(0.5, 2.0)
        region = Hypercone(Hyperboloid(tau), cone)
        u = cone.centroid().v
        sig = rng.uniform(0.5, 2.0)
        scale = sig / math.sqrt(1.0 - float(u @ u))
        x = FourVector.from_parts(scale, scale * u)
        try:
            before = in_causal_completion(x, region)
        except ValueError:
            continue
        g = _random_transform(rng, scale=0.4)
        mapped_cone = map_cone(g, cone)
        after = in_causal_completion(g.apply(x),
                                     Hypercone(Hyperboloid(tau),
                                               mapped_cone))
        checked += 1
        if before != after:
            bad.append(f"sample {k}: completion membership not "
                       "transport-invariant")
    return PropertyResult("completion_equivariant_under_transport", n, bad,
                          float(checked))


_CHECKS: list[tuple[Callable, int]] = [
    (_check_metric_matches_lift, 200),
    (_check_shadow_radius_euclid, 200),
    (_check_boost_formula, 200),
    (_check_homology_involution, 100),
    (_check_circle_preservation, 60),
    (_check_lorentz_inverse, 100),
    (_check_transport_membership, 40),
    (_check_disjoint_certificates, 30),
    (_check_enlargement_orders, 50),
    (_check_funnels, 5),
    (_check_paths, 5),
    (_check_common_complement, 5),
    (_check_charge_axioms, 150),
    (_check_lightray_interval, 200),
    (_check_completion_equivariance, 25),
]


def run_selftest(seed: int = 0, budget: float = 1.0) -> tuple[str, bool]:
    """Run every registered property; returns (report text, all passed)."""
    master = np.random.SeedSequence(seed)
    children = master.spawn(len(_CHECKS))
    lines = [f"self-test seed={seed} budget={budget:g} "
             f"properties={len(_CHECKS)}"]
    all_ok = True
    results = []
    for (check, base_n), child in zip(_CHECKS, children):
        n = max(1, int(round(base_n * budget)))
        rng = np.random.default_rng(child)
        result = check(rng, n)
        results.append(result)
        all_ok = all_ok and result.passed
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        worst = ("n/a" if not math.isfinite(result.worst)
                 else f"{result.worst:.3e}")
        lines.append(f"{status} {result.name:45s} trials={result.trials:6d} "
                     f"worst_margin={worst}")
        for violation in result.violations[:10]:
            lines.append(f"     {violation} (seed={seed})")
    lines.append("result: " + ("ALL PROPERTIES PASS" if all_ok
                               else "PROPERTY VIOLATIONS FOUND"))
    return "\n".join(lines) + "\n", all_ok
