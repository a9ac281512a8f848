"""Acceptance suite: eleven top-level guarantees, one test (and one
pass/fail line under ``pytest -v``) per guarantee.  Tolerances here are
contractual; they must not be loosened to make a failing check pass."""

import math
import time

import numpy as np
import pytest

from hypercones.ball_model import (BallPoint, Cap, Hyperboloid,
                                   SphereDirection, ball_distance,
                                   boost_ball_action,
                                   euclidean_radius_of_centered_ball,
                                   fit_cap, homology_through,
                                   hyperboloid_distance, lift_from_ball,
                                   lorentz_ball_action, shadow_radius,
                                   sphere_action)
from hypercones.charges import (ChargeGroup, Morphism, StatisticsCharacter,
                                exchange_statistics, verify_group_axioms)
from hypercones.cones import (BallCone, Hyperball, Hypercone, cone_leq,
                              cone_hyperball_disjoint, disjoint,
                              hyperball_in_cone, in_causal_completion,
                              map_cone)
from hypercones.constructions import (avoid_ball_inside, common_complement_cone,
                                      contracting_boosts, enclose_shadow,
                                      escape_ball, funnel_from_exhaustion,
                                      funnel_in, interval_expansion,
                                      lightray_offset, lightray_point,
                                      path_connect, path_connect_in_complement,
                                      robust_enclosure_lorentz,
                                      shrink_across_shells,
                                      shrink_for_connectivity,
                                      translate_enclosure,
                                      wrap_ball_in_complement)
from hypercones.convex import hyperball_ellipsoid
from hypercones.errors import AdmissibilityError
from hypercones.minkowski import (FourVector, LorentzTransform,
                                  decompose_translation, kappa_split,
                                  lightlike_boost, minkowski_product)
from hypercones.selftest import run_selftest

from tests.conftest import (ball_disjoint_from_cone, disjoint_cone_pair,
                            exhaustion_family, random_cone, random_transform,
                            unit_vector)

MEMBERSHIP = 10_000          # sampled points per certified relation
N_RANDOM = 100               # randomized instances per construction
SHELL = Hyperboloid(1.0)
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def report(num: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: PASS{suffix}")


def axis_cone(apex_scale: float, axis, half_angle: float) -> BallCone:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return BallCone(BallPoint(apex_scale * axis),
                    Cap(SphereDirection.normalized(axis), half_angle))


def ball_in_ball(rng, center, radius) -> Hyperball:
    return Hyperball(SHELL, BallPoint(np.asarray(center, dtype=float)),
                     float(radius))


# ------------------------------------------------------------------ helpers
# shared certificate checkers: every certified relation is re-validated by
# sampling MEMBERSHIP points and demanding zero violations.


def certify_subset(inner: BallCone, outer: BallCone, rng,
                   n: int = MEMBERSHIP) -> None:
    res = cone_leq(inner, outer)
    assert res.holds, (res.cap_margin, res.apex_margin)
    pts = inner.sample_points(n, rng)
    inside = outer.contains_many(pts, slack=1e-9, closed=True)
    assert int(np.sum(~inside)) == 0


def certify_disjoint(a: BallCone, b: BallCone, rng,
                     n: int = MEMBERSHIP) -> None:
    res = disjoint(a, b)
    assert res.disjoint, res.margin
    w, c = res.plane
    pa = a.sample_points(n // 2, rng)
    pb = b.sample_points(n // 2, rng)
    assert int(np.sum(b.contains_many(pa, slack=0.0))) == 0
    assert int(np.sum(a.contains_many(pb, slack=0.0))) == 0
    assert float(np.min(pa @ w)) >= c - 1e-9
    assert float(np.max(pb @ w)) <= c + 1e-9


def ellipsoid_samples(ball: Hyperball, rng, n: int) -> np.ndarray:
    ell = hyperball_ellipsoid(ball.center.v, ball.radius, ball.shell.tau)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    shrink = rng.random(n)[:, None]
    boundary = ell.boundary_points(dirs)
    return ell.center + shrink * (boundary - ell.center)


def certify_ball_inside(ball: Hyperball, cone: BallCone, rng,
                        n: int = MEMBERSHIP) -> None:
    res = hyperball_in_cone(ball, cone)
    assert res.holds, res.margin
    pts = ellipsoid_samples(ball, rng, n)
    inside = cone.contains_many(pts, slack=1e-9, closed=True)
    assert int(np.sum(~inside)) == 0


def certify_ball_clear(cone: BallCone, ball: Hyperball, rng,
                       n: int = MEMBERSHIP) -> None:
    sep = cone_hyperball_disjoint(cone, ball)
    assert sep.disjoint, sep.margin
    ball_pts = ellipsoid_samples(ball, rng, n // 2)
    assert int(np.sum(cone.contains_many(ball_pts, slack=0.0))) == 0
    cone_pts = cone.sample_points(n // 2, rng)
    ell = hyperball_ellipsoid(ball.center.v, ball.radius, ball.shell.tau)
    assert int(np.sum(ell.contains(cone_pts, -1e-12))) == 0


def certify_shadow_inside(source: BallCone, target: BallCone,
                          sigma: float, tau: float, rng,
                          n_centers: int = 200, n_each: int = 50) -> None:
    """Metric balls of the cross-shell shadow radius around source points
    must land inside the target cone (MEMBERSHIP = n_centers * n_each)."""
    radius = shadow_radius(sigma, tau)
    shell = Hyperboloid(tau)
    centers = source.sample_points(n_centers, rng)
    for c in centers:
        ball = Hyperball(shell, BallPoint(c), radius)
        pts = ellipsoid_samples(ball, rng, n_each)
        inside = target.contains_many(pts, slack=1e-9, closed=True)
        assert int(np.sum(~inside)) == 0, (c, sigma, tau)


def certify_path(path, a: BallCone, b: BallCone, rng,
                 forbidden: BallCone | None = None) -> None:
    assert path.nodes[0] is a or cone_leq(path.nodes[0], a).holds
    assert path.nodes[-1] is b or cone_leq(path.nodes[-1], b).holds
    assert len(path.witnesses) == len(path.nodes) - 1
    per = max(1000, MEMBERSHIP // max(1, len(path.witnesses)))
    for i, w in enumerate(path.witnesses):
        certify_subset(w, path.nodes[i], rng, per)
        certify_subset(w, path.nodes[i + 1], rng, per)
    if forbidden is not None:
        per = max(1000, MEMBERSHIP // len(path.nodes))
        for node in path.nodes:
            certify_disjoint(node, forbidden, rng, per)
        for w in path.witnesses:
            certify_disjoint(w, forbidden, rng, per)


# ----------------------------------------------------------- criterion 1


def test_c01_ball_metric_agrees_with_shell_metric():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        tau = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        shell = Hyperboloid(tau)
        u = BallPoint(unit_vector(rng) * 0.98 * rng.random() ** (1 / 3))
        w = BallPoint(unit_vector(rng) * 0.98 * rng.random() ** (1 / 3))
        d_ball = ball_distance(u, w, shell)
        d_shell = hyperboloid_distance(lift_from_ball(u, shell),
                                       lift_from_ball(w, shell), shell)
        worst = max(worst, abs(d_ball - d_shell))
    assert worst < 1e-9
    pinned = ball_distance(BallPoint(np.zeros(3)),
                           BallPoint(np.array([0.6, 0.0, 0.0])), SHELL)
    assert abs(pinned - math.log(2.0)) <= 1e-12
    report(1, "ball metric agrees with shell metric",
           f"worst deviation {worst:.2e} over 10^4 pairs")


# ----------------------------------------------------------- criterion 2


def test_c02_shadow_radius_tanh_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        sigma = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        tau = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        got = math.tanh(shadow_radius(sigma, tau) / tau)
        want = abs(tau * tau - sigma * sigma) / (tau * tau + sigma * sigma)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10
    hyperbolic = shadow_radius(1.0, 2.0)
    assert abs(hyperbolic - 2.0 * math.log(2.0)) <= 1e-12
    euclidean = euclidean_radius_of_centered_ball(hyperbolic, 2.0)
    assert abs(euclidean - 0.6) <= 1e-12
    report(2, "shadow radius matches its tanh oracle",
           f"worst deviation {worst:.2e} over 10^3 shell pairs")


# ----------------------------------------------------------- criterion 3


def test_c03_closed_form_boost_action_matches_matrix_action():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        l = SphereDirection.normalized(unit_vector(rng))
        chi = rng.uniform(-3.0, 3.0)
        u = BallPoint(unit_vector(rng) * 0.97 * rng.random() ** (1 / 3))
        closed = boost_ball_action(l, chi, u)
        matrix = lorentz_ball_action(LorentzTransform.boost(l.v, chi), u)
        worst = max(worst, float(np.max(np.abs(closed.v - matrix.v))))
    assert worst < 1e-10
    for _ in range(100):
        l = SphereDirection.normalized(unit_vector(rng))
        chi = rng.uniform(-3.0, 3.0)
        center = boost_ball_action(l, chi, BallPoint(np.zeros(3)))
        assert float(np.max(np.abs(center.v - math.tanh(chi) * l.v))) <= 1e-12
    report(3, "closed-form boost action matches matrix action",
           f"worst deviation {worst:.2e} over 10^4 triples")


# ----------------------------------------------------------- criterion 4


def test_c04_boundary_circles_stay_circles_and_homology_involutes():
    rng = np.random.default_rng(104)
    worst_fit = 0.0
    for _ in range(1000):
        cap = Cap(SphereDirection.normalized(unit_vector(rng)),
                  rng.uniform(0.1, 1.4))
        g = random_transform(rng, max_rapidity=3.0)
        mapped = sphere_action(g, cap.boundary_points(16))
        hint = sphere_action(g, cap.axis.v[None, :])[0]
        _, residual = fit_cap(mapped, hint)
        worst_fit = max(worst_fit, residual)
    assert worst_fit < 1e-7

    worst_inv = 0.0
    for _ in range(1000):
        u0 = BallPoint(unit_vector(rng) * 0.9 * rng.random())
        l = SphereDirection.normalized(unit_vector(rng))
        back = homology_through(u0, homology_through(u0, l))
        worst_inv = max(worst_inv, float(np.max(np.abs(back.v - l.v))))
    assert worst_inv < 1e-8

    image = homology_through(BallPoint(np.array([0.0, 0.0, 0.5])),
                             SphereDirection.normalized(X))
    assert float(np.max(np.abs(image.v - np.array([-0.6, 0.0, 0.8])))) <= 1e-10
    report(4, "mapped circles refit as circles; homology involutes",
           f"worst fit {worst_fit:.2e}, worst involution {worst_inv:.2e}")


# ----------------------------------------------------------- criterion 5


def a1_instances(rng):
    for _ in range(N_RANDOM):
        yield (random_cone(rng),
               ball_in_ball(rng, unit_vector(rng) * rng.uniform(0.0, 0.55),
                            rng.uniform(0.15, 0.5)),
               int(rng.integers(2, 5)))
    yield (axis_cone(-0.2, Z, math.radians(40.0)),
           ball_in_ball(rng, [0.0, 0.0, 0.35], 0.2), 3)
    yield (axis_cone(-0.85, Z, 1.35), ball_in_ball(rng, [0.0, 0.0, 0.0],
                                                   0.15), 4)
    yield (axis_cone(0.6, Z, 0.08), ball_in_ball(rng, [0.0, 0.0, 0.8],
                                                 0.05), 2)


def check_a1(rng):
    for cone, probe, depth in a1_instances(rng):
        funnel = funnel_in(cone, depth, probe)
        assert len(funnel.cones) == depth
        chain = (cone,) + funnel.cones
        for i in range(len(chain) - 1):
            certify_subset(chain[i + 1], chain[i], rng)
        certify_ball_clear(funnel.cones[-1], probe, rng)


def a2_instances(rng):
    for _ in range(N_RANDOM):
        yield exhaustion_family(rng)
    axis_family = [axis_cone(-0.2, Z, math.radians(30.0)),
                   axis_cone(-0.5, Z, math.radians(50.0)),
                   axis_cone(-0.8, Z, math.radians(70.0))]
    for i in range(1, len(axis_family)):
        assert cone_leq(axis_family[i - 1], axis_family[i]).holds
    yield axis_family


def check_a2(rng):
    for family in a2_instances(rng):
        funnel = funnel_from_exhaustion(family)
        assert len(funnel.cones) == len(family)
        for i in range(len(funnel.cones) - 1):
            certify_subset(funnel.cones[i + 1], funnel.cones[i], rng)
        for opp, source in zip(funnel.cones, family):
            certify_disjoint(opp, source, rng)


def a3_instances(rng):
    for _ in range(N_RANDOM):
        cone = random_cone(rng)
        center = cone.sample_points(1, rng)[0]
        yield cone, Hyperball(SHELL, BallPoint(center),
                              rng.uniform(0.1, 0.25))
    big = axis_cone(-0.2, Z, math.radians(40.0))
    yield big, ball_in_ball(rng, [0.0, 0.0, 0.2], 0.2)
    yield big, ball_in_ball(rng, [0.0, 0.0, 0.3], 0.02)


def check_a3(rng):
    for cone, ball in a3_instances(rng):
        sub = avoid_ball_inside(ball, cone)
        certify_subset(sub, cone, rng)
        certify_ball_clear(sub, ball, rng)


def a4_instances(rng):
    for _ in range(N_RANDOM):
        cone = random_cone(rng, psi_max=0.7)
        yield cone, ball_disjoint_from_cone(rng, cone, SHELL)
    down = axis_cone(-0.15, -Z, math.radians(25.0))
    yield down, ball_in_ball(rng, [0.0, 0.0, 0.5], 0.15)
    yield down, ball_in_ball(rng, [0.0, 0.0, 0.6], 0.1)


def check_a4(rng):
    for cone, ball in a4_instances(rng):
        wrap = wrap_ball_in_complement(ball, cone)
        certify_ball_inside(ball, wrap, rng)
        certify_disjoint(wrap, cone, rng)


def a5_instances(rng):
    for _ in range(N_RANDOM):
        yield random_cone(rng), random_cone(rng)
    yield (axis_cone(0.15, Z, math.radians(25.0)),
           axis_cone(-0.15, -Z, math.radians(25.0)))
    yield axis_cone(0.6, Z, 0.08), axis_cone(-0.85, Z, 1.35)


def check_a5(rng):
    for a, b in a5_instances(rng):
        path = path_connect(a, b)
        certify_path(path, a, b, rng)


def a6_instances(rng):
    made = 0
    while made < N_RANDOM:
        forbidden = random_cone(rng, psi_max=0.6)
        a = random_cone(rng, psi_max=0.6)
        b = random_cone(rng, psi_max=0.6)
        if (disjoint(a, forbidden).disjoint
                and disjoint(b, forbidden).disjoint):
            made += 1
            yield forbidden, a, b
    yield (axis_cone(-0.1, X, math.radians(25.0)),
           axis_cone(0.15, Z, math.radians(25.0)),
           axis_cone(0.15, -Z, math.radians(25.0)))


def check_a6(rng):
    for forbidden, a, b in a6_instances(rng):
        path = path_connect_in_complement(forbidden, a, b)
        certify_path(path, a, b, rng, forbidden=forbidden)


def a7_instances(rng):
    for _ in range(N_RANDOM):
        while True:
            a = random_cone(rng)
            b = random_cone(rng)
            gap = (math.acos(np.clip(a.base.axis.v @ b.base.axis.v, -1, 1))
                   - a.base.half_angle - b.base.half_angle)
            if abs(gap) > 1e-4:
                yield a, b
                break
    yield (axis_cone(0.15, Z, math.radians(25.0)),
           axis_cone(-0.2, Z, math.radians(40.0)))
    yield (axis_cone(0.15, Z, math.radians(25.0)),
           axis_cone(-0.15, -Z, math.radians(25.0)))
    tilt = 2.0 * math.radians(25.0) + 0.01
    barely = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    yield (axis_cone(0.0, Z, math.radians(25.0)),
           axis_cone(0.0, barely, math.radians(25.0)))


def check_a7(rng):
    for a, b in a7_instances(rng):
        sub = shrink_for_connectivity(a, b)
        certify_subset(sub, a, rng)
        gap = (math.acos(np.clip(a.base.axis.v @ b.base.axis.v, -1, 1))
               - a.base.half_angle - b.base.half_angle)
        if gap > 0.0:
            certify_disjoint(sub, b, rng)
        else:
            certify_subset(sub, b, rng)


def a8_instances(rng):
    for _ in range(N_RANDOM):
        yield disjoint_cone_pair(rng)
    yield (axis_cone(0.15, Z, math.radians(25.0)),
           axis_cone(-0.15, -Z, math.radians(25.0)))
    tilt = 2.0 * math.radians(20.0) + 5e-3
    barely = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    yield (axis_cone(0.1, Z, math.radians(20.0)),
           axis_cone(0.1, barely, math.radians(20.0)))


def check_a8(rng):
    for a, b in a8_instances(rng):
        witness = common_complement_cone(a, b)
        certify_disjoint(witness, a, rng)
        certify_disjoint(witness, b, rng)


def a9_instances(rng):
    for _ in range(N_RANDOM):
        yield (random_cone(rng),
               math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
               math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    yield axis_cone(-0.2, Z, math.radians(40.0)), 1.0, 2.0


def check_a9(rng):
    for cone, sigma, tau in a9_instances(rng):
        grown = enclose_shadow(cone, sigma, tau)
        certify_shadow_inside(cone, grown, sigma, tau, rng)


def a10_instances(rng):
    for _ in range(N_RANDOM):
        tau = rng.uniform(0.8, 1.5)
        sigma = tau * rng.uniform(0.75, 1.35)
        yield random_cone(rng, psi_min=0.5, apex_r=0.3), sigma, tau
    yield axis_cone(-0.2, Z, math.radians(40.0)), 1.0, 2.0


def check_a10(rng):
    for cone, sigma, tau in a10_instances(rng):
        core = shrink_across_shells(cone, sigma, tau)
        certify_subset(core, cone, rng)
        certify_shadow_inside(core, cone, sigma, tau, rng)


def a11_instances(rng):
    for _ in range(N_RANDOM):
        yield random_cone(rng)
    yield axis_cone(0.15, Z, math.radians(25.0))
    yield axis_cone(-0.85, Z, 1.35)


def check_a11(rng):
    for cone in a11_instances(rng):
        family = contracting_boosts(cone)
        assert family.directions and family.half_angle > 0.0
        direction = family.directions[0]
        for chi in (0.5, 1.0, 2.0):
            mapped = map_cone(family.boost_maker(direction, chi), cone)
            certify_subset(mapped, cone, rng, MEMBERSHIP // 3)


def a12_instances(rng):
    for _ in range(N_RANDOM):
        gens = [LorentzTransform.boost(unit_vector(rng),
                                       rng.uniform(0.05, 0.2)),
                LorentzTransform.rotation(unit_vector(rng),
                                          rng.uniform(0.1, 0.3))]
        yield random_cone(rng), gens
    yield (axis_cone(0.15, Z, math.radians(25.0)),
           [LorentzTransform.boost(X, 0.15),
            LorentzTransform.rotation(Z, 0.2)])


def orbit_words(gens):
    singles = []
    for g in gens:
        singles.append(g)
        singles.append(g.inverse())
    yield from singles
    for g in singles:
        for h in singles:
            yield g @ h


def check_a12(rng):
    for cone, gens in a12_instances(rng):
        region = robust_enclosure_lorentz(cone, gens)
        words = list(orbit_words(gens))
        per = max(500, MEMBERSHIP // len(words))
        for word in words:
            certify_subset(map_cone(word, cone), region, rng, per)


def a13_instances(rng):
    for _ in range(N_RANDOM):
        tau = rng.uniform(0.7, 1.5)
        t0 = rng.uniform(0.2, 1.0)
        xs = unit_vector(rng) * rng.uniform(0.0, 0.5) * t0
        yield random_cone(rng), tau, FourVector.from_parts(t0, xs)
    yield (axis_cone(0.15, Z, math.radians(25.0)), 1.0,
           FourVector.from_parts(1.0, (0.0, 0.0, 0.0)))


def completion_events(cone, shell, rng, n):
    """Events inside the causal completion of `cone`, by rejection."""
    region = Hypercone(shell, cone)
    kept = []
    while len(kept) < n:
        pts = cone.sample_points(max(64, n - len(kept)), rng)
        lam = np.exp(rng.uniform(-0.3, 0.5, size=len(pts)))
        for p, s in zip(pts, lam):
            x = lift_from_ball(BallPoint(p), shell)
            candidate = FourVector.from_array(s * x.components)
            if in_causal_completion(candidate, region):
                kept.append(candidate)
                if len(kept) == n:
                    break
    return kept


def check_a13(rng):
    for cone, tau, shift in a13_instances(rng):
        shell = Hyperboloid(tau)
        grown = translate_enclosure(cone, tau, [shift])
        target = Hypercone(shell, grown)
        events = completion_events(cone, shell, rng, MEMBERSHIP // 4)
        violations = sum(
            0 if in_causal_completion(x + shift, target) else 1
            for x in events)
        assert violations == 0


LEMMA_CHECKS = [("A1", check_a1), ("A2", check_a2), ("A3", check_a3),
                ("A4", check_a4), ("A5", check_a5), ("A6", check_a6),
                ("A7", check_a7), ("A8", check_a8), ("A9", check_a9),
                ("A10", check_a10), ("A11", check_a11), ("A12", check_a12),
                ("A13", check_a13)]


def test_c05_construction_certificates_hold_on_randomized_instances():
    timings = []
    for seed_offset, (label, check) in enumerate(LEMMA_CHECKS):
        rng = np.random.default_rng(500 + seed_offset)
        started = time.monotonic()
        check(rng)
        timings.append(f"{label} {time.monotonic() - started:.1f}s")
    report(5, "construction certificates hold on randomized instances",
           "; ".join(timings))


# ----------------------------------------------------------- criterion 6


def test_c06_boost_contraction_and_ball_escape():
    rng = np.random.default_rng(106)
    worst_n = 0
    for _ in range(100):
        cone = random_cone(rng)
        family = contracting_boosts(cone)
        direction = family.directions[0]
        for chi in (0.5, 1.0, 2.0):
            mapped = map_cone(family.boost_maker(direction, chi), cone)
            assert cone_leq(mapped, cone).holds
        probe = Hyperball(SHELL, cone.centroid(), rng.uniform(0.3, 1.0))
        n = escape_ball(cone, probe, direction, 64)
        assert 0 <= n <= 64
        worst_n = max(worst_n, n)
    report(6, "boost contraction holds and ball escape terminates",
           f"max escape count {worst_n} over 100 cones")


# ----------------------------------------------------------- criterion 7


def test_c07_interval_expansion_and_spacelike_criterion():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        tau = rng.uniform(0.3, 3.0)
        u = rng.uniform(0.05, 1.0)
        up = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.0, 2.0)
        l, lp = unit_vector(rng), unit_vector(rng)
        a = lightray_point(u, tau, l)
        ap = lightray_point(up, tau, lp)
        direct = (a + FourVector.from_parts(t, (0, 0, 0)) - ap).square()
        closed = interval_expansion(u, up, t, float(l @ lp), tau)
        worst = max(worst, abs(direct - closed))
    assert worst < 1e-10

    checked = 0
    for _ in range(100_000):
        tau = rng.uniform(0.3, 3.0)
        u = rng.uniform(0.01, 1.0)
        up = rng.uniform(0.01, 1.0)
        t = rng.uniform(0.0, 3.0)
        dot = rng.uniform(-1.0, 0.0)
        if dot == 0.0 or up * tau + lightray_offset(up, tau) <= tau + t:
            continue
        assert interval_expansion(u, up, t, dot, tau) < 0.0
        checked += 1
    assert checked > 1000
    report(7, "five-term interval expansion and spacelike criterion",
           f"worst expansion gap {worst:.2e}; "
           f"{checked} spacelike cases, zero violations")


# ----------------------------------------------------------- criterion 8


def test_c08_charge_group_axioms_and_statistics_signs():
    integers = ChargeGroup(1, ())
    eps_int = StatisticsCharacter(integers, (-1,))
    rep = verify_group_axioms(integers, eps_int, trials=2000, seed=0,
                              bound=20)
    assert not rep.violations

    elements = [integers.element([k]) for k in range(-20, 21)]
    zero = integers.zero()
    for g in elements:
        assert (g + (-g)).is_zero
        assert (g + zero).coords == g.coords
        e = eps_int.evaluate(g)
        assert e * e == 1
        assert eps_int.evaluate(-g) == e
    for g in elements:
        for h in elements:
            assert (g + h).coords == (h + g).coords
            assert (eps_int.evaluate(g + h)
                    == eps_int.evaluate(g) * eps_int.evaluate(h))
            for w in elements:
                assert ((g + h) + w).coords == (g + (h + w)).coords

    mixed = ChargeGroup(1, (2, 2))
    eps_mixed = StatisticsCharacter(mixed, (-1, -1, 1))
    rep = verify_group_axioms(mixed, eps_mixed, trials=2000, seed=1,
                              bound=20)
    assert not rep.violations
    mixed_elements = [mixed.element([n, a, b])
                      for n in range(-20, 21)
                      for a in (0, 1) for b in (0, 1)]
    zero = mixed.zero()
    for g in mixed_elements:
        assert (g + (-g)).is_zero
        assert (g + zero).coords == g.coords
        e = eps_mixed.evaluate(g)
        assert e * e == 1
        assert eps_mixed.evaluate(-g) == e
    for g in mixed_elements:
        for h in mixed_elements:
            assert (g + h).coords == (h + g).coords
            assert (eps_mixed.evaluate(g + h)
                    == eps_mixed.evaluate(g) * eps_mixed.evaluate(h))
    corner = [mixed.element([n, a, b])
              for n in (-20, -7, 0, 1, 13, 20)
              for a in (0, 1) for b in (0, 1)]
    for g in corner:
        for h in corner:
            for w in corner:
                assert ((g + h) + w).coords == (g + (h + w)).coords

    with pytest.raises(ValueError):
        StatisticsCharacter(ChargeGroup(0, (3,)), (-1,))
    report(8, "charge group axioms and statistics sign laws",
           f"{len(elements)} + {len(mixed_elements)} elements exhausted")


# ----------------------------------------------------------- criterion 9


def test_c09_disjointness_gives_complement_cone_and_exchange_sign():
    rng = np.random.default_rng(109)
    group = ChargeGroup(1, ())
    eps = StatisticsCharacter(group, (-1,))
    charge = group.element([3])
    expected = eps.evaluate(charge)
    for _ in range(200):
        a, b = disjoint_cone_pair(rng)
        witness = common_complement_cone(a, b)
        assert disjoint(witness, a).disjoint
        assert disjoint(witness, b).disjoint
        s = Morphism(charge, a, SHELL)
        t = Morphism(charge, b, SHELL)
        assert exchange_statistics(s, t, eps) == expected

    refused = 0
    while refused < 50:
        a = random_cone(rng)
        b = random_cone(rng)
        if disjoint(a, b).disjoint:
            continue
        refused += 1
        s = Morphism(charge, a, SHELL)
        t = Morphism(charge, b, SHELL)
        with pytest.raises(AdmissibilityError):
            exchange_statistics(s, t, eps)
    report(9, "disjoint pairs admit complement cones and exchange signs",
           "200 disjoint pairs certified; 50 overlapping pairs refused")


# ----------------------------------------------------------- criterion 10


def test_c10_exact_translation_splits_and_lightlike_eigenrelations():
    x, y = decompose_translation(FourVector.from_parts(-1.0, (0, 0, 0)))
    assert np.array_equal(x.components, [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(y.components, [1.0, 0.0, 0.0, 0.0])
    x, y = decompose_translation(FourVector.from_parts(0.0, (5, 0, 0)))
    assert np.array_equal(x.components, [5.0, 5.0, 0.0, 0.0])
    assert np.array_equal(y.components, [5.0, 0.0, 0.0, 0.0])
    x, y = decompose_translation(FourVector.from_parts(3.0, (0, 0, 0)))
    assert np.array_equal(x.components, [3.0, 0.0, 0.0, 0.0])
    assert np.array_equal(y.components, [0.0, 0.0, 0.0, 0.0])

    lp, k = kappa_split(FourVector.from_parts(2.0, (1, 0, 0)))
    assert np.array_equal(lp.components, [1.0, 1.0, 0.0, 0.0]) and k == 1.0
    lp, k = kappa_split(FourVector.from_parts(1.0, (0, 0, 0)))
    assert np.array_equal(lp.components, [0.0, 0.0, 0.0, 0.0]) and k == 1.0
    lp, k = kappa_split(FourVector.from_parts(1.0, (0, 0, 2)))
    assert np.array_equal(lp.components, [2.0, 0.0, 0.0, 2.0]) and k == -1.0

    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(500):
        n = unit_vector(rng)
        beta = math.exp(rng.uniform(0.0, 3.0))
        l = FourVector.from_parts(1.0, n)
        lr = FourVector.from_parts(1.0, -n)
        g = lightlike_boost(l, beta)
        worst = max(
            worst,
            float(np.max(np.abs((g.apply(l) - FourVector.from_array(
                l.components / beta)).components))),
            float(np.max(np.abs((g.apply(lr) - FourVector.from_array(
                beta * lr.components)).components))))
    assert worst < 1e-10
    report(10, "exact translation splits and lightlike eigenrelations",
           f"worst eigenrelation residual {worst:.2e}")


# ----------------------------------------------------------- criterion 11


def test_c11_selftest_is_fast_and_deterministic():
    started = time.monotonic()
    first, ok_first = run_selftest(seed=0, budget=1.0)
    elapsed = time.monotonic() - started
    second, ok_second = run_selftest(seed=0, budget=1.0)
    assert ok_first and ok_second
    assert elapsed < 60.0
    assert first == second
    report(11, "self-test is fast and byte-deterministic",
           f"{elapsed:.1f}s at default budgets")
