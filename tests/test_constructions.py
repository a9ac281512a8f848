"""Constructive witnesses for the cone-calculus existence facts."""

import itertools
import math
import struct
import sys
import types

import numpy as np
import pytest

from hypercones import (BallCone, BallPoint, Cap, ConstructionFailure,
                        DegenerateGeometry,
                        FourVector, Hyperball, Hyperboloid, Hypercone,
                        LorentzTransform, SphereDirection, avoid_ball_inside,
                        common_complement_cone, cone_hyperball_disjoint,
                        cone_leq, contains_point, contracting_boosts,
                        disjoint, enclose_shadow, escape_ball,
                        funnel_from_exhaustion, funnel_in, hyperball_in_cone,
                        in_causal_completion, interval_expansion,
                        lift_from_ball, lightray_offset,
                        lightray_point, map_cone, opposite, path_connect,
                        path_connect_in_complement, robust_enclosure_lorentz,
                        shadow_radius, shift_light_cone, shrink_across_shells,
                        shrink_for_connectivity, translate_enclosure,
                        wrap_ball_in_complement)
import hypercones
from hypercones import charges, constructions, scene
from hypercones.ball_model import _act, ball_action_many, ball_distance
from hypercones.cones import _cap_fits, _cone, _frame_clearance, _map, \
    _plane_margin
from hypercones.convex import hyperball_ellipsoid
from hypercones.config import DEFAULT_TOLERANCES
from hypercones.spherical import angle_between, orthonormal_frame, \
    rotate_toward, slerp, unit
from tests.conftest import (ball_disjoint_from_cone, benchmark_instances,
                            certify_module, disjoint_cone_pair,
                            exhaustion_family, random_cone, random_transform,
                            unit_vector)
from tests.test_acceptance import certify_ball_inside, certify_disjoint
from tests.test_ball_model import _numpy_cap_image
from tests.test_cones import _numpy_plane_margin
from tests.test_kernel_bits import _reference_enclosure
from tests.test_minkowski import _reference_product

Z = np.array([0.0, 0.0, 1.0])


def apex_boost(p: np.ndarray) -> LorentzTransform:
    """Boost whose ball action moves the ball point p to the origin, built
    as a matrix boost: an independent check of ball_model.apex_matrix."""
    a = float(np.linalg.norm(p))
    if a < 1e-14:
        return LorentzTransform.identity()
    return LorentzTransform.boost(p / a, -math.atanh(a))


def matrix_boost_wrap(ball, cone):
    """Apex, cap, r and A of the foot-and-halfway wrap on matrix boosts
    and 4x4 cap images: the separating plane seen from the ball's centre
    C, its foot carried back, and the cap about C seen from the foot
    halfway from the ball's reach A to a right angle."""
    w, c = cone_hyperball_disjoint(cone, ball).plane
    to_center = apex_boost(ball.center.v)
    plane = _numpy_cap_image(to_center, Cap(SphereDirection.normalized(w),
                                            math.acos(c)))
    foot = ball_action_many(to_center.inverse(),
                            plane.cos_half * plane.axis.v)[0]
    frame = apex_boost(foot)
    seen = ball_action_many(frame, ball.center.v)[0]
    r = math.atanh(float(np.linalg.norm(seen)))
    reach = math.asin(math.sinh(ball.radius / ball.shell.tau)
                      / math.sinh(r))
    cap = _numpy_cap_image(frame.inverse(), Cap(
        SphereDirection.normalized(seen), 0.5 * (reach + 0.5 * math.pi)))
    return foot, cap, r, reach


def axis_cone(psi=0.5, apex_z=0.0) -> BallCone:
    return BallCone(BallPoint(np.array([0.0, 0.0, apex_z])),
                    Cap(SphereDirection(Z), psi))


def assert_sampled_disjoint(a, b, rng, n=2_000):
    """No sampled point of either cone lies in the other."""
    assert not np.any(b.contains_many(a.sample_points(n, rng)))
    assert not np.any(a.contains_many(b.sample_points(n, rng)))


def near_covering_pair(rng):
    """Disjoint cones, apexes on either side of a plane, whose caps leave
    a band of width 5e-4 to 5e-3 uncovered."""
    while True:
        n = unit_vector(rng)
        h = rng.uniform(-0.4, 0.4)
        gap = rng.uniform(5e-4, 5e-3, size=2)
        eps = rng.uniform(2e-4, 1e-3, size=2)
        tilt = rng.uniform(0.0, 0.01, size=2)
        axis_a = rotate_toward(-n, unit_vector(rng), tilt[0])
        axis_b = rotate_toward(n, unit_vector(rng), tilt[1])
        try:
            a = BallCone(BallPoint((h - eps[0]) * n),
                         Cap(SphereDirection.normalized(axis_a),
                             math.pi - math.acos(h) - gap[0]))
            b = BallCone(BallPoint((h + eps[1]) * n),
                         Cap(SphereDirection.normalized(axis_b),
                             math.acos(h) - gap[1]))
            if disjoint(a, b).disjoint:
                return a, b
        except (ValueError, DegenerateGeometry):
            continue


def assert_path_valid(path, start, goal):
    assert path.nodes[0] is start or cone_leq(path.nodes[0], start).holds
    assert len(path.witnesses) == len(path.nodes) - 1
    for i, w in enumerate(path.witnesses):
        assert cone_leq(w, path.nodes[i]).holds
        assert cone_leq(w, path.nodes[i + 1]).holds


def same_cone(a, b):
    return (np.array_equal(a.apex.v, b.apex.v)
            and np.array_equal(a.base.axis.v, b.base.axis.v)
            and a.base.half_angle == b.base.half_angle)


class TestFunnelIn:
    def test_chain_decreases_and_clears_probe(self, shell):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cone = random_cone(rng, psi_max=0.8)
            probe = Hyperball(shell, BallPoint(0.4 * unit_vector(rng)), 0.4)
            funnel = funnel_in(cone, 4, probe)
            assert len(funnel.cones) == 4
            assert cone_leq(funnel.cones[0], cone).holds
            for a, b in zip(funnel.cones[1:], funnel.cones):
                assert cone_leq(a, b).holds
            assert cone_hyperball_disjoint(funnel.cones[-1], probe).disjoint

    def test_depth_must_be_positive(self, shell):
        probe = Hyperball(shell, BallPoint(np.zeros(3)), 0.3)
        with pytest.raises(ValueError):
            funnel_in(axis_cone(), 0, probe)


class TestSteerTarget:
    def test_farthest_base_circle_point(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            cone = random_cone(rng)
            q = rng.uniform(0.0, 0.9) * unit_vector(rng)
            p = constructions._steer_target(cone, q)
            n, psi = cone.base.axis.v, cone.base.half_angle
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-14
            assert abs(float(p @ n) - math.cos(psi)) <= 1e-14
            ring = cone.base.boundary_points(4096)
            best = float(np.max(np.linalg.norm(ring - q, axis=1)))
            assert np.linalg.norm(p - q) >= best - 1e-14

    def test_on_axis_point_takes_the_frame_direction(self):
        cone = axis_cone(psi=0.7, apex_z=-0.2)
        p = constructions._steer_target(cone, np.array([0.0, 0.0, 0.4]))
        e1, _ = orthonormal_frame(Z)
        np.testing.assert_allclose(p, math.cos(0.7) * Z + math.sin(0.7) * e1,
                                   rtol=0, atol=1e-15)


def cap_scan(cone, rng, n=20_000):
    """The apex, the base circle and n directions inside the cap: points
    of the cone's closed hull that hold x.m near its largest value for
    every unit m."""
    n_axis, psi = cone.base.axis.v, cone.base.half_angle
    e1, e2 = orthonormal_frame(n_axis)
    z = rng.uniform(math.cos(psi), 1.0, n)[:, None]
    phi = rng.uniform(0.0, 2.0 * math.pi, n)[:, None]
    inside = z * n_axis + np.sqrt(1.0 - z * z) * (np.cos(phi) * e1
                                                  + np.sin(phi) * e2)
    return np.vstack([cone.apex.v, cone.base.boundary_points(4096), inside])


def assert_midway(cone, floor, atol=1e-15):
    """The apex sits on the axis, midway between the floor and the highest
    apex _cap_fits admits."""
    n, psi = cone.base.axis.v, cone.base.half_angle
    mid = 0.5 * (floor + math.cos(psi) - constructions._CLEARANCE)
    np.testing.assert_allclose(cone.apex.v, mid * n, rtol=0, atol=atol)


def separated_pairs(rng, count):
    """Cone pairs whose caps lie more than 1e-4 apart."""
    pairs = []
    while len(pairs) < count:
        a, b = random_cone(rng), random_cone(rng)
        gap = (angle_between(a.base.axis.v, b.base.axis.v)
               - a.base.half_angle - b.base.half_angle)
        if gap > 1e-4:
            pairs.append((a, b))
    return pairs


def wide_shell_cases(rng, count):
    """Cones with caps up to 1.4 and apexes out to 0.9, on shells sigma and
    tau with sigma/tau from 0.3 to 3."""
    for _ in range(count):
        tau = rng.uniform(0.5, 2.0)
        sigma = tau * math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        yield (random_cone(rng, psi_min=0.1, psi_max=1.4, apex_r=0.9),
               sigma, tau)


def _reference_spheroid(center, radius, tau):
    """convex.hyperball_ellipsoid's closed form in plain floats, with |c|
    by hypot."""
    r0 = math.tanh(radius / tau)
    a = math.hypot(*center)
    if a == 0.0:
        return [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], r0, r0
    ch = 1.0 / math.sqrt(1.0 - a * a)
    sh = a * ch
    d = 1.0 / (ch * ch - sh * sh * r0 * r0)
    axis = [c / a for c in center]
    e_center = sh * ch * (1.0 - r0 * r0) * d
    return [e_center * c for c in axis], axis, r0 * d, r0 * math.sqrt(d)


class TestAxialWitnesses:
    def test_spheroid_is_the_oracle_bit_for_bit(self):
        # bit for bit with the float closed form; within 8 ulps of the
        # numpy oracle, whose |c| is numpy's norm (6 ulps seen here)
        rng = np.random.default_rng(41)
        dirs = rng.standard_normal((20_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for i in range(300):
            tau = rng.uniform(0.5, 2.0)
            center = (0.0 if i == 0 else rng.uniform(0.0, 0.9)) * \
                unit_vector(rng)
            ball = Hyperball(Hyperboloid(tau), BallPoint(center),
                             rng.uniform(0.05, 1.5) * tau)
            got = constructions._spheroid(ball)
            want = _reference_spheroid(ball.center.v.tolist(), ball.radius,
                                       tau)
            assert struct.pack("8d", *got[0], *got[1], *got[2:]) == \
                struct.pack("8d", *want[0], *want[1], *want[2:])
            mid, axis, along, across = got
            ell = hyperball_ellipsoid(ball.center.v, ball.radius, tau)
            for g, w in ((mid, ell.center), (axis, ell.axis),
                         (along, ell.a_par), (across, ell.a_perp)):
                np.testing.assert_array_max_ulp(np.array(g), w, maxulp=8)
            m = unit_vector(rng)
            scan = float(np.max(ell.boundary_points(dirs) @ m))
            support = constructions._ball_support(ball, m)
            assert scan <= support + 1e-15
            assert support <= scan + 1e-3

    def test_hull_support_bounds_a_dense_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cone = random_cone(rng, psi_min=0.05, psi_max=1.5, apex_r=0.9)
            m = unit_vector(rng)
            scan = float(np.max(cap_scan(cone, rng) @ m))
            support = constructions._hull_support(cone, m)
            assert scan <= support + 1e-15
            assert support <= scan + 1e-3

    def test_apex_is_midway_between_floor_and_ceiling(self, shell):
        rng = np.random.default_rng(43)
        c = constructions
        for _ in range(40):
            cone = random_cone(rng)
            probe = Hyperball(shell, BallPoint(
                rng.uniform(0.0, 0.55) * unit_vector(rng)),
                rng.uniform(0.15, 0.5))
            depth = int(rng.integers(1, 8))
            members = funnel_in(cone, depth, probe).cones
            m = members[0].base.axis.v
            entry = c._line_entry(cone, m.tolist())
            top = max(entry, c._ball_support(probe, m))
            for i, member in enumerate(members, start=1):
                t = i / depth
                assert_midway(member, (1.0 - t) * entry + t * top)
                assert np.array_equal(member.base.axis.v, m)
            assert same_cone(avoid_ball_inside(probe, cone), members[-1])
        for a, b in separated_pairs(rng, 40):
            sub = shrink_for_connectivity(a, b)
            n = a.base.axis.v
            assert_midway(sub, max(c._line_entry(a, n.tolist()),
                                   c._hull_support(b, n)))
        for _ in range(40):
            a, b = disjoint_cone_pair(rng)
            w = common_complement_cone(a, b)
            m = w.base.axis.v
            assert_midway(w, max(c._hull_support(a, m),
                                 c._hull_support(b, m)))
        for cone, sigma, tau in wide_shell_cases(rng, 40):
            core = shrink_across_shells(cone, sigma, tau)
            *frame, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
            sinh_s = math.sinh(shadow_radius(sigma, tau) / tau + 0.05) \
                / math.sin(0.5 * psi)
            alpha = min(0.5 * psi, 0.9 * math.acos(math.tanh(
                math.asinh(sinh_s))))
            seen = np.array(_act(frame, core.apex.v.tolist()))
            mid = 0.5 * (math.tanh(math.asinh(sinh_s)) + math.cos(alpha)
                         - c._CLEARANCE)
            np.testing.assert_allclose(seen, mid * np.array([nx, ny, nz]),
                                       rtol=0, atol=1e-9)

    def test_funnels_certify_at_depths_one_to_seven(self, shell):
        rng = np.random.default_rng(44)
        for _ in range(30):
            cone = random_cone(rng)
            probe = Hyperball(shell, BallPoint(
                rng.uniform(0.0, 0.55) * unit_vector(rng)),
                rng.uniform(0.15, 0.5))
            ell = hyperball_ellipsoid(probe.center.v, probe.radius, 1.0)
            for depth in range(1, 8):
                chain = (cone,) + funnel_in(cone, depth, probe).cones
                assert len(chain) == depth + 1
                # no member repeats: caps narrow and apexes rise strictly
                for a, b in zip(chain[1:], chain[2:]):
                    assert b.base.half_angle < a.base.half_angle
                    assert (float(b.apex.v @ b.base.axis.v)
                            > float(a.apex.v @ a.base.axis.v))
                for outer, inner in zip(chain, chain[1:]):
                    assert cone_leq(inner, outer).holds
                    pts = inner.sample_points(300, rng)
                    assert np.all(outer.contains_many(pts, slack=1e-9,
                                                      closed=True))
                assert cone_hyperball_disjoint(chain[-1], probe).disjoint
                pts = chain[-1].sample_points(300, rng)
                assert not np.any(ell.contains(pts, -1e-12))

    def test_avoiding_balls_inside_the_cone_certifies(self, shell):
        rng = np.random.default_rng(45)
        for _ in range(200):
            cone = random_cone(rng)
            ball = Hyperball(shell, BallPoint(cone.sample_points(1, rng)[0]),
                             rng.uniform(0.1, 0.25))
            sub = avoid_ball_inside(ball, cone)
            assert cone_leq(sub, cone).holds
            assert cone_hyperball_disjoint(sub, ball).disjoint
            ell = hyperball_ellipsoid(ball.center.v, ball.radius, 1.0)
            assert not np.any(ell.contains(sub.sample_points(300, rng),
                                           -1e-12))

    def test_separated_caps_certify(self):
        rng = np.random.default_rng(46)
        for a, b in separated_pairs(rng, 300):
            sub = shrink_for_connectivity(a, b)
            assert cone_leq(sub, a).holds
            assert disjoint(sub, b).disjoint
            assert_sampled_disjoint(sub, b, rng, n=300)

    def test_wide_cores_clear_the_boundary_by_a_twentieth(self):
        # every core point lies tau asinh(sinh s sin(psi'/2)) = R + tau/20
        # or farther from the source boundary
        rng = np.random.default_rng(47)
        for cone, sigma, tau in wide_shell_cases(rng, 150):
            core = shrink_across_shells(cone, sigma, tau)
            assert cone_leq(core, cone).holds
            radius = shadow_radius(sigma, tau)
            for p in core.sample_points(60, rng):
                gap, inside = _frame_clearance(cone, p.tolist(), tau)
                assert inside and gap >= radius + 0.05 * tau - 1e-9


class TestFunnelFromExhaustion:
    def test_opposites_decrease_and_avoid_sources(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cones = exhaustion_family(rng)
            funnel = funnel_from_exhaustion(cones)
            assert len(funnel.cones) == len(cones)
            for a, b in zip(funnel.cones[1:], funnel.cones):
                assert cone_leq(a, b).holds
            for opp, src in zip(funnel.cones, cones):
                assert disjoint(opp, src).disjoint

    def test_widening_opposite_is_clipped_into_predecessor(self):
        # an increasing pair whose raw opposite caps widen, 0.3222 then
        # 0.3258 rad, so the second opposite alone is not below the first
        cones = [axis_cone(math.radians(27.4), -0.2),
                 axis_cone(math.radians(52.5), -0.5)]
        assert cone_leq(cones[0], cones[1]).holds
        raw = [opposite(c) for c in cones]
        assert not cone_leq(raw[1], raw[0]).holds
        funnel = funnel_from_exhaustion(cones)
        assert len(funnel.cones) == 2
        assert cone_leq(funnel.cones[1], funnel.cones[0]).holds
        assert cone_leq(funnel.cones[1], raw[1]).holds
        for member, src in zip(funnel.cones, cones):
            assert disjoint(member, src).disjoint

    def test_non_increasing_input_rejected(self):
        big = axis_cone(0.8, -0.2)
        small = axis_cone(0.3, 0.0)
        with pytest.raises(ValueError):
            funnel_from_exhaustion([big, small])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            funnel_from_exhaustion([])


class TestAvoidBallInside:
    def test_witness_is_subcone_clear_of_ball(self, shell):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cone = random_cone(rng, psi_max=0.9)
            ball = Hyperball(shell, BallPoint(0.45 * unit_vector(rng)), 0.35)
            sub = avoid_ball_inside(ball, cone)
            assert cone_leq(sub, cone).holds
            assert cone_hyperball_disjoint(sub, ball).disjoint


class TestWrapBallInComplement:
    def test_witness_swallows_ball_and_misses_cone(self, shell):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cone = random_cone(rng, psi_max=0.7)
            ball = ball_disjoint_from_cone(rng, cone, shell)
            wrap = wrap_ball_in_complement(ball, cone)
            assert hyperball_in_cone(ball, wrap).holds
            assert disjoint(wrap, cone).disjoint

    def test_margin_is_the_closed_form_of_the_apex_frame(self, shell):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cone = random_cone(rng, psi_max=0.7)
            ball = ball_disjoint_from_cone(rng, cone, shell,
                                           radius=rng.uniform(0.05, 0.3))
            wrap = wrap_ball_in_complement(ball, cone)
            sep = cone_hyperball_disjoint(cone, ball)
            apex, cap, r, reach = matrix_boost_wrap(ball, cone)
            assert np.max(np.abs(wrap.apex.v - apex)) <= 1e-12
            assert np.max(np.abs(wrap.base.axis.v - cap.axis.v)) <= 1e-12
            assert abs(wrap.base.half_angle - cap.half_angle) <= 1e-12
            # the apex is the foot on the plane, (D + R)/2 from the centre
            w, c = sep.plane
            assert abs(float(w @ wrap.apex.v) - c) <= 1e-12
            to_cone = sep.margin + 2.0 * ball.radius
            assert abs(ball_distance(wrap.apex, ball.center, shell)
                       - 0.5 * to_cone) <= 1e-12
            half = wrap.apex_frame[1].half_angle
            assert abs(half - 0.5 * (reach + 0.5 * math.pi)) <= 1e-12
            margin = hyperball_in_cone(ball, wrap).margin
            closed = shell.tau * math.asinh(math.sinh(r) * math.sin(half))
            assert abs(margin - (closed - ball.radius)) <= 1e-12
            # the wrap stays in the open hemisphere on the ball's side
            assert (disjoint(wrap, cone).margin
                    >= 0.5 * (0.5 * math.pi - reach) - 1e-12)

    def test_near_contact_balls_are_wrapped(self, shell):
        """Ball centres outside wide, deep cones at clearance D, radius
        R = D - g for g log-uniform in [1e-8, D/2]: every input that
        cone_hyperball_disjoint certifies is wrapped, and the wrap passes
        the acceptance checkers."""
        rng = np.random.default_rng(11)
        made = 0
        while made < 300:
            cone = random_cone(rng, psi_max=1.4, apex_r=0.95)
            center = rng.uniform(0.0, 0.95) * unit_vector(rng)
            dist, inside = _frame_clearance(cone, center.tolist(), shell.tau)
            if inside or dist <= 2e-8:
                continue
            gap = math.exp(rng.uniform(math.log(1e-8), math.log(0.5 * dist)))
            ball = Hyperball(shell, BallPoint(center), dist - gap)
            try:
                if not cone_hyperball_disjoint(cone, ball).disjoint:
                    continue
            except DegenerateGeometry:
                continue
            made += 1
            wrap = wrap_ball_in_complement(ball, cone)
            certify_ball_inside(ball, wrap, rng, n=1_000)
            certify_disjoint(wrap, cone, rng, n=1_000)

    def test_failure_names_the_clearance_it_was_given(self, shell):
        cone = axis_cone(psi=0.5)
        center = np.array([0.3, 0.0, -0.4])
        dist, inside = _frame_clearance(cone, center.tolist(), shell.tau)
        assert not inside
        ball = Hyperball(shell, BallPoint(center), dist - 2e-9)
        assert cone_hyperball_disjoint(cone, ball).disjoint
        with pytest.raises(ConstructionFailure,
                           match=r"clears the cone by only 2e-09; the "
                                 r"wrap's margins fall inside the window"):
            wrap_ball_in_complement(ball, cone)

    def test_transported_witness_stays_valid(self, shell):
        rng = np.random.default_rng(4)
        cone = random_cone(rng, psi_max=0.6)
        ball = ball_disjoint_from_cone(rng, cone, shell)
        wrap = wrap_ball_in_complement(ball, cone)
        for _ in range(5):
            g = random_transform(rng, max_rapidity=0.5)
            g_wrap = map_cone(g, wrap)
            g_cone = map_cone(g, cone)
            assert disjoint(g_wrap, g_cone).disjoint


class TestPaths:
    def test_direct_path_between_random_cones(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_cone(rng)
            b = random_cone(rng)
            path = path_connect(a, b)
            assert_path_valid(path, a, b)
            assert path.nodes[0] is a and path.nodes[-1] is b

    def test_identity_path_has_single_node(self):
        a = axis_cone()
        path = path_connect(a, a)
        assert len(path.nodes) == 1 and not path.witnesses

    def test_cones_apart_by_a_relative_1e_5_are_not_the_same(self):
        # apexes 4e-6 apart, within numpy's default rtol of 1e-5: the path
        # must still end at b, not stop at a one-node path
        a = BallCone(BallPoint(np.array([0.5, 0.0, 0.0])),
                     Cap(SphereDirection(Z), 0.5))
        b = BallCone(BallPoint(np.array([0.500004, 0.0, 0.0])),
                     Cap(SphereDirection(Z), 0.5))
        path = path_connect(a, b)
        assert_path_valid(path, a, b)
        assert path.nodes[-1] is b or cone_leq(b, path.nodes[-1]).holds

    def test_antipodal_cones_are_connected(self):
        a = axis_cone(0.5, 0.1)
        b = BallCone(BallPoint(np.array([0.0, 0.0, -0.1])),
                     Cap(SphereDirection(-Z), 0.5))
        path = path_connect(a, b)
        assert_path_valid(path, a, b)

    def test_path_avoiding_forbidden_cone(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            forbidden = random_cone(rng, psi_max=0.5, apex_r=0.4)
            def clear_cone():
                while True:
                    c = random_cone(rng, psi_max=0.5)
                    if disjoint(forbidden, c).disjoint:
                        return c
            a, b = clear_cone(), clear_cone()
            path = path_connect_in_complement(forbidden, a, b)
            assert_path_valid(path, a, b)
            for node in path.nodes:
                assert disjoint(node, forbidden).disjoint

    def test_each_certificate_is_decided_once(self, monkeypatch):
        # A5 and A6 put no question to disjoint or cone_leq twice on the
        # same two cone objects, and no two adjacent nodes are equal
        asked, paths = [], []

        def counted(name, predicate):
            def wrapper(a, b):
                asked.append((name, a, b))
                return predicate(a, b)
            return wrapper

        monkeypatch.setattr(constructions, "disjoint",
                            counted("disjoint", disjoint))
        monkeypatch.setattr(constructions, "cone_leq",
                            counted("cone_leq", cone_leq))
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = random_cone(rng), random_cone(rng)
            paths.append(path_connect(a, b))
        for _ in range(5):
            forbidden = random_cone(rng, psi_max=0.5, apex_r=0.4)
            ends = []
            while len(ends) < 2:
                c = random_cone(rng, psi_max=0.5)
                if disjoint(forbidden, c).disjoint:
                    ends.append(c)
            paths.append(path_connect_in_complement(forbidden, *ends))
        # the list keeps every cone alive, so no id is reused
        keys = [(name, id(a), id(b)) for name, a, b in asked]
        assert len(keys) > 100
        assert len(set(keys)) == len(keys)

        def value(cone):
            return (cone.apex.v.tobytes(), cone.base.axis.v.tobytes(),
                    struct.pack("d", cone.base.half_angle))

        for path in paths:
            for a, b in zip(path.nodes, path.nodes[1:]):
                assert value(a) != value(b)

    def test_witnesses_hold_still_when_the_lens_axis_moves_one_ulp(
            self, monkeypatch):
        # a common subcone is floored where the line along its lens axis
        # enters each node (cones._line_entry). Route nodes have their
        # apex on their axis, so the line often passes through an apex;
        # there a double root found to the square root of the rounding
        # moved these witnesses by up to 1.5e-8
        runs = benchmark_instances("A6", 300, 123)
        before = [[w.apex.v for w in run().witnesses] for run in runs]
        lens = constructions._lens_cap

        def nudged(a, b):
            found = lens(a, b)
            if found is None:
                return None
            (x, y, z), mu = found
            return (math.nextafter(x, math.inf), y, z), mu

        monkeypatch.setattr(constructions, "_lens_cap", nudged)
        after = [[w.apex.v for w in run().witnesses] for run in runs]
        assert sum(map(len, before)) > 1000
        for old, new in zip(before, after):
            assert len(old) == len(new)
            for p, q in zip(old, new):
                assert float(np.max(np.abs(p - q))) <= 1e-12

    def test_route_is_one_pass_of_certified_thin_nodes(self, monkeypatch):
        # every node and witness is asked once, forbidden cone first, and
        # each node's width is its share of the gap to the forbidden cap
        asked = []

        def counted(a, b):
            asked.append((a, b))
            return disjoint(a, b)

        monkeypatch.setattr(constructions, "disjoint", counted)
        rng = np.random.default_rng(17)
        for _ in range(10):
            forbidden = random_cone(rng, psi_max=0.5, apex_r=0.4)
            ends = []
            while len(ends) < 2:
                c = random_cone(rng, psi_max=0.5)
                if disjoint(forbidden, c).disjoint:
                    ends.append(c)
            asked.clear()
            path = path_connect_in_complement(forbidden, *ends)
            thin = path.nodes[1:-1]
            assert len(asked) == 2 + len(thin) + len(path.witnesses)
            assert all(a is forbidden for a, _ in asked)
            pole, psi_f = forbidden.base.axis.v, forbidden.base.half_angle
            assert np.linalg.norm(forbidden.apex.v) <= 0.4
            for node in thin:
                lat = angle_between(node.base.axis.v, pole)
                w = node.base.half_angle
                assert w == pytest.approx(min(0.7 * (lat - psi_f), 0.6),
                                          abs=1e-9)
                height = float(node.apex.v @ node.base.axis.v)
                assert height == pytest.approx(math.cos(w) - 0.03, abs=1e-12)

    def test_route_clears_a_forbidden_apex_near_the_sphere(self):
        # a forbidden cone reaching across the ball, its apex 0.9 or 0.97
        # out: nodes of the 0.6 ceiling would dip below its apex
        rng = np.random.default_rng(77)
        for reach in (0.9, 0.97):
            made = 0
            while made < 40:
                n = unit_vector(rng)
                forbidden = BallCone(
                    BallPoint(-reach * n + 0.02 * unit_vector(rng)),
                    Cap(SphereDirection(n), rng.uniform(0.2, 0.5)))
                a = random_cone(rng, psi_max=0.5)
                b = random_cone(rng, psi_max=0.5)
                if not (disjoint(forbidden, a).disjoint
                        and disjoint(forbidden, b).disjoint):
                    continue
                made += 1
                path = path_connect_in_complement(forbidden, a, b)
                assert_path_valid(path, a, b)
                apex = float(np.linalg.norm(forbidden.apex.v))
                for node in path.nodes[1:-1]:
                    assert float(node.apex.v @ node.base.axis.v) > apex

    def test_endpoint_overlapping_forbidden_rejected(self):
        forbidden = axis_cone(0.6, -0.1)
        inside = axis_cone(0.3, 0.2)
        clear = BallCone(BallPoint(np.array([0.0, 0.0, -0.2])),
                         Cap(SphereDirection(-Z), 0.4))
        with pytest.raises(ValueError):
            path_connect_in_complement(forbidden, inside, clear)


def _thin_cone(direction, half_angle: float, depth: float):
    """Cone with near-sphere apex (1-depth)*direction and cap around the
    direction; None when the parameters cannot define a cone. The A6
    route node before it became an axial cone."""
    if depth >= 1.0 or not _cap_fits(half_angle, 1.0 - depth):
        return None
    d = [float(a) for a in direction]
    return _cone([(1.0 - depth) * a for a in d], unit(d), half_angle)


def _ladder_subcone(a, b):
    """The common subcone as found before the closed-form depth: the
    direction m and clearance mu of _common_subcone, then ten fixed apex
    depths. The reference; returns the witness (or None), m and mu."""
    gamma = angle_between(a.base.axis.v, b.base.axis.v)
    psi_a, psi_b = a.base.half_angle, b.base.half_angle
    if gamma < 1e-12:
        m, mu = a.base.axis.v, min(psi_a, psi_b)
    else:
        t = float(np.clip((psi_a - psi_b + gamma) / (2.0 * gamma), 0.0, 1.0))
        m = slerp(a.base.axis.v, b.base.axis.v, t)
        mu = min(psi_a - angle_between(m, a.base.axis.v),
                 psi_b - angle_between(m, b.base.axis.v))
    if mu <= 1e-6:
        return None, m, mu
    for depth in (0.05, 0.02, 0.01, 0.005, 0.002,
                  0.1, 0.2, 0.35, 0.5, 0.7):
        witness = _thin_cone(m, 0.6 * mu, depth)
        if witness is None:
            continue
        p = witness.apex.v.tolist()
        if (a.margin(p) >= -DEFAULT_TOLERANCES.degenerate_window
                and b.margin(p) >= -DEFAULT_TOLERANCES.degenerate_window
                and cone_leq(witness, a) and cone_leq(witness, b)):
            return witness, m, mu
    return None, m, mu


def _subcone_pairs(rng):
    """Random pairs; neighbouring thin near-sphere cones as on an A6 route,
    with apexes from 1e-4 to 0.05 below their base planes; flat cones with
    apexes near their base planes, off the axis; and the adjacent nodes of
    A5 paths."""
    for _ in range(300):
        yield random_cone(rng), random_cone(rng)
    for _ in range(300):
        ax = unit_vector(rng)
        w = rng.uniform(0.02, 0.6, size=2)
        bx = rotate_toward(ax, unit_vector(rng),
                           rng.uniform(0.2, 1.3) * min(w))
        below = np.exp(rng.uniform(math.log(1e-4), math.log(0.05), size=2))
        yield tuple(BallCone(BallPoint((math.cos(wi) - d) * x),
                             Cap(SphereDirection.normalized(x), wi))
                    for x, wi, d in zip((ax, bx), w, below))
    for _ in range(300):
        cones = []
        axis = unit_vector(rng)
        for _ in range(2):
            psi = rng.uniform(0.1, 1.2)
            side = unit_vector(rng)
            side -= float(side @ axis) * axis
            side /= np.linalg.norm(side)
            h = math.cos(psi) * rng.uniform(0.9, 0.99999)
            off = rng.uniform(0.0, 0.5) * math.sqrt(1.0 - h * h)
            cones.append(BallCone(BallPoint(h * axis + off * side),
                                  Cap(SphereDirection(axis), psi)))
            axis = SphereDirection.normalized(rotate_toward(
                axis, unit_vector(rng), rng.uniform(0.0, 2.0 * psi))).v
        yield tuple(cones)
    for _ in range(20):
        path = path_connect(random_cone(rng), random_cone(rng))
        yield from zip(path.nodes, path.nodes[1:])


class TestCommonSubcone:
    def test_closed_form_depth_finds_every_ladder_witness(self):
        rng = np.random.default_rng(23)
        found = ladder_found = scanned = 0
        for a, b in _subcone_pairs(rng):
            witness = constructions._common_subcone(a, b)
            reference, m, mu = _ladder_subcone(a, b)
            if reference is not None:
                ladder_found += 1
                assert witness is not None
            if witness is not None:
                found += 1
                assert cone_leq(witness, a).holds
                assert cone_leq(witness, b).holds
                continue
            # a None is confirmed by a dense scan of apex depths about m
            if scanned < 40:
                scanned += 1
                for psi in (1e-4, 1e-3, 1e-2, 0.6 * mu):
                    if psi <= 0.0:
                        continue
                    for r in np.linspace(-0.999, 0.999, 801):
                        if r >= math.cos(psi) - 1e-9:
                            break
                        probe = BallCone(BallPoint(r * m),
                                         Cap(SphereDirection.normalized(m),
                                             psi))
                        assert not (cone_leq(probe, a) and cone_leq(probe, b))
        assert ladder_found > 600 and found > ladder_found and scanned > 20

    def test_none_only_where_the_caps_barely_overlap(self):
        # the base disc at height cos psi lies in the closed hull, so the
        # ray along m enters each cone by r = cos psi / cos(psi - mu), and
        # that is below cos(0.6 mu): the depth interval is never empty
        rng = np.random.default_rng(29)
        for a, b in _subcone_pairs(rng):
            _, _, mu = _ladder_subcone(a, b)
            if mu > 1e-6:
                assert constructions._common_subcone(a, b) is not None


class TestBlendCone:
    def test_blend_above_its_base_plane_moves_below_it(self):
        # crosswise apexes: each cone's apex lies off its axis, near the
        # other's axis, so the halfway blend sits above its base plane
        rng = np.random.default_rng(31)
        x = np.array([1.0, 0.0, 0.0])
        moved = 0
        for _ in range(100):
            psi_a, psi_b = rng.uniform(1.0, 1.45), rng.uniform(0.1, 0.4)
            a = BallCone(BallPoint(np.array(
                [0.85, 0.0, math.cos(psi_a) - 0.02])), Cap(SphereDirection(Z),
                                                          psi_a))
            b = BallCone(BallPoint(np.array(
                [0.1, rng.uniform(-0.1, 0.1), 0.85])), Cap(SphereDirection(x),
                                                          psi_b))
            axis = slerp(Z, x, 0.5)
            blended = 0.5 * (a.apex.v + b.apex.v)
            psi = 0.5 * (psi_a + psi_b)
            mid = constructions._blend_cone(a, b, 0.5)
            assert mid.base.half_angle == psi
            assert np.array_equal(mid.base.axis.v,
                                  SphereDirection.normalized(axis).v)
            if float(axis @ blended) >= math.cos(psi) - 1e-9:
                moved += 1
                # on the segment toward the axis point (cos psi - 1)/2
                h = 0.5 * (math.cos(psi) - 1.0)
                step = h * axis - blended
                lam = float((mid.apex.v - blended) @ step) / float(
                    step @ step)
                assert 0.0 < lam < 1.0
                assert np.allclose(mid.apex.v, blended + lam * step,
                                   atol=1e-14)
                height = float(mid.apex.v @ axis)
                top = math.cos(psi)
                assert height == pytest.approx(top - 0.2 * (top - h),
                                               abs=1e-12)
            else:
                assert np.array_equal(mid.apex.v, blended)
            assert_path_valid(path_connect(a, b), a, b)
        assert moved > 30


class TestShrinkForConnectivity:
    def test_separated_caps_give_disjoint_witness(self):
        a = axis_cone(0.3, 0.1)
        x = np.array([1.0, 0.0, 0.0])
        b = BallCone(BallPoint(0.1 * x), Cap(SphereDirection(x), 0.3))
        sub = shrink_for_connectivity(a, b)
        assert cone_leq(sub, a).holds
        assert disjoint(sub, b).disjoint

    def test_overlapping_caps_give_common_subcone(self):
        a = axis_cone(0.6, 0.0)
        tilted = SphereDirection.normalized(np.array([0.4, 0.0, 0.9]))
        b = BallCone(BallPoint(np.zeros(3)), Cap(tilted, 0.6))
        sub = shrink_for_connectivity(a, b)
        assert cone_leq(sub, a).holds
        assert cone_leq(sub, b).holds

    def test_tangent_caps_raise_degenerate(self):
        gamma = 0.8
        a = axis_cone(0.4, 0.0)
        axis_b = np.array([math.sin(gamma), 0.0, math.cos(gamma)])
        b = BallCone(BallPoint(np.zeros(3)),
                     Cap(SphereDirection(axis_b), 0.4))
        with pytest.raises(DegenerateGeometry):
            shrink_for_connectivity(a, b)


class TestCommonComplement:
    def test_witness_clears_both_cones(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = disjoint_cone_pair(rng)
            c = common_complement_cone(a, b)
            assert disjoint(c, a).disjoint
            assert disjoint(c, b).disjoint

    def test_nearly_covering_caps_leave_a_complement(self):
        unit = lambda *v: SphereDirection.normalized(np.array(v))  # noqa
        a = BallCone(BallPoint(np.array([-0.004426784652320018,
                                         -0.0058428819523150596,
                                         0.26627618494882965])),
                     Cap(unit(0.016618490042534236, 0.021934628216749165,
                              -0.9996212772213781), 1.8401133087811627))
        b = BallCone(BallPoint(np.array([-0.004373771901220138,
                                         -0.00598532755756219,
                                         0.2681659154812893])),
                     Cap(unit(-0.016303718870302866, -0.022310970953457354,
                              0.9996181317513765), 1.2988857313462037))
        assert disjoint(a, b).disjoint
        c = common_complement_cone(a, b)
        rng = np.random.default_rng(9)
        for cone in (a, b):
            assert disjoint(c, cone).disjoint
            assert_sampled_disjoint(c, cone, rng, n=10_000)

    def test_nearly_covering_family(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = near_covering_pair(rng)
            c = common_complement_cone(a, b)
            for cone in (a, b):
                assert disjoint(c, cone).disjoint
                assert_sampled_disjoint(c, cone, rng, n=400)

    def test_clearest_direction_is_the_max_min(self):
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((4096, 3))
        grid /= np.linalg.norm(grid, axis=1)[:, None]
        for _ in range(10_000):
            caps = [(unit_vector(rng).tolist(),
                     rng.uniform(0.01, math.pi - 0.01)) for _ in range(2)]
            m, clear = constructions._clearest_direction(*caps)
            at_m = min(angle_between(m, n) - psi for n, psi in caps)
            assert abs(at_m - clear) <= 1e-12
            ang = np.arccos(np.clip(grid @ np.array([n for n, _ in caps]).T,
                                    -1.0, 1.0))
            brute = float(np.max(np.min(
                ang - np.array([psi for _, psi in caps]), axis=1)))
            assert brute <= clear + 1e-12

    def test_transported_witness_stays_valid(self):
        rng = np.random.default_rng(8)
        a, b = disjoint_cone_pair(rng)
        c = common_complement_cone(a, b)
        for _ in range(5):
            g = random_transform(rng, max_rapidity=0.5)
            assert disjoint(map_cone(g, c), map_cone(g, a)).disjoint
            assert disjoint(map_cone(g, c), map_cone(g, b)).disjoint


class TestShadowOperations:
    def test_enclosure_contains_dilated_region(self):
        rng = np.random.default_rng(9)
        sigma, tau = 1.0, 1.4
        growth = shadow_radius(sigma, tau) / tau
        shell = Hyperboloid(tau)
        for _ in range(5):
            cone = random_cone(rng, psi_max=0.7)
            grown = enclose_shadow(cone, sigma, tau)
            pts = cone.sample_points(200, rng)
            keep = cone.interior_margins(pts) > 1e-6
            for p in pts[keep][:60]:
                ball = Hyperball(shell, BallPoint(p), growth)
                res = hyperball_in_cone(ball, grown)
                assert res.holds

    def test_enclosure_holds_the_shadow_of_every_source_point(self):
        # drawn like the acceptance suite's A9 instances; checking only the
        # hull samples of least cos-margin let this enclosure miss part of
        # the shadow by 0.02 in the shell metric
        cone = BallCone(
            BallPoint(np.array([-0.2132798859662888, 0.3649801765220891,
                                -0.0009778997748470122])),
            Cap(SphereDirection.normalized(
                [-0.8591210224531539, 0.5116551166147152,
                 -0.01095948999860914]), 0.7401522848049469))
        sigma, tau = 0.7403318013118344, 1.1912258101186652
        grown = enclose_shadow(cone, sigma, tau)
        radius = shadow_radius(sigma, tau)
        rng = np.random.default_rng(11)
        pts = np.vstack([cone.sample_points(2000, rng),
                         cone.lateral_points(64, np.linspace(0.0, 0.999,
                                                             40))])
        for p in pts:
            center = BallPoint(p)
            assert contains_point(grown, center)
            assert _frame_clearance(grown, center.v.tolist(), tau)[0] > radius

    # (apex, axis, half-angle, sigma, tau) of five instances drawn like the
    # benchmark's A9 instances, on which an enclosure certified at sampled
    # source points missed part of the shadow by 0.001 to 0.006
    SAMPLED_MISSES = [
        ([-0.06650971986767573, -0.015054556263048175, 0.013214162983971434],
         [-0.4464848046393396, 0.886575266663972, -0.1209777490527807],
         0.6572121188745316, 1.4129095653312334, 1.2231537236589192),
        ([0.01020632794211386, -0.16205091030254343, 0.5351535337487161],
         [-0.19600907603741294, -0.6166062925564392, 0.7624808994924154],
         0.9794958483675155, 0.5653870525928975, 0.790921488173938),
        ([-0.05796291856522845, -0.019176091351964877, 0.14640160680068817],
         [0.3211210821243441, 0.283081307626063, -0.9037401307278594],
         0.6413274674702868, 0.5179592546528471, 0.5972885415478593),
        ([0.06439115566494164, 0.017071895101638312, -0.05261000401226171],
         [0.6950384023386149, -0.6731276354665191, 0.25262780061948553],
         0.9196414067389281, 0.8510773260891638, 1.1680667825256592),
        ([0.02327143531289801, 0.07657014674356474, -0.019123856445045568],
         [0.8659176064414775, -0.48656247561943805, 0.11594678164462406],
         0.793556933824815, 1.6603826804297541, 1.0838541999464923),
    ]

    @pytest.mark.parametrize("apex, axis, psi, sigma, tau", SAMPLED_MISSES)
    def test_enclosure_holds_the_shadow_between_hull_samples(
            self, apex, axis, psi, sigma, tau):
        cone = BallCone(BallPoint(np.array(apex)),
                        Cap(SphereDirection.normalized(axis), psi))
        grown = enclose_shadow(cone, sigma, tau)
        radius = shadow_radius(sigma, tau)
        rng = np.random.default_rng(11)
        pts = np.vstack([cone.sample_points(2000, rng),
                         cone.lateral_points(64, np.linspace(0.0, 0.999,
                                                             40))])
        for p in pts:
            center = BallPoint(p)
            assert contains_point(grown, center)
            assert _frame_clearance(grown, center.v.tolist(), tau)[0] > radius

    def test_equal_shells_enclosure_contains_the_cone(self):
        cone = axis_cone(0.4, 0.15)
        grown = enclose_shadow(cone, 1.0, 1.0)
        assert cone_leq(cone, grown).holds

    def test_wide_family_clears_the_shadow_by_the_pad(self):
        # sigma/tau out to 50 and back to 1/50 puts R/tau near 3.9, where
        # a (pad, depth) ladder ran out of rungs on 29% of these draws
        rng = np.random.default_rng(61)
        for i in range(1000):
            cone = random_cone(rng, psi_max=1.45, apex_r=0.9)
            tau = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            sigma = tau * math.exp(rng.uniform(math.log(0.02),
                                               math.log(50.0)))
            grown = enclose_shadow(cone, sigma, tau)
            want = shadow_radius(sigma, tau) + 0.05 * tau
            assert _plane_margin(cone, grown, tau,
                                 floor=math.sinh(want / tau - 1e-10)), i

    def test_domain_edge_certifies_or_names_the_covering_limit(self):
        # R/tau in [7, 9] straddles the covering limit, near 7.95: below
        # it the arc bound certifies every enclosure, which the 16-seed
        # search confirms; above it the cap cannot fit
        rng = np.random.default_rng(66)
        outcomes = set()
        for i in range(200):
            cone = random_cone(rng, psi_max=1.45, apex_r=0.9)
            tau = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            x = rng.uniform(7.0, 9.0)
            sigma = tau * math.exp(x if rng.random() < 0.5 else -x)
            try:
                grown = enclose_shadow(cone, sigma, tau)
            except ConstructionFailure as err:
                assert str(err) == ("the shadow enclosure's cap passes the "
                                    "covering limit"), i
                outcomes.add("limit")
                continue
            radius = shadow_radius(sigma, tau)
            assert cone_leq(cone, grown).holds, i
            assert _plane_margin(cone, grown, tau,
                                 floor=math.sinh(radius / tau)), i
            assert tau * math.asinh(_numpy_plane_margin(cone, grown, tau)) \
                > radius, i
            outcomes.add("certified")
        assert outcomes == {"certified", "limit"}

    def test_equal_shells_core_clears_the_pad(self):
        # a zero shadow radius takes the same closed form as any other
        rng = np.random.default_rng(64)
        for _ in range(20):
            cone = random_cone(rng, psi_min=0.05, psi_max=1.45, apex_r=0.9)
            core = shrink_across_shells(cone, 1.1, 1.1)
            assert cone_leq(core, cone).holds
            assert _plane_margin(
                core, cone, 1.1, floor=math.sinh((0.05 * 1.1 - 1e-10) / 1.1))

    def test_shrink_core_fits_back_through_shadow(self):
        sigma, tau = 1.3, 1.0
        cone = axis_cone(0.9, -0.1)
        core = shrink_across_shells(cone, sigma, tau)
        assert cone_leq(core, cone).holds
        # round trip: enclosing the core's shadow stays inside a grown cone
        back = enclose_shadow(core, sigma, tau)
        assert cone_leq(core, back).holds

    def test_shrunk_cone_keeps_shadow_depth(self):
        sigma, tau = 1.3, 1.0
        growth = shadow_radius(sigma, tau) / tau
        shell = Hyperboloid(tau)
        rng = np.random.default_rng(10)
        for _ in range(5):
            cone = random_cone(rng, psi_min=0.5, psi_max=1.0, apex_r=0.3)
            core = shrink_across_shells(cone, sigma, tau)
            pts = core.sample_points(150, rng)
            keep = core.interior_margins(pts) > 1e-6
            for p in pts[keep][:40]:
                assert hyperball_in_cone(Hyperball(shell, BallPoint(p),
                                                   growth), cone).holds


class TestContractingBoosts:
    def test_boosts_nest_monotonically(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cone = random_cone(rng, psi_max=0.8)
            fam = contracting_boosts(cone)
            assert fam.directions and fam.half_angle > 0
            l = fam.directions[0]
            imgs = [map_cone(fam.boost_maker(l, chi), cone)
                    for chi in (0.5, 1.0, 2.0)]
            assert cone_leq(imgs[0], cone).holds
            assert cone_leq(imgs[1], imgs[0]).holds
            assert cone_leq(imgs[2], imgs[1]).holds

    def test_escape_zero_when_already_clear(self, shell):
        cone = axis_cone(0.4, 0.1)
        ball = Hyperball(shell, BallPoint(np.array([0.0, 0.0, -0.5])), 0.2)
        fam = contracting_boosts(cone)
        assert escape_ball(cone, ball, fam.directions[0], 16) == 0

    def test_escape_terminates_and_certifies(self, shell):
        cone = axis_cone(0.7, -0.2)
        ball = Hyperball(shell, cone.centroid(), 0.5)
        fam = contracting_boosts(cone)
        l = fam.directions[0]
        n = escape_ball(cone, ball, l, 64)
        assert 1 <= n <= 64
        g = fam.boost_maker(l, float(n))
        assert cone_hyperball_disjoint(map_cone(g, cone), ball).disjoint

    def test_escape_names_a_boost_with_no_image_cone(self):
        # the demo scene's cone A against a ball of radius 20 about the
        # origin: the 12th boost's image rounds past its base-circle plane
        # before any image clears the ball
        cone = scene.load("examples_scenes/demo.json").cones["A"]
        ball = Hyperball(Hyperboloid(1.0), BallPoint([0.0, 0.0, 0.0]), 20.0)
        l = contracting_boosts(cone).directions[0]
        with pytest.raises(ConstructionFailure) as err:
            escape_ball(cone, ball, l, 64)
        assert str(err.value) == (
            "boost 12 has no image cone in floats (apex must lie strictly "
            "below the base-circle plane)")
        assert err.value.failing_index == 12

    def test_escape_with_a_negative_budget_clears_nothing(self, shell):
        cone = axis_cone(0.4, 0.1)
        ball = Hyperball(shell, BallPoint(np.array([0.0, 0.0, -0.5])), 0.2)
        l = contracting_boosts(cone).directions[0]
        assert escape_ball(cone, ball, l, 0) == 0
        with pytest.raises(ConstructionFailure, match="boosts up to -1"):
            escape_ball(cone, ball, l, -1)

    def test_float_boosts_match_the_matrix_products(self):
        # frame^-1 boost(l, chi) frame on 16 floats, against the
        # LorentzTransform product it replaced; boost_maker wraps the same
        # floats
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(300):
            cone = random_cone(rng, psi_max=1.4, apex_r=0.8)
            frame, cap = cone.apex_frame
            l = SphereDirection.normalized(rotate_toward(
                cap.axis.v, unit_vector(rng),
                rng.uniform(0.0, 0.9) * cap.half_angle))
            chi = rng.uniform(0.0, 3.0)
            got = constructions._frame_boost(cone)(l.v.tolist(), chi)
            ref = (frame.inverse() @ LorentzTransform.boost(l.v, chi)
                   @ frame).matrix
            worst = max(worst, float(np.max(np.abs(
                np.reshape(got, (4, 4)) - ref))))
            made = contracting_boosts(cone).boost_maker(l, chi)
            assert made.matrix.ravel().tolist() == list(got)
        assert worst <= 1e-12

    def test_maker_refuses_directions_outside_the_cap(self):
        fam = contracting_boosts(axis_cone(0.5, 0.1))
        with pytest.raises(ValueError, match="not interior"):
            fam.boost_maker(SphereDirection(np.array([1.0, 0.0, 0.0])), 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            fam.boost_maker(fam.directions[0], -1.0)


def _reference_robust_enclosure(cone, generators):
    """robust_enclosure_lorentz as it was before the products with the
    identity reused their ring member's image: the ring, then every
    product a @ b of itertools.product(ring, ring), each word mapped, and
    every image checked, the region built by _reference_enclosure."""
    ring = [LorentzTransform.identity(),
            *(h for g in generators for h in (g, g.inverse()))]
    words = ring + [a @ b for a, b in itertools.product(ring, ring)]
    images = []
    for i, word in enumerate(words):
        w = word.matrix.ravel().tolist()
        try:
            if not all(map(math.isfinite, w)):
                raise ValueError("its matrix overflows")
            images.append(_map(w, cone))
        except ValueError as err:
            raise ConstructionFailure(
                f"orbit word {i} has no image cone in floats ({err}); the "
                "generators are too large", failing_index=i) from None
    region = _reference_enclosure(images)
    if not (region is not None
            and all(cone_leq(img, region) for img in images)):
        raise ConstructionFailure(
            "no covering cap enclosed the sampled Lorentz orbit of the cone")
    return region


def _orbit_instances(count, seed):
    """Seeded cones with 1-3 generators: boosts to rapidity 2 and rotations
    to 3 rad. A fifth have their cone, and a fifth their generators, on
    coordinate axes, whose exact zeros the products and inverses carry
    with either sign."""
    rng = np.random.default_rng(seed)

    def direction(on_axis):
        if not on_axis:
            return unit_vector(rng)
        v = np.zeros(3)
        v[rng.integers(3)] = rng.choice([-1.0, 1.0])
        return v

    for _ in range(count):
        if rng.random() < 0.2:
            n = direction(True)
            cone = _cone((rng.uniform(-0.5, 0.5) * n).tolist(), n.tolist(),
                         rng.uniform(0.1, 0.8))
        else:
            cone = random_cone(rng, psi_max=0.8)
        on_axis = rng.random() < 0.2
        gens = [LorentzTransform.boost(direction(on_axis),
                                       rng.uniform(-2.0, 2.0))
                if rng.random() < 0.5 else
                LorentzTransform.rotation(direction(on_axis),
                                          rng.uniform(-3.0, 3.0))
                for _ in range(rng.integers(1, 4))]
        yield cone, gens


def _enclosure_outcome(build, cone, gens):
    """The region's floats as bytes, or the failure's message and index."""
    try:
        k = build(cone, gens)
    except ConstructionFailure as err:
        return str(err), err.failing_index
    return struct.pack("9d", *k.exit_scalars, k.base.half_angle)


class TestRobustEnclosure:
    def test_region_is_the_thirty_image_reference_to_the_bit(
            self, monkeypatch):
        # each distinct word is mapped once by cones._map, 1 + 2g + (2g)^2
        # of the (1 + 2g)(2 + 2g) words, and the region is unchanged
        calls = []
        counted = constructions._map
        monkeypatch.setattr(constructions, "_map",
                            lambda *a: calls.append(1) or counted(*a))
        built = 0
        for cone, gens in _orbit_instances(2_000, seed=3400):
            calls.clear()
            got = _enclosure_outcome(robust_enclosure_lorentz, cone, gens)
            maps = len(calls)
            assert got == _enclosure_outcome(_reference_robust_enclosure,
                                             cone, gens)
            if isinstance(got, bytes):
                built += 1
                g = len(gens)
                assert maps == 1 + 2 * g + (2 * g) ** 2
        assert built >= 1_500

    @pytest.mark.parametrize("gens, index, cause", [
        ([("boost", 15.0)], 1, "apex must lie strictly below"),
        ([("boost", 40.0)], 1, None),
        ([("boost", 710.0)], 1, None),
        # the ring images are cones, and g g, word 7, is the first that
        # is not; with a rotation first it is word 23 of 30, the last
        # product's, 16th of the 21 distinct words
        ([("boost", 6.25)], 7, "apex must lie strictly below"),
        ([("boost", 9.75)], 7, "ball point must satisfy |u| < 1"),
        ([("rot", 0.5), ("boost", 6.25)], 23, "apex must lie strictly"),
    ], ids=["15.0", "40.0", "710.0", "6.25", "9.75", "rot-0.5-6.25"])
    def test_words_beyond_floats_keep_their_index_and_message(
            self, gens, index, cause):
        cone = scene.load("examples_scenes/demo.json").cones["A"]
        gens = [LorentzTransform.boost([1.0, 0.0, 0.0], amount)
                if kind == "boost" else
                LorentzTransform.rotation([0.0, 0.0, 1.0], amount)
                for kind, amount in gens]
        with np.errstate(all="raise"):
            got = _enclosure_outcome(robust_enclosure_lorentz, cone, gens)
            ref = _enclosure_outcome(_reference_robust_enclosure, cone, gens)
        assert got == ref and got[0].startswith(f"orbit word {got[1]} ")
        assert got[1] == index
        assert cause is None or f"({cause}" in got[0]

    def test_generator_words_stay_inside(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            cone = random_cone(rng, psi_max=0.8)
            gens = [LorentzTransform.boost(unit_vector(rng), 0.15),
                    LorentzTransform.rotation(unit_vector(rng), 0.25)]
            region = robust_enclosure_lorentz(cone, gens)
            assert cone_leq(cone, region).holds
            for g in gens:
                for w in (g, g.inverse(), g @ g):
                    assert cone_leq(map_cone(w, cone), region).holds

    def test_word_stack_is_the_product_list(self, monkeypatch):
        # the words A12 maps are the ring, then the products a b of
        # itertools.product(ring, ring) in that order, less those with the
        # identity, each to the bit of the float product
        words = []
        counted = constructions._map
        monkeypatch.setattr(constructions, "_map",
                            lambda w, k: words.append(w) or counted(w, k))
        cone = scene.load("examples_scenes/demo.json").cones["A"]
        rng = np.random.default_rng(42)
        built = 0
        for _ in range(200):
            gens = [LorentzTransform.boost(unit_vector(rng),
                                           rng.uniform(-2.0, 2.0))
                    if rng.random() < 0.5 else
                    LorentzTransform.rotation(unit_vector(rng),
                                              rng.uniform(-3.0, 3.0))
                    for _ in range(rng.integers(1, 4))]
            ring = [LorentzTransform.identity(),
                    *(h for g in gens for h in (g, g.inverse()))]
            want = [w.matrix for w in ring] + [
                _reference_product(a.matrix, b.matrix)
                for (i, a), (j, b) in itertools.product(enumerate(ring),
                                                        repeat=2)
                if 0 not in (i, j)]
            words.clear()
            try:
                robust_enclosure_lorentz(cone, gens)
                built += 1
                assert len(words) == len(want)
            except ConstructionFailure:
                assert len(words) <= len(want)
            for w, m in zip(words, want):
                assert struct.pack("16d", *w) == m.tobytes()
        assert built >= 150


class TestTranslateEnclosure:
    def test_shifted_events_remain_in_completion(self):
        rng = np.random.default_rng(13)
        tau = 1.0
        shell = Hyperboloid(tau)
        for _ in range(5):
            cone = random_cone(rng, psi_max=0.7)
            ts = [FourVector.from_parts(float(rng.uniform(0.1, 0.6)),
                                        0.1 * unit_vector(rng))
                  for _ in range(2)]
            region = translate_enclosure(cone, tau, ts)
            target = Hypercone(shell, region)
            pts = cone.sample_points(60, rng)
            keep = cone.interior_margins(pts) > 1e-6
            for p in pts[keep][:25]:
                x = lift_from_ball(BallPoint(p), shell)
                for t in ts:
                    assert in_causal_completion(x + t, target)

    # (apex, axis, psi, tau, t) whose enclosures, certified on samples,
    # let 56, 70, 40, 37 and 13 of the 432 shifted chord points below
    # escape
    ESCAPED = [
        ([-0.11749068528448775, -0.10219893025242081, 0.07627266948710056],
         [0.3829689713368751, -0.12287673762890684, -0.9155523329350719],
         0.8657701012430442, 1.1247794304484837,
         [0.8494137584673138, -0.05034426537160094, 0.01392454769961046,
          0.18225136171250458]),
        ([-0.060901662461670204, -0.031099357996537673, 0.08054140558192208],
         [-0.9567156993271637, -0.17811974305175302, 0.23014870800444154],
         0.7011210235856052, 1.0532308910869819,
         [0.7091641783267888, 0.07755779710024752, 0.08470205466427863,
          -0.02879998145034735]),
        ([0.42020866811010144, 0.11067647796888905, -0.1844524886364545],
         [0.8177504740148616, 0.2878794887133394, 0.49840702465616976],
         0.7415762552838542, 0.9228639317277075,
         [0.4952308735036135, -0.05273943381203063, 0.0014518567135572208,
          -0.026487054034480723]),
        ([0.005997410564347896, -0.031004417703752157, 0.0009944984924935216],
         [0.4573845610002099, -0.8677145276027655, 0.19460437288446245],
         0.5703002287271288, 1.402050726265593,
         [0.5670872165770402, -0.09703134201617411, 0.029568833716350076,
          -0.06606433993486993]),
        ([0.04910904220373278, 0.0288817551873924, -0.054955244427828044],
         [-0.7126818220466845, 0.1580207904329237, -0.6834574239227869],
         0.6756035818477382, 1.2941216809913128,
         [0.859933426172472, -0.041564476420545594, -0.06529879641731783,
          0.18260268632939589]),
    ]

    @pytest.mark.parametrize("apex, axis, psi, tau, t", ESCAPED)
    def test_near_rim_lifts_stay_in_pinned_enclosures(self, apex, axis, psi,
                                                       tau, t):
        cone = BallCone(BallPoint(np.array(apex)),
                        Cap(SphereDirection.normalized(np.array(axis)), psi))
        shell = Hyperboloid(tau)
        shift = FourVector.from_array(np.array(t))
        source = Hypercone(shell, cone)
        target = Hypercone(shell, translate_enclosure(cone, tau, [shift]))
        n = cone.base.axis.v
        e1, e2 = orthonormal_frame(n)
        for phi in np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False):
            d = (math.cos(0.99 * psi) * n + math.sin(0.99 * psi)
                 * (math.cos(phi) * e1 + math.sin(phi) * e2))
            for k in range(1, 7):
                u = cone.apex.v + (1.0 - 10.0 ** -k) * (d - cone.apex.v)
                x = lift_from_ball(BallPoint(u), shell)
                assert in_causal_completion(x, source)
                assert in_causal_completion(x + shift, target)

    def test_draws_no_random_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("A13 drew random points")

        monkeypatch.setattr(BallCone, "sample_points", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        cone = axis_cone(0.5, 0.1)
        shift = FourVector.from_parts(0.4, (0.1, 0.0, 0.05))
        region = translate_enclosure(cone, 1.0, [shift])
        assert cone_leq(cone, region).holds
        carrier = charges.Morphism(charges.ChargeGroup(1).element((1,)),
                                   cone, Hyperboloid(1.0))
        assert shift_light_cone(carrier, shift).morphism.localization \
            == region

    def test_zero_shift_returns_enlarged_copy(self):
        cone = axis_cone(0.4, 0.1)
        region = translate_enclosure(cone, 1.0, [
            FourVector.from_parts(0.0, (0.0, 0.0, 0.0))])
        assert cone_leq(cone, region).holds

    def test_wide_family_clears_the_shifted_shadows_by_the_pad(self):
        # t0/tau out to 20, where a (pad, depth) ladder ran out of rungs
        # on 18% of these draws
        rng = np.random.default_rng(62)
        for i in range(600):
            cone = random_cone(rng, psi_max=1.45, apex_r=0.9)
            tau = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            t0 = tau * math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
            shift = FourVector.from_parts(
                t0, rng.uniform(0.0, 0.9) * t0 * unit_vector(rng))
            region = translate_enclosure(cone, tau, [shift])
            assert _plane_margin(cone, region, tau, shift.components,
                                 floor=math.sinh(0.05) - 1e-10), i

    def test_long_shifts_certify_or_name_the_covering_limit(self):
        # t0/tau from 20 to 1e5 takes the enclosure past the covering
        # limit: below it the arc bound certifies every enclosure, which
        # the 16-seed search confirms; above it the cap cannot fit
        rng = np.random.default_rng(67)
        outcomes = set()
        for i in range(200):
            cone = random_cone(rng, psi_max=1.45, apex_r=0.9)
            tau = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            t0 = tau * math.exp(rng.uniform(math.log(20.0), math.log(1e5)))
            shift = FourVector.from_parts(
                t0, rng.uniform(0.0, 0.99) * t0 * unit_vector(rng))
            try:
                region = translate_enclosure(cone, tau, [shift])
            except ConstructionFailure as err:
                assert str(err) == ("the shadow enclosure's cap passes the "
                                    "covering limit"), i
                outcomes.add("limit")
                continue
            assert cone_leq(cone, region).holds, i
            floor = math.sinh(0.05) - 1e-10
            assert _plane_margin(cone, region, tau, shift.components,
                                 floor=floor), i
            assert _numpy_plane_margin(cone, region, tau,
                                       shift.components) >= floor, i
            outcomes.add("certified")
        assert outcomes == {"certified", "limit"}

    def test_several_translations_share_one_witness(self):
        cone = BallCone(BallPoint(np.array([0.1, -0.2, 0.15])),
                        Cap(SphereDirection.normalized([0.3, 0.2, 0.9]),
                            0.7))
        tau = 1.1
        shell = Hyperboloid(tau)
        shifts = [FourVector.from_parts(0.4, (0.0, 0.0, 0.0)),
                  FourVector.from_parts(1.5, (0.9, -0.6, 0.3)),
                  FourVector.from_parts(0.8, (0.0, 0.8, 0.0)),
                  FourVector.from_parts(3.0, (-1.0, 0.5, -2.0))]
        region = translate_enclosure(cone, tau, shifts)
        assert cone_leq(cone, region).holds
        target = Hypercone(shell, region)
        rng = np.random.default_rng(63)
        pts = np.vstack([cone.sample_points(100, rng),
                         cone.lateral_points(24, 1.0 - np.geomspace(
                             1e-6, 0.5, 8))])
        for shift in shifts:
            assert _plane_margin(cone, region, tau, shift.components,
                                 floor=math.sinh(0.05) - 1e-10)
            for p in pts:
                x = lift_from_ball(BallPoint(p), shell)
                assert in_causal_completion(x + shift, target)

    def test_past_translation_rejected(self):
        with pytest.raises(ValueError):
            translate_enclosure(axis_cone(), 1.0, [
                FourVector.from_parts(-1.0, (0.0, 0.0, 0.0))])

    @pytest.mark.parametrize("t0, xs, bad", [
        (math.nan, (0.0, 0.0, 0.0), "nan"),
        (math.inf, (0.0, 0.0, 0.0), "inf"),
        (1.0, (0.0, math.nan, 0.0), "nan"),
    ])
    def test_non_finite_translation_rejected(self, t0, xs, bad):
        with pytest.raises(ValueError, match=f"non-finite.*{bad}"):
            translate_enclosure(axis_cone(), 1.0, [
                FourVector.from_parts(t0, xs)])

    def test_lightlike_translation_past_a_sum_of_squares(self):
        # (1e200, 1e200, 0, 0) lies on the forward cone, although its
        # squares overflow; its closed form then leaves the floats
        with pytest.raises(ConstructionFailure, match="translation 0") as err:
            translate_enclosure(axis_cone(), 1.0, [
                FourVector(1e200, 1e200, 0.0, 0.0)])
        assert err.value.failing_index == 0

    @pytest.mark.parametrize("t0", [1e300, 1e308])
    def test_translation_beyond_floats_is_named(self, t0):
        with np.errstate(all="raise"):
            with pytest.raises(ConstructionFailure,
                               match="translation 1") as err:
                translate_enclosure(axis_cone(), 1.0, [
                    FourVector(1.0, 0.0, 0.0, 0.0),
                    FourVector(t0, 0.0, 0.0, 0.0)])
        assert err.value.failing_index == 1

    def test_spacelike_translation_rejected(self):
        with pytest.raises(ValueError):
            translate_enclosure(axis_cone(), 1.0, [
                FourVector.from_parts(0.1, (1.0, 0.0, 0.0))])


class TestIntervalIdentity:
    def test_ray_points_lie_on_shell(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            u = float(rng.uniform(0.05, 1.0))
            tau = float(rng.uniform(0.2, 3.0))
            a = lightray_point(u, tau, unit_vector(rng))
            assert a.square() == pytest.approx(tau * tau, rel=1e-10)

    def test_offset_vanishes_at_cap_parameter_one(self):
        assert lightray_offset(1.0, 2.3) == 0.0

    def test_pinned_pure_time_shift(self):
        for t in (0.0, 0.4, 2.0):
            got = interval_expansion(1.0, 1.0, t, -1.0, 1.0)
            assert got == pytest.approx(t * t, abs=1e-12)

    def test_expansion_matches_direct_minkowski_square(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(300):
            tau = float(rng.uniform(0.3, 3.0))
            u = float(rng.uniform(0.05, 1.0))
            up = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(0.0, 2.0))
            l, lp = unit_vector(rng), unit_vector(rng)
            a = lightray_point(u, tau, l)
            ap = lightray_point(up, tau, lp)
            direct = (a + FourVector.from_parts(t, (0, 0, 0)) - ap).square()
            closed = interval_expansion(u, up, t, float(l @ lp), tau)
            worst = max(worst, abs(direct - closed))
        assert worst < 1e-10

    def test_spacelike_criterion_has_no_counterexample(self):
        rng = np.random.default_rng(16)
        for _ in range(20000):
            tau = float(rng.uniform(0.3, 3.0))
            u = float(rng.uniform(0.01, 1.0))
            up = float(rng.uniform(0.01, 1.0))
            t = float(rng.uniform(0.0, 3.0))
            dot = float(rng.uniform(-1.0, 0.0))
            if up * tau + lightray_offset(up, tau) <= tau + t:
                continue
            assert interval_expansion(u, up, t, dot, tau) < 0


class TestExactCertificates:
    """Constructions certified by exact predicates draw no random points,
    and return pinned witnesses, each re-checked on 10^4 sampled points
    by the acceptance suite's checkers when it was pinned. A1, A3, A4 and
    A8 pin the witnesses of the closed-form directions (the farthest
    base-circle point, the cap halfway from a ball's reach to a right
    angle seen from the foot on the separating plane, the balanced arc
    point between two caps); A1, A3, A8 and A10 those of the closed-form
    floors of the axial cones; A9 and A13 those of the closed-form shadow
    enclosure, and A12 that of the hull enclosure.
    A3's witness is the one member of A1's depth-1 funnel, and the last
    member of every funnel against the same probe."""

    def test_constructions_draw_no_random_points(self, monkeypatch):
        def refuse(self, n, rng):
            raise AssertionError("a construction sampled cone points")

        monkeypatch.setattr(BallCone, "sample_points", refuse)
        unit = lambda *v: SphereDirection.normalized(np.array(v))  # noqa
        shell = Hyperboloid(1.0)
        k = BallCone(BallPoint(np.array([0.12, -0.08, 0.05])),
                     Cap(unit(0.3, -0.2, 0.93), 0.62))
        probe = Hyperball(shell, BallPoint(np.array([0.1, -0.05, 0.35])),
                          0.12)
        far = Hyperball(shell, BallPoint(np.array([-0.25, 0.3, -0.4])),
                        0.15)
        other = BallCone(BallPoint(np.array([-0.1, 0.15, -0.2])),
                         Cap(unit(-0.4, 0.5, -0.77), 0.45))
        wide = BallCone(BallPoint(np.array([0.05, 0.1, -0.1])),
                        Cap(unit(0.2, 0.1, 0.97), 1.05))
        gens = [LorentzTransform.boost(unit(0.6, 0.3, -0.74).v, 0.12),
                LorentzTransform.rotation(unit(0.2, 0.9, 0.4).v, 0.25)]
        shift = FourVector.from_parts(0.7, (0.2, -0.1, 0.25))
        got = {
            "A1": funnel_in(k, 3, probe).cones[-1],
            "A3": avoid_ball_inside(probe, k),
            "A4": wrap_ball_in_complement(far, k),
            "A8": common_complement_cone(k, other),
            "A9": enclose_shadow(k, 0.8, 1.3),
            "A10": shrink_across_shells(wide, 1.2, 0.9),
            "A12": robust_enclosure_lorentz(k, gens),
            "A13": translate_enclosure(k, 1.2, [shift]),
        }
        want = {
            "A1": ([0.2863009005534003, -0.32530786081537916,
                    0.5648753666440721],
                   [0.40213434726738945, -0.45692299261749425,
                    0.7934162498747451], 0.186),
            "A3": ([0.2863009005534003, -0.32530786081537916,
                    0.5648753666440721],
                   [0.40213434726738945, -0.45692299261749425,
                    0.7934162498747451], 0.186),
            "A4": ([-0.043034706146832025, 0.08744104955620609,
                    -0.1482854534218228],
                   [-0.5002347749434118, 0.5433944494533018,
                    -0.6741569863471395], 0.8156149640648823),
            "A8": ([0.1641870738536794, -0.5379573020405379,
                    -0.35413999456030837],
                   [0.2470248037423392, -0.8093742938420981,
                    -0.5328151638266914], 0.2),
            "A9": ([-0.01133360645984248, 0.007555737639894986,
                    -0.5265976031168911],
                   [0.23308053151380134, -0.15538702100920088,
                    0.9599626761135718], 1.4375752869668237),
            "A10": ([0.18097115169646424, 0.13772130247056188,
                     0.6620002674858784],
                    [0.2238313754073541, 0.13837420533231387,
                     0.9647549402215585], 0.5287910411688717),
            "A12": ([-0.18776949918032598, 0.11304582801617793,
                     -0.5792904922815848],
                    [0.30316404988385565, -0.1825186262596647,
                     0.9352959477760524], 1.1528691693599968),
            "A13": ([-0.012667932359071259, 0.008445288239380818,
                     -0.5324557314056878],
                    [0.21305589946714631, -0.14203726631143085,
                     0.9666605395282364], 1.6364321354423637),
        }
        for label, cone in got.items():
            apex, axis, psi = want[label]
            np.testing.assert_allclose(cone.apex.v, apex, rtol=0, atol=1e-12,
                                       err_msg=label)
            np.testing.assert_allclose(cone.base.axis.v, axis, rtol=0,
                                       atol=1e-12, err_msg=label)
            assert abs(cone.base.half_angle - psi) <= 1e-12, label


class TestGuardBranches:
    """The refusals and early answers of the constructions that the
    seeded families never reach. Window pairs share an apex (the origin,
    where the apex frame is the ball's) with caps that touch within
    1e-10, inside the degenerate window."""

    @pytest.mark.parametrize("touch", [-1e-10, 1e-10])
    def test_contact_inside_the_window_is_not_yet_disjoint(self, touch):
        a = _cone((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.5)
        gamma = 0.5 + 0.7 + touch
        b = _cone((0.0, 0.0, 0.0), (math.sin(gamma), 0.0, math.cos(gamma)),
                  0.7)
        with pytest.raises(DegenerateGeometry, match="touch"):
            disjoint(a, b)
        assert constructions._is_disjoint(a, b) is False

    def test_ball_touching_inside_the_window_is_not_yet_clear(self):
        cone = _cone((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.5)
        shell = Hyperboloid(1.0)
        center = (0.4, 0.0, 0.1)
        dist, inside = _frame_clearance(cone, center, shell.tau)
        assert not inside
        ball = Hyperball(shell, BallPoint(np.array(center)), dist - 1e-10)
        with pytest.raises(DegenerateGeometry, match="within the window"):
            cone_hyperball_disjoint(cone, ball)
        assert constructions._ball_clear(cone, ball) is False

    @pytest.mark.parametrize("psi, floor", [
        (0.5, math.cos(0.5)), (0.5, 0.99), (math.pi - 1e-3, -0.9)])
    def test_axial_cone_refuses_a_floor_or_cap_past_the_limit(self, psi,
                                                              floor):
        assert not _cap_fits(psi, floor)
        assert constructions._axial_cone((0.0, 0.0, 1.0), psi, floor) \
            is None

    def test_wrap_refuses_a_ball_that_meets_the_cone(self):
        cone = _cone((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.5)
        ball = Hyperball(Hyperboloid(1.0), BallPoint(np.array([0.0, 0.0,
                                                               0.5])), 0.1)
        with pytest.raises(ValueError, match="ball must be disjoint"):
            wrap_ball_in_complement(ball, cone)

    def test_equal_endpoints_make_a_one_node_path(self):
        forbidden = _cone((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.5)
        a = _cone((0.0, 0.0, -0.1), (0.0, 0.0, -1.0), 0.4)
        path = path_connect_in_complement(forbidden, a, a)
        assert path.nodes == (a,) and path.witnesses == ()

    def test_common_complement_refuses_cones_that_meet(self):
        a = _cone((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.5)
        b = _cone((0.0, 0.0, 0.1), (0.0, math.sin(0.4), math.cos(0.4)),
                  0.5)
        assert not disjoint(a, b).disjoint
        with pytest.raises(ValueError, match="input cones must be disjoint"):
            common_complement_cone(a, b)

    @pytest.mark.parametrize("u", [0.0, -0.5])
    def test_lightray_offset_refuses_a_parameter_not_positive(self, u):
        with pytest.raises(ValueError, match="ray parameter must be "
                                             "positive"):
            lightray_offset(u, 1.0)


class TestFloatRepresentation:
    def test_constructions_read_no_cone_array(self, monkeypatch):
        """On the benchmark's seeded instances, with every cone built by
        cones._cone and every ball public, constructions.py reads `.v` of
        no BallPoint or SphereDirection but the balls' centres: a cone's
        apex and axis are read as floats from exit_scalars."""
        certify = certify_module()
        here, centres, reads = constructions.__file__, {}, []  # id: ball
        for cls in (BallPoint, SphereDirection):
            def counted(obj, get=cls.v.fget):
                if (sys._getframe(1).f_code.co_filename == here
                        and id(obj) not in centres):
                    reads.append(obj)
                return get(obj)
            monkeypatch.setattr(cls, "v", property(counted))

        def ball(shell, center, radius):
            centres[id(center)] = center  # alive, so its id stays its own
            return Hyperball(shell, center, radius)

        floats = types.SimpleNamespace(**vars(hypercones))
        floats.BallCone = lambda apex, cap: _cone(
            apex.v.tolist(), cap.axis.v.tolist(), cap.half_angle)
        floats.Hyperball = ball
        rng = np.random.default_rng(2036)
        counts = {}
        for label in (*(f"A{i}" for i in range(1, 9)), "A10", "A11", "A12",
                      "A13"):
            del reads[:]
            for _ in range(20):
                certify.call(floats, label, certify.sample(rng, label))()
            counts[label] = len(reads)
        assert set(counts.values()) == {0}, counts
