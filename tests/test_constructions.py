"""Constructive witnesses for the cone-calculus existence facts."""

import math
import struct

import numpy as np
import pytest

from hypercones import (BallCone, BallPoint, Cap, DegenerateGeometry,
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
from hypercones import charges, constructions
from hypercones.ball_model import ball_action_many
from hypercones.cones import _frame_clearance
from hypercones.convex import hyperball_ellipsoid
from hypercones.config import DEFAULT_TOLERANCES
from hypercones.spherical import angle_between, orthonormal_frame, \
    rotate_toward, slerp
from tests.conftest import (ball_disjoint_from_cone, disjoint_cone_pair,
                            exhaustion_family, random_cone, random_transform,
                            unit_vector)
from tests.test_ball_model import _numpy_cap_image

Z = np.array([0.0, 0.0, 1.0])


def apex_boost(p: np.ndarray) -> LorentzTransform:
    """Boost whose ball action moves the ball point p to the origin, built
    as a matrix boost: an independent check of ball_model.apex_matrix."""
    a = float(np.linalg.norm(p))
    if a < 1e-14:
        return LorentzTransform.identity()
    return LorentzTransform.boost(p / a, -math.atanh(a))


def matrix_boost_wrap(ball, cone):
    """Apex, pad and cap that wrap_ball_in_complement picked when it built
    one matrix boost per (apex, pad) and mapped the cap by a 4x4 matrix
    product: the same candidates, pads, order and checks."""
    w, c = cone_hyperball_disjoint(cone, ball).plane
    center = hyperball_ellipsoid(ball.center.v, ball.radius,
                                 ball.shell.tau).center
    proj = center - (float(w @ center) - c) * w
    rho = ball.radius / ball.shell.tau
    for apex in (proj, 0.5 * (proj + c * w), c * w):
        for pad in (0.02, 0.05, 0.12, 0.25):
            if np.linalg.norm(apex) >= 1.0 - 1e-9:
                continue
            frame = apex_boost(apex)
            seen = ball_action_many(frame, ball.center.v)[0]
            r = math.atanh(float(np.linalg.norm(seen)))
            if r <= rho:
                continue
            half = math.asin(math.sinh(rho) / math.sinh(r)) + pad
            if half >= 0.5 * math.pi:
                continue
            cap = _numpy_cap_image(frame.inverse(), Cap(
                SphereDirection.normalized(seen), half))
            if not constructions._cap_fits(cap.half_angle,
                                           float(cap.axis.v @ apex)):
                continue
            region = BallCone(BallPoint(apex), cap)
            try:
                inside = hyperball_in_cone(ball, region)
                clear = disjoint(region, cone)
            except DegenerateGeometry:
                continue
            if inside.holds and clear.disjoint:
                return apex, pad, cap
    raise AssertionError("the matrix boost path found no wrap")


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


def _list_chord_levels(cone, target, count):
    """The chord levels as they were built before they became lazy: the
    whole list at once, the reference of the generator."""
    apex0, axis0 = cone.apex.v, cone.base.axis.v
    psi0 = cone.base.half_angle
    chord = target - apex0
    levels = []
    for n in range(1, count + 1):
        shrink = 0.5 ** n
        psi = max(psi0 * shrink, 1e-7)
        axis = rotate_toward(axis0, target, psi0 - psi)
        apex = target - shrink * chord
        validity = shrink * float(axis @ chord)
        if validity <= 10.0 * DEFAULT_TOLERANCES.pointedness:
            break
        levels.append(BallCone(BallPoint(apex),
                               Cap(SphereDirection.normalized(axis), psi)))
    return levels


def same_cone(a, b):
    return (np.array_equal(a.apex.v, b.apex.v)
            and np.array_equal(a.base.axis.v, b.base.axis.v)
            and a.base.half_angle == b.base.half_angle)


def count_built_cones(monkeypatch):
    """A list that grows by one for every cone the constructions module
    builds from here on."""
    built, real = [], constructions.BallCone

    def counted(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "BallCone", counted)
    return built


def funnel_cases(shell):
    """Seeded (cone, probe) pairs: probes anywhere, probes on the cone's
    axis that only deep levels clear, and one cone whose apex sits 1e-8
    from its base circle, where the validity check stops the march after
    three levels."""
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(6):
        cone = random_cone(rng, psi_max=0.8)
        cases += [(cone, Hyperball(shell, BallPoint(
            rng.uniform(0.0, 0.55) * unit_vector(rng)),
            rng.uniform(0.15, 0.5))),
            (cone, Hyperball(shell, BallPoint(
                rng.uniform(0.6, 0.85) * cone.base.axis.v),
                rng.uniform(1.0, 2.0)))]
    rim = math.cos(0.5) * Z + math.sin(0.5) * np.array([1.0, 0.0, 0.0])
    cases.append((BallCone(BallPoint((1.0 - 1e-8) * rim),
                           Cap(SphereDirection(Z), 0.5)),
                  Hyperball(shell, BallPoint(-0.5 * rim), 0.3)))
    return cases


class TestLazyChordLevels:
    def test_levels_equal_the_list_reference(self, shell):
        for cone, probe in funnel_cases(shell):
            target = constructions._steer_target(cone, probe.center.v)
            for count in (1, 5, 60):
                lazy = list(constructions._chord_levels(cone, target, count))
                ref = _list_chord_levels(cone, target, count)
                assert len(lazy) == len(ref)
                assert all(map(same_cone, lazy, ref))

    def test_funnel_builds_only_the_levels_it_keeps(self, shell,
                                                    monkeypatch):
        padded = 0
        for cone, probe in funnel_cases(shell):
            target = constructions._steer_target(cone, probe.center.v)
            ref = _list_chord_levels(cone, target, 60)
            cleared = next(i for i, level in enumerate(ref)
                           if constructions._ball_clear(level, probe))
            for depth in range(1, 8):
                # the funnel: the first `depth` levels, the last repeated
                # when the march stopped short, or the `depth` levels
                # ending at the first clear one
                if cleared + 1 <= depth:
                    want = (ref[:depth] + [ref[-1]] * depth)[:depth]
                    padded += len(ref) < depth
                else:
                    want = ref[cleared - depth + 1: cleared + 1]
                with monkeypatch.context() as m:
                    built = count_built_cones(m)
                    got = funnel_in(cone, depth, probe).cones
                assert len(got) == depth
                assert all(map(same_cone, got, want))
                assert len(built) == min(len(ref), max(cleared + 1, depth))
        assert padded > 0

    def test_avoid_ball_builds_up_to_the_first_clear_level(self, shell,
                                                          monkeypatch):
        rng = np.random.default_rng(20)
        for _ in range(10):
            cone = random_cone(rng, psi_max=0.9)
            ball = Hyperball(shell, BallPoint(0.45 * unit_vector(rng)), 0.35)
            target = constructions._steer_target(cone, ball.center.v)
            ref = _list_chord_levels(cone, target, 60)
            first = next(i for i, level in enumerate(ref)
                         if constructions._ball_clear(level, ball))
            with monkeypatch.context() as m:
                built = count_built_cones(m)
                got = avoid_ball_inside(ball, cone)
            assert same_cone(got, ref[first])
            assert len(built) == first + 1

    def test_shrink_builds_up_to_the_first_disjoint_level(self,
                                                          monkeypatch):
        rng = np.random.default_rng(21)
        seen = 0
        while seen < 10:
            a, b = random_cone(rng), random_cone(rng)
            gamma = angle_between(a.base.axis.v, b.base.axis.v)
            if gamma <= a.base.half_angle + b.base.half_angle + 1e-3:
                continue
            seen += 1
            target = constructions._steer_target(a, b.base.axis.v)
            ref = _list_chord_levels(a, target, 60)
            first = next(i for i, level in enumerate(ref)
                         if constructions._is_disjoint(level, b))
            with monkeypatch.context() as m:
                built = count_built_cones(m)
                got = shrink_for_connectivity(a, b)
            assert same_cone(got, ref[first])
            assert len(built) == first + 1


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
            seen = ball_action_many(apex_boost(wrap.apex.v), ball.center.v)[0]
            r = math.atanh(float(np.linalg.norm(seen)))
            half = wrap.apex_frame[1].half_angle
            rho = ball.radius / shell.tau
            reach = math.asin(math.sinh(rho) / math.sinh(r))
            assert min(abs(half - reach - pad)
                       for pad in (0.02, 0.05, 0.12, 0.25)) <= 1e-12
            margin = hyperball_in_cone(ball, wrap).margin
            closed = shell.tau * math.asinh(math.sinh(r) * math.sin(half))
            assert abs(margin - (closed - ball.radius)) <= 1e-12
            # the same apex and pad as the wrap on matrix boosts
            apex, pad, cap = matrix_boost_wrap(ball, cone)
            assert np.array_equal(wrap.apex.v, apex)
            assert abs(half - reach - pad) <= 1e-12
            assert np.max(np.abs(wrap.base.axis.v - cap.axis.v)) <= 1e-12
            assert abs(wrap.base.half_angle - cap.half_angle) <= 1e-12

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
        witness = constructions._thin_cone(m, 0.6 * mu, depth)
        if witness is None:
            continue
        p = witness.apex.v.tolist()
        if (a.margin(p) >= -DEFAULT_TOLERANCES.containment_slack
                and b.margin(p) >= -DEFAULT_TOLERANCES.containment_slack
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
            caps = [Cap(SphereDirection(unit_vector(rng)),
                        rng.uniform(0.01, math.pi - 0.01)) for _ in range(2)]
            m, clear = constructions._clearest_direction(*caps)
            at_m = min(angle_between(m, c.axis.v) - c.half_angle
                       for c in caps)
            assert abs(at_m - clear) <= 1e-12
            ang = np.arccos(np.clip(grid @ np.array([c.axis.v for c in caps]).T,
                                    -1.0, 1.0))
            brute = float(np.max(np.min(
                ang - np.array([c.half_angle for c in caps]), axis=1)))
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

    def test_equal_shells_return_enlarged_copy(self):
        cone = axis_cone(0.4, 0.15)
        grown = enclose_shadow(cone, 1.0, 1.0)
        assert cone_leq(cone, grown).holds

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


class TestRobustEnclosure:
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
        monkeypatch.setattr(constructions.np.random, "default_rng", refuse)
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
    base-circle point, the cap of rays through a ball seen from the apex,
    the balanced arc point between two caps)."""

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
        got = {
            "A1": funnel_in(k, 3, probe).cones[-1],
            "A3": avoid_ball_inside(probe, k),
            "A4": wrap_ball_in_complement(far, k),
            "A8": common_complement_cone(k, other),
            "A9": enclose_shadow(k, 0.8, 1.3),
            "A10": shrink_across_shells(wide, 1.2, 0.9),
            "A12": robust_enclosure_lorentz(k, gens),
        }
        want = {
            "A1": ([0.42201862109724, -0.59605246907087,
                    0.5127115933869417],
                   [0.45339855797878525, -0.621845800287079,
                    0.6385433018113027], 0.0775),
            "A3": ([0.29258206919842283, -0.3748871251833542,
                    0.3144066247925381],
                   [0.40213434726738945, -0.45692299261749425,
                    0.7934162498747451], 0.31),
            "A4": ([-0.046661071696956075, 0.08775036782762083,
                    -0.1451187399395177],
                   [-0.48284422736420024, 0.5414279216048471,
                    -0.6882712094862927], 0.2890707285871486),
            "A8": ([0.1235124018711696, -0.40468714692104907,
                    -0.26640758191334557],
                   [0.24702480374233923, -0.8093742938420982,
                    -0.5328151638266913], 0.2),
            "A9": ([-0.2917449004582795, 0.19449660030551966,
                    -0.9044091914206663],
                   [0.30076793861678297, -0.20051195907785532,
                    0.9323806097120272], 1.07),
            "A10": ([0.10045812911315204, 0.05022906455657602,
                     0.48722192619878735],
                    [0.20091625822630407, 0.10045812911315204,
                     0.9744438523975747], 0.15),
            "A12": ([-0.09094921496515675, 0.05475558787789942,
                     -0.2805887843328157],
                    [0.3031640498838558, -0.18251862625966475,
                     0.9352959477760523], 1.1228691693599968),
        }
        for label, cone in got.items():
            apex, axis, psi = want[label]
            np.testing.assert_allclose(cone.apex.v, apex, rtol=0, atol=1e-12,
                                       err_msg=label)
            np.testing.assert_allclose(cone.base.axis.v, axis, rtol=0,
                                       atol=1e-12, err_msg=label)
            assert abs(cone.base.half_angle - psi) <= 1e-12, label
