"""Cap cones on the ball: membership, inclusion, disjointness, completion."""

import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import hypercones
from hypercones import (BallCone, BallPoint, Cap, ConstructionFailure,
                        DegenerateGeometry,
                        FourVector, Hyperball, Hyperboloid, Hypercone,
                        LorentzTransform, SphereDirection, ball_distance,
                        cone_hyperball_disjoint,
                        cone_leq, contains_point, disjoint, enclosing_cone,
                        hyperball_in_cone, in_causal_completion,
                        lift_from_ball, lorentz_ball_action, map_cone,
                        opposite, point_margin, shadow_radius)
from hypercones.ball_model import (ball_action_many, ball_distance_many,
                                   homology_through_many, ray_exits)
from hypercones import cones as cone_module, constructions
from hypercones.ball_model import cap_image
from hypercones.ball_model import _act, _cap_seen
from hypercones.cones import (_cap_fits, _covering_cap, _enclosure,
                              _frame_clearance, _hull_gap, _plane,
                              _plane_margin)
from hypercones.config import DEFAULT_TOLERANCES
from hypercones.minkowski import _inverse
from hypercones.convex import (ConeHullSupport, gjk_distance,
                              hyperball_ellipsoid)
from hypercones.spherical import (angle, angle_between, dot,
                                 orthonormal_frame, rotate_toward, slerp,
                                 turn, unit)
from tests.conftest import (ball_disjoint_from_cone, benchmark_instances,
                            disjoint_cone_pair,
                            interior_point, random_cone, random_transform,
                            unit_vector)

Z = np.array([0.0, 0.0, 1.0])
WINDOW = DEFAULT_TOLERANCES.degenerate_window


def simple_cone(apex_z=0.1, psi=0.5) -> BallCone:
    return BallCone(BallPoint(np.array([0.0, 0.0, apex_z])),
                    Cap(SphereDirection(Z), psi))


def raw_cone(apex, axis, psi) -> BallCone:
    return BallCone(BallPoint(np.array(apex)),
                    Cap(SphereDirection.normalized(np.array(axis)), psi))


def test_importing_the_package_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hypercones.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypercones; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "False"


class TestConeValidity:
    def test_apex_below_base_plane_required(self):
        with pytest.raises(ValueError):
            BallCone(BallPoint(np.array([0.0, 0.0, 0.9])),
                     Cap(SphereDirection(Z), 0.5))

    def test_wide_cap_needs_deep_apex(self):
        # half-angle beyond a right angle: apex must sit on the far side
        with pytest.raises(ValueError):
            BallCone(BallPoint(np.zeros(3)), Cap(SphereDirection(Z), 2.0))
        BallCone(BallPoint(np.array([0.0, 0.0, -0.6])),
                 Cap(SphereDirection(Z), 2.0))

    def test_float_constructor_rebuilds_public_cones_bit_for_bit(self):
        # _cone over a public cone's floats is that cone: apex, axis,
        # half-angle and its three float tuples to the bit, and the same
        # attributes in the same order
        def bits(xs):
            return struct.pack(f"{len(xs)}d", *xs)

        rng = np.random.default_rng(40)
        for _ in range(2_000):
            cone = random_cone(rng, psi_max=1.5, apex_r=0.95)
            built = cone_module._cone(cone.apex.v.tolist(),
                                      cone.base.axis.v.tolist(),
                                      cone.base.half_angle)
            assert type(built) is BallCone
            assert type(built.apex) is BallPoint
            assert type(built.base.axis) is SphereDirection
            assert built == cone
            assert bits(built.apex.v) == bits(cone.apex.v)
            assert bits(built.base.axis.v) == bits(cone.base.axis.v)
            assert not built.apex.v.flags.writeable
            assert not built.base.axis.v.flags.writeable
            assert bits([built.base.half_angle]) == bits(
                [cone.base.half_angle])
            assert bits(built.exit_scalars) == bits(cone.exit_scalars)
            assert bits(built.apex_frame_scalars) == bits(
                cone.apex_frame_scalars)
            assert bits(built.lead_rows) == bits(cone.lead_rows)
            assert list(vars(built)) == list(vars(cone))
            assert list(vars(built.base)) == list(vars(cone.base))

    @pytest.mark.parametrize("apex, axis, psi", [
        ((0.6, 0.8, 0.0), (0.0, 0.0, 1.0), 0.5),
        ((0.0, 0.0, 1.5), (0.0, 0.0, 1.0), 0.5),
        ((math.nan, 0.0, 0.0), (0.0, 0.0, 1.0), 0.5),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1.001), 0.5),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5),
        ((0.0, 0.0, 0.0), (0.0, math.inf, 0.0), 0.5),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.pi),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.nan),
        ((0.0, 0.0, 0.9), (0.0, 0.0, 1.0), 0.5),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0),
        ((0.0, 0.0, 2.0), (1.0, 0.0, 0.0), 4.0),
    ], ids=["apex-on-sphere", "apex-outside", "apex-nan", "axis-long",
            "axis-zero", "axis-inf", "psi-zero", "psi-pi", "psi-nan",
            "apex-above-plane", "wide-cap-centred", "first-check-wins"])
    def test_float_constructor_refuses_as_the_public_ones(self, apex, axis,
                                                          psi):
        with pytest.raises(ValueError) as public:
            BallCone(BallPoint(np.array(apex)),
                     Cap(SphereDirection(np.array(axis)), psi))
        with pytest.raises(ValueError) as floats:
            cone_module._cone(apex, axis, psi)
        assert str(floats.value) == str(public.value)


class TestMembership:
    def test_axis_chord_is_inside(self):
        cone = simple_cone()
        for s in (0.2, 0.5, 0.9):
            u = BallPoint(cone.apex.v + s * (Z - cone.apex.v))
            assert contains_point(cone, u)

    def test_apex_and_backside_are_outside(self):
        cone = simple_cone()
        assert not contains_point(cone, cone.apex)
        assert not contains_point(cone, BallPoint(np.array([0.0, 0.0, -0.5])))
        assert not contains_point(cone, BallPoint(np.array([0.9, 0.0, 0.0])))

    def test_membership_is_convex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cone = random_cone(rng)
            pts = cone.sample_points(64, rng)
            lam = rng.random(32)
            mix = (lam[:, None] * pts[:32]
                   + (1.0 - lam)[:, None] * pts[32:])
            assert np.all(cone.contains_many(mix, closed=True, slack=1e-9))

    def test_lateral_surface_has_zero_margin(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cone = random_cone(rng)
            surf = cone.lateral_points(16, np.array([0.25, 0.5, 0.75, 0.95]))
            m = cone.interior_margins(surf)
            assert float(np.max(np.abs(m))) < 1e-9

    def test_point_margin_signs(self):
        cone = simple_cone()
        inside = cone.centroid().v
        outside = np.array([0.0, 0.0, -0.4])
        assert point_margin(cone, inside) > 0
        assert point_margin(cone, outside) < 0
        edge = cone.lateral_points(8, np.array([0.5]))[0]
        assert abs(point_margin(cone, edge)) < 1e-6

    def test_point_margin_matches_sampled_boundary_distance(self):
        rng = np.random.default_rng(43)
        for _ in range(12):
            cone = random_cone(rng)
            for pts in _inside_and_outside_points(rng, cone, 3):
                for p in pts:
                    got = point_margin(cone, p)
                    sampled = _sampled_boundary_distance(cone, p, 1.0)
                    # the samples lie on the boundary: an upper bound on the
                    # distance, and a tight one at this density
                    assert abs(got) <= sampled + 1e-12
                    assert sampled - abs(got) <= 1e-6 * (1.0 + abs(got))
                    assert (got > 0) == (cone.margin(p.tolist()) > 0.0)

    def test_point_margin_is_lorentz_invariant(self):
        # points within |p| <= 0.9 and maps of rapidity <= 1; nearer the
        # sphere the kernel's rounding error grows past 1e-12
        rng = np.random.default_rng(44)
        signs = set()
        for _ in range(100):
            cone = random_cone(rng)
            g = random_transform(rng)
            image = map_cone(g, cone)
            for _ in range(10):
                p = interior_point(rng, 0.9)
                q = lorentz_ball_action(g, BallPoint(p)).v
                before = point_margin(cone, p)
                assert abs(point_margin(image, q) - before) <= 1e-12
                signs.add(before > 0)
        assert signs == {True, False}

    def test_sample_points_are_members(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cone = random_cone(rng)
            pts = cone.sample_points(512, rng)
            assert np.all(cone.contains_many(pts, closed=True, slack=1e-12))


def _kernel_cases(rng):
    """Seeded cones, a sixth of them with the apex at the origin, each with
    random points of the ball, points of lateral chords from the apex to
    rim points, points at |p| = 1 - 1e-12, and the apex itself."""
    for i in range(600):
        cone = random_cone(rng, psi_max=1.4, psi_min=0.02, apex_r=0.95)
        if i % 6 == 0:
            cone = BallCone(BallPoint(np.zeros(3)), cone.base)
        rim = cone.base.boundary_points(10)
        s = rng.random((5, 1, 1))
        chords = cone.apex.v + s * (rim - cone.apex.v)
        near = (1.0 - 1e-12) * np.array([unit_vector(rng) for _ in range(20)])
        pts = np.vstack([rng.uniform(-1.0, 1.0, (120, 3)) / math.sqrt(3.0),
                         chords.reshape(-1, 3), near, cone.apex.v[None, :]])
        yield cone, pts


class TestExitKernel:
    def test_one_point_margin_is_the_array_row_to_the_bit(self):
        rng = np.random.default_rng(13)
        pairs = 0
        for cone, pts in _kernel_cases(rng):
            rows = cone.interior_margins(pts)
            got = [cone.margin(p) for p in pts.tolist()]
            assert got == rows.tolist()
            assert got[-1] == 0.0  # the apex
            pairs += len(got)
        assert pairs >= 100_000

    def test_membership_forms_are_sign_tests_on_the_margin(self):
        rng = np.random.default_rng(14)
        for cone, pts in _kernel_cases(rng):
            m = np.array([cone.margin(p) for p in pts.tolist()])
            for slack in (0.0, 1e-9):
                assert np.array_equal(cone.contains_many(pts, slack=slack),
                                      m > slack)
                assert np.array_equal(
                    cone.contains_many(pts, slack=slack, closed=True),
                    m >= -slack)
            for p, mm in zip(pts, m):
                assert contains_point(cone, BallPoint(p)) == (mm > 0.0)

    def test_apex_coincident_row_is_masked_without_a_floating_point_error(
            self):
        for apex in (np.zeros(3), np.array([0.3, -0.2, 0.1])):
            pts = np.array([apex, apex + 1e-15, apex + [0.0, 0.0, 0.5]])
            with np.errstate(all="raise"):
                exits, degenerate = ray_exits(apex, pts)
                cone = BallCone(BallPoint(apex), Cap(SphereDirection(Z), 0.5))
                margins = cone.interior_margins(pts)
            assert degenerate.tolist() == [True, True, False]
            assert np.all(np.isnan(exits[:2]))
            assert abs(float(exits[2] @ exits[2]) - 1.0) < 1e-15
            assert margins[:2].tolist() == [0.0, 0.0]


class TestConeOrder:
    def test_narrower_coaxial_cap_is_below(self):
        inner = simple_cone(0.1, 0.3)
        outer = simple_cone(0.1, 0.5)
        assert cone_leq(inner, outer).holds
        assert not cone_leq(outer, inner).holds

    def test_apex_must_lie_in_outer_closure(self):
        inner = BallCone(BallPoint(np.array([0.8, 0.0, 0.0])),
                         Cap(SphereDirection(Z), 0.2))
        outer = simple_cone(0.0, 0.4)
        res = cone_leq(inner, outer)
        assert not res.holds
        assert res.apex_margin < 0

    def test_apexes_within_rounding_share_a_zero_apex_margin(self):
        # no shared-apex rule in cone_leq: BallCone.margin reads 0.0 for
        # a point within 1e-14 of the apex
        outer = raw_cone([0.1, -0.2, 0.05], [0.0, 0.6, 0.8], 0.9)
        for gap in (0.0, 1e-16, 5e-15):
            apex = outer.apex.v + np.array([gap, 0.0, 0.0])
            assert math.dist(apex, outer.apex.v) == pytest.approx(
                gap, rel=0.2)
            res = cone_leq(raw_cone(apex, [0.0, 0.6, 0.8], 0.4), outer)
            assert res.apex_margin == 0.0 and res.holds

    def test_order_implies_membership(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 30:
            inner = random_cone(rng, psi_max=0.6)
            outer = random_cone(rng, psi_max=1.2)
            if not cone_leq(inner, outer).holds:
                continue
            pts = inner.sample_points(2000, rng)
            assert np.all(outer.contains_many(pts, closed=True, slack=1e-9))
            checked += 1

    def test_shrunk_chord_cone_is_below(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cone = random_cone(rng)
            # pull the apex toward the cap center along the central chord
            beta = 0.3
            apex = cone.apex.v + beta * (cone.base.axis.v - cone.apex.v)
            psi = cone.base.half_angle * 0.5
            if float(cone.base.axis.v @ apex) >= math.cos(psi) - 1e-9:
                continue
            sub = BallCone(BallPoint(apex), Cap(cone.base.axis, psi))
            assert cone_leq(sub, cone).holds

    def test_order_is_transitive(self):
        a = simple_cone(0.2, 0.25)
        b = simple_cone(0.1, 0.45)
        c = simple_cone(0.0, 0.7)
        assert cone_leq(a, b).holds and cone_leq(b, c).holds
        assert cone_leq(a, c).holds


def _segment_connector_midpoint(p0, p1, q0, q1):
    """Midpoint of the shortest connector between two segments."""
    d1, d2, r = p1 - p0, q1 - q0, p0 - q0
    a, e, f = float(d1 @ d1), float(d2 @ d2), float(d2 @ r)
    b, c = float(d1 @ d2), float(d1 @ r)
    den = a * e - b * b
    s = 0.0 if den < 1e-15 else min(1.0, max(0.0, (b * f - c * e) / den))
    t = 0.0 if e < 1e-15 else min(1.0, max(0.0, (b * s + f) / e))
    return 0.5 * ((p0 + s * d1) + (q0 + t * d2))


def _reference_overlap_candidates(k1, k2):
    """The structured candidates `disjoint` searched before the shrunk-hull
    decision settled every overlap alone: points toward the cap lens, along
    chords from each apex toward its cap ring, and an apex-chord ladder."""
    cands = [0.5 * (k1.centroid().v + k2.centroid().v),
             k1.centroid().v, k2.centroid().v,
             _segment_connector_midpoint(k1.apex.v, k1.base.axis.v,
                                         k2.apex.v, k2.base.axis.v)]
    for w in (0.25, 0.5, 0.75):
        m = slerp(k1.base.axis.v, k2.base.axis.v, w)
        for apex in (k1.apex.v, k2.apex.v):
            for t in (0.9, 0.99, 0.999):
                cands.append(apex + t * (m - apex))
    ladder = np.array([0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.93,
                       0.98, 0.997])
    for cone in (k1, k2):
        half = 0.5 * cone.base.half_angle
        ring = Cap(cone.base.axis, half).boundary_points(8) \
            if half > 1e-9 else np.empty((0, 3))
        dirs = np.vstack([cone.base.axis.v[None, :],
                          cone.base.boundary_points(8), ring])
        chords = (cone.apex.v
                  + ladder[:, None, None] * (dirs[None, :, :] - cone.apex.v))
        cands.append(chords.reshape(-1, 3))
    return np.vstack([np.atleast_2d(np.asarray(c)) for c in cands])


def _eager_disjoint_plane(k1, k2):
    """The separating plane of two separated cones as disjoint built it
    before the plane was deferred to its first read: the reference."""
    m = k1.apex_frame_scalars[:16]
    q = None
    if math.dist(k1.apex.v.tolist(), k2.apex.v.tolist()) > 1e-12:
        q = _act(m, k2.apex.v.tolist())
    (n1, c1, s1), (n2, c2, s2) = (
        _cap_seen(m, k.base.axis.v.tolist(), k.base.cos_half,
                  math.sin(k.base.half_angle)) for k in (k1, k2))
    psi1 = math.atan2(s1, c1)
    gap, x = _hull_gap(n1, psi1, q, n2, c2, s2)
    gens = [(n2, math.atan2(s2, c2))] + ([] if q is None else [(unit(q), 0.0)])
    best, side = -math.inf, None
    for arc in (min(0.5 * gap + psi1, 0.5 * math.pi), gap + psi1):
        w = (n1 if arc >= 0.5 * math.pi
             else turn(n1, x, arc - 0.5 * math.pi))
        clear = min(arc - psi1, *(
            math.asin(max(-1.0, min(1.0, -dot(w, g)))) - r for g, r in gens))
        if clear > best:
            best, side = clear, w
    return _plane(m, (0.0, *side))


def _eager_ball_plane(cone, ball):
    """The separating plane of a cone and a separated metric ball as
    cone_hyperball_disjoint built it before the deferral: the reference."""
    tau, radius = ball.shell.tau, ball.radius
    dist, _ = _frame_clearance(cone, ball.center.v.tolist(), tau)
    *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    n = (nx, ny, nz)
    c = _act(m, ball.center.v.tolist())
    ahead = [-a for a in c]
    if angle(c, n) - psi < 0.5 * math.pi:
        ahead = [-a for a in turn(n, c, psi + 0.5 * math.pi)]
    room, za = 1.0 - dot(c, c), dot(c, ahead)
    t = [za, *(room * a + za * b for a, b in zip(ahead, c))]
    size = math.sqrt(t[1] ** 2 + t[2] ** 2 + t[3] ** 2 - t[0] ** 2)
    s, g = 0.5 * (dist + radius) / tau, 1.0 / math.sqrt(room)
    normal = [math.sinh(s) * g * a + math.cosh(s) * b / size
              for a, b in zip((1.0, *c), t)]
    return _plane(m, normal)


def _same_plane(lazy, eager) -> bool:
    return (lazy[0].tobytes() == eager[0].tobytes()
            and struct.pack("d", lazy[1]) == struct.pack("d", eager[1]))


class TestDeferredPlane:
    def test_cone_plane_is_the_eager_plane_to_the_bit(self):
        rng = np.random.default_rng(311)
        pairs = [disjoint_cone_pair(rng) for _ in range(300)]
        shared = [(random_cone(rng, apex_r=0.0), random_cone(rng, apex_r=0.0))
                  for _ in range(300)]
        checked = 0
        for a, b in pairs + shared:
            try:
                res = disjoint(a, b)
            except DegenerateGeometry:
                continue
            if res.disjoint:
                assert _same_plane(res.plane, _eager_disjoint_plane(a, b))
                checked += 1
        assert checked > 350

    def test_ball_plane_is_the_eager_plane_to_the_bit(self, shell):
        rng = np.random.default_rng(312)
        checked = 0
        for _ in range(300):
            cone = random_cone(rng, psi_max=0.7)
            ball = ball_disjoint_from_cone(rng, cone, shell)
            res = cone_hyperball_disjoint(cone, ball)
            assert _same_plane(res.plane, _eager_ball_plane(cone, ball))
            checked += 1
        assert checked == 300

    def test_the_plane_is_built_once_and_only_when_read(self, monkeypatch):
        built = []

        def counted(m, n):
            built.append(n)
            return plane(m, n)

        plane = cone_module._plane
        monkeypatch.setattr(cone_module, "_plane", counted)
        rng = np.random.default_rng(313)
        pairs = [disjoint_cone_pair(rng) for _ in range(50)]
        assert all(constructions._is_disjoint(a, b) for a, b in pairs)
        assert all(disjoint(a, b).disjoint for a, b in pairs)
        assert not built
        res = disjoint(*pairs[0])
        assert res.plane is res.plane and len(built) == 1


class TestLineEntry:
    def test_entry_bounds_the_closed_hull_on_the_line(self):
        # r d lies in the closed cone exactly for r from the entry up to 1
        rng = np.random.default_rng(314)
        grid = np.linspace(-0.999, 0.999, 401)
        for _ in range(300):
            cone = random_cone(rng)
            n, psi = cone.base.axis.v, cone.base.half_angle
            d = rotate_toward(n, unit_vector(rng),
                              rng.uniform(0.0, 0.95) * psi)
            r0 = cone_module._line_entry(cone, d.tolist())
            assert -1.0 <= r0 < 1.0
            for r in grid:
                if abs(r - r0) > 1e-6:
                    inside = cone.margin((r * d).tolist()) >= -1e-12
                    assert inside == (r > r0)

    def test_line_through_the_apex_enters_at_the_apex(self):
        # the quadratic is taken about the line's point nearest the apex,
        # where its double root is 0 (worst 1.4e-15 here); as a double
        # root in r it was found to about the square root of its rounding
        # (worst 3.9e-7 on 3,000 such lines)
        rng = np.random.default_rng(315)
        for _ in range(300):
            n = unit_vector(rng)
            psi = rng.uniform(0.05, 1.4)
            s = rng.uniform(-0.9, math.cos(psi) - 1e-3)
            cone = BallCone(BallPoint(s * n), Cap(SphereDirection(n), psi))
            assert cone_module._line_entry(cone, n.tolist()) == \
                pytest.approx(s, abs=1e-14)


def _exact_chord(mp, q, n, c, d):
    """Ends of the stretch of {r d : -1 < r < 1} in the closed hull of the
    point q and the cap (n, c = cos psi) at mpmath's precision, the floats
    taken as exact, or None when the line misses it. The roots in r of
    |r U - W|^2 = (r A - B)^2 (cones._chord's A, B, U and W) cut the line
    with -1 and 1; the stretch joins the pieces whose middle lies in the
    hull, or is the one root where the hull only touches the line."""
    q, n, d = ([mp.mpf(v) for v in x] for x in (q, n, d))
    c = mp.mpf(c)

    def dot_(x, y):
        return sum(s * t for s, t in zip(x, y))
    a, b = dot_(d, n), dot_(q, n)
    u = [a * x + (c - b) * y for x, y in zip(q, d)]
    w = [c * x for x in q]
    qa, qb, qc = dot_(u, u) - a * a, dot_(u, w) - a * b, dot_(w, w) - b * b

    def g(r):
        y = [r * x - z for x, z in zip(u, w)]
        return r * a - b - mp.sqrt(dot_(y, y))
    disc = qb * qb - qa * qc
    roots = ([(qb + s * mp.sqrt(disc)) / qa for s in (-1, 1)]
             if qa != 0 and disc >= 0 else
             [qc / (2 * qb)] if qa == 0 and qb != 0 else [])
    roots = [r for r in roots if -1 < r < 1]
    cuts = sorted({mp.mpf(-1), mp.mpf(1), *roots})
    pieces = [(lo, hi) for lo, hi in zip(cuts, cuts[1:])
              if g((lo + hi) / 2) >= 0]
    if pieces:
        return pieces[0][0], pieces[-1][1]
    touch = [r for r in roots if g(r) >= -mp.mpf(10) ** -40]
    return (touch[0], touch[0]) if touch else None


def _chord_lines(rng, count):
    """Cones with half-angles 0.02 to 2.4 (wider than a hemisphere, as
    image caps in an apex frame can be) and apexes out to 0.9, and lines
    through the origin, in turn: through the apex, 1e-12 to 1e-4 off it,
    through the open cap, through its antipode, and in any direction."""
    for k in range(count):
        cone = random_cone(rng, psi_min=0.02, psi_max=2.4, apex_r=0.9)
        q, n, c = (cone.exit_scalars[:3], cone.exit_scalars[4:7],
                   cone.exit_scalars[7])
        sign = -1.0 if k % 5 == 3 or rng.random() < 0.5 else 1.0
        if k % 5 == 0:
            d = unit(q)
        elif k % 5 == 1:
            off = 10.0 ** rng.uniform(-12.0, -4.0) / math.sqrt(dot(q, q))
            d = turn(unit(q), unit_vector(rng).tolist(),
                     math.asin(min(1.0, off)))
        elif k % 5 == 4:
            d = unit_vector(rng).tolist()
        else:
            d = turn(n, unit_vector(rng).tolist(),
                     rng.uniform(0.0, 0.999) * cone.base.half_angle)
            sign = 1.0 if k % 5 == 2 else -1.0
        yield q, n, c, [sign * x for x in d]


class TestChord:
    """cones._chord, the one solver for a line through a cone's hull, and
    the overlap witnesses it gives disjoint where the line grazes an
    apex."""

    def test_chord_matches_a_60_digit_reference(self):
        # a line the reference misses gets no stretch; one it meets only
        # within the rounding (under 1e-16 long here) may get none
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(60)
        kinds = {"stretch": 0, "miss": 0}
        with mpmath.workdps(60):
            for q, n, c, d in _chord_lines(rng, 1000):
                lo, hi = cone_module._chord(q, n, c, d)
                exact = _exact_chord(mpmath.mp, q, n, c, d)
                if exact is None:
                    kinds["miss"] += 1
                    assert hi - lo <= 1e-12
                elif lo > hi:
                    assert exact[1] - exact[0] <= 1e-13
                else:
                    kinds["stretch"] += 1
                    assert abs(lo - exact[0]) <= 1e-13
                    assert abs(hi - exact[1]) <= 1e-13
        assert kinds["stretch"] >= 400 and kinds["miss"] >= 150, kinds

    def test_a_line_near_the_apex_gets_no_stretch_from_the_far_nappe(self):
        # the line passes 2.4e-12 from the apex, with neither end in the
        # cap, and misses the hull (a 60-digit reference agrees); both
        # roots lie on the far nappe, with r A - B at -6.6e-13 and
        # -9.6e-13, so the entry's -1e-12 side slack took them for a
        # stretch 4.4e-12 long
        q = (0.311284045152838, -0.4753141516405091, -0.6573663876515834)
        n = (-0.9557558784958349, -0.1916258021327155, -0.22318210653555628)
        d = (-0.3582590993298835, 0.5470425565247912, 0.756567815267185)
        lo, hi = cone_module._chord(q, n, 0.20474850962729238, d)
        assert hi - lo <= 0.0

    def test_a_flat_cone_keeps_the_entry_of_a_line_in_its_cap(self):
        # the apex sits 1.2e-10 below the base plane; the entry and the
        # far-nappe root nearly coincide, and the computed entry has r A - B
        # at -6.6e-12, so a side test on it, exact or with a -1e-12 slack,
        # dropped it and gave the whole line from -1 (60 digits: 0.6954...)
        q = (0.3233311282676674, -0.5478510097830179, 0.05650096447149528)
        n = (0.25941656159937504, -0.9651269163046504, -0.03511528146311517)
        d = (0.05491751582753332, -0.9099848371977989, 0.4109886403848993)
        lo, hi = cone_module._chord(q, n, 0.6106391580688106, d)
        assert abs(lo - 0.6954369960999072) <= 1e-9 and hi == 1.0

    def test_flat_cones_keep_the_entry_of_lines_in_their_caps(self):
        # apexes 1e-10 to 1e-8 below the base plane, as the pointedness
        # rule admits, and lines through the open cap: the entry is
        # conditioned like the near-double root it is, to about 5e-8
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(61)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(300):
                psi = rng.uniform(0.02, 2.4)
                n, c = unit_vector(rng).tolist(), math.cos(psi)
                h = c - 10.0 ** rng.uniform(-10.0, -8.0)
                across = turn(n, unit_vector(rng).tolist(), 0.5 * math.pi)
                r = math.sqrt(1.0 - h * h) * rng.uniform(0.0, 0.999)
                q = [h * a + r * b for a, b in zip(n, across)]
                d = turn(n, unit_vector(rng).tolist(),
                         rng.uniform(0.0, 0.999) * psi)
                lo, hi = cone_module._chord(q, n, c, d)
                exact = _exact_chord(mpmath.mp, q, n, c, d)
                assert hi == 1.0 and exact[1] == 1
                worst = max(worst, abs(lo - float(exact[0])))
        assert worst <= 2e-7, worst

    @pytest.mark.parametrize("rapidity", [None, 0.3, 0.7])
    def test_an_overlap_grazing_an_apex_has_a_witness(self, rapidity):
        # the witness ray grazes k2's apex, where the raw quadratic in r
        # lost its chord, and disjoint raised although the cones meet
        # 1.09e-7 deep
        k1 = BallCone(BallPoint([0.0, 0.0, 0.0]), Cap(
            SphereDirection([0.0, 0.0, 1.0]), 0.7900418615817949))
        k2 = BallCone(BallPoint([0.2131743794308754, -0.02568780297720696,
                                 0.21273162186626288]), Cap(SphereDirection(
            [0.9808011446742012, -0.11818787338081418,
             -0.15511525131816406]), 0.29344987876935513))
        if rapidity is not None:
            g = LorentzTransform.boost([0.3, -0.5, 0.8], rapidity)
            k1, k2 = map_cone(g, k1), map_cone(g, k2)
        res = disjoint(k1, k2)
        p = res.common_point.tolist()
        assert not res.disjoint and res.margin < -10.0 * WINDOW
        assert k1.margin(p) > WINDOW and k2.margin(p) > WINDOW
        assert res.margin == -min(k1.margin(p), k2.margin(p))

    def test_apex_grazing_family_meets_beyond_the_window_or_raises(self):
        # k2's apex lies 1e-9 to 1e-5 rad inside k1's boundary; its
        # points at log-uniform fractions of the way from the apex give a
        # sampled depth of the overlap, which lies near that apex
        rng = np.random.default_rng(11)
        points = np.random.default_rng(12)
        raised = 0
        for _ in range(1000):
            psi1, rho = rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.7)
            theta = psi1 - 10.0 ** rng.uniform(-9.0, -5.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            tilt = rng.uniform(-0.6, 0.2)
            k1 = BallCone(BallPoint(np.zeros(3)),
                          Cap(SphereDirection(Z), psi1))
            k2 = BallCone(BallPoint(rho * np.array(
                [math.sin(theta) * math.cos(phi),
                 math.sin(theta) * math.sin(phi), math.cos(theta)])),
                Cap(SphereDirection.normalized(
                    np.array([math.cos(phi), math.sin(phi), tilt])),
                    rng.uniform(0.1, 0.5)))
            base = k2.sample_points(2000, points)
            s = 10.0 ** points.uniform(-9.0, 0.0, size=2000)
            pts = k2.apex.v + s[:, None] * (base - k2.apex.v)
            sampled = float(np.max(np.minimum(k1.interior_margins(pts),
                                              k2.interior_margins(pts))))
            try:
                res = disjoint(k1, k2)
            except DegenerateGeometry:
                raised += 1
                assert sampled <= 2.0 * WINDOW
                continue
            p = res.common_point.tolist()
            assert not res.disjoint
            assert k1.margin(p) > WINDOW and k2.margin(p) > WINDOW
            assert -res.margin >= 0.5 * sampled
        assert raised <= 100, raised


class TestDisjointness:
    def test_mirror_cones_are_disjoint_with_plane(self):
        a = simple_cone(0.15, 0.45)
        b = BallCone(BallPoint(np.array([0.0, 0.0, -0.15])),
                     Cap(SphereDirection(-Z), 0.45))
        res = disjoint(a, b)
        assert res.disjoint
        w, c = res.plane
        # certificate: first cone on the positive side, second negative
        assert np.min(a.sample_points(500, np.random.default_rng(0)) @ w) \
            >= c - 1e-9
        assert np.max(b.sample_points(500, np.random.default_rng(0)) @ w) \
            <= c + 1e-9

    def test_random_disjoint_pairs_carry_valid_planes(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = disjoint_cone_pair(rng)
            res = disjoint(a, b)
            assert res.disjoint and res.margin > 0
            w, c = res.plane
            pa = a.sample_points(800, rng)
            pb = b.sample_points(800, rng)
            assert float(np.min(pa @ w)) >= c - 1e-9
            assert float(np.max(pb @ w)) <= c + 1e-9

    def test_overlapping_cones_report_common_point(self):
        a = simple_cone(0.0, 0.5)
        b = BallCone(BallPoint(np.array([0.1, 0.0, 0.0])),
                     Cap(SphereDirection(Z), 0.4))
        res = disjoint(a, b)
        assert not res.disjoint
        p = res.common_point
        assert bool(a.contains_many(p[None, :])[0])
        assert bool(b.contains_many(p[None, :])[0])

    def test_boosted_mirror_pair_overlapping_in_a_sliver(self):
        # a cone whose hull reaches x = 2e-7 through its cap and its mirror
        # through x = 0, both boosted (rapidity 0.26): the hulls overlap
        # only near the sphere, where GJK's |v| falls below 1e-6 before it
        # meets the overlap, so its duality-gap stop must be relative
        a = BallCone(
            BallPoint(np.array([-0.5068657699499255, 0.15206999750219155,
                                -0.2809432759397855])),
            Cap(SphereDirection.normalized(np.array(
                [-0.8626323090432146, 0.11018940229520628,
                 0.49368390192166184])), 0.8431585414444454))
        b = BallCone(
            BallPoint(np.array([0.16450749010740462, 0.16217966226917865,
                                -0.3207999649549833])),
            Cap(SphereDirection.normalized(np.array(
                [0.7950349791502652, 0.10242573708102111,
                 0.597853117672683])), 1.1167709642606347))
        res = disjoint(a, b)
        assert not res.disjoint
        assert res.margin < -10.0 * DEFAULT_TOLERANCES.degenerate_window
        p = res.common_point
        assert bool(a.contains_many(p[None, :])[0])
        assert bool(b.contains_many(p[None, :])[0])

    @pytest.mark.parametrize("pair", [
        (((0.04118881399647606, -0.00888462957721463, -0.06562960956115263),
          (-0.8671134960311356, 0.28861786361564, -0.40597279933833713),
          0.5346320356480766),
         ((0.0032724726162226157, 0.18589241971989515, -0.19931379680107975),
          (-0.6285399080060328, 0.24854338438504622, 0.73699645190611),
          0.3835353620779023)),
        (((-0.078859203228559, -0.28977284044825397, 0.1305050570800625),
          (0.09048507377394706, -0.9686345656231538, -0.23142931902455144),
          0.5857108625515601),
         ((-0.3228039820613493, -0.10689745490471174, -0.05684199600156856),
          (0.2179540802193491, -0.35357967944411955, 0.9096578638147044),
          0.5773045925888967)),
    ])
    def test_thin_overlap_past_the_candidates_has_a_deep_witness(self, pair):
        # overlaps from the acceptance suite's A6 paths that no structured
        # candidate reaches: the shrunk-hull decision must find a witness
        a, b = (raw_cone(*cone) for cone in pair)
        res = disjoint(a, b)
        assert not res.disjoint
        p = res.common_point
        depth = min(float(a.interior_margins(p[None, :])[0]),
                    float(b.interior_margins(p[None, :])[0]))
        assert depth > WINDOW
        assert res.margin == -depth

    def test_witness_is_within_a_factor_two_of_the_candidates(self):
        # the shrunk-hull witness against the structured candidates it
        # replaced: at least half as deep, deeper than the window in both
        # cones, and reported as minus its depth
        rng = np.random.default_rng(1109)
        overlapping = 0
        while overlapping < 1000:
            a, b = random_cone(rng, psi_max=0.7), random_cone(rng, psi_max=0.7)
            res = disjoint(a, b)
            if res.disjoint:
                continue
            overlapping += 1
            p = res.common_point
            depth = min(a.margin(p.tolist()), b.margin(p.tolist()))
            assert depth > WINDOW
            assert res.margin == -depth
            cands = _reference_overlap_candidates(a, b)
            depths = np.minimum(a.interior_margins(cands),
                                b.interior_margins(cands))
            depths[np.linalg.norm(cands, axis=1) >= 1.0] = -1.0
            assert depth >= 0.5 * float(np.max(depths))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rotated_mirror_pair_inside_the_window_raises(self, sign):
        # a cone whose hull reaches x = g through its cap and its mirror
        # through x = 0, at |g| a third of the window, then rotated
        rng = np.random.default_rng(44)
        g = sign * WINDOW / 3.0
        x = np.array([1.0, 0.0, 0.0])
        flip = np.array([-1.0, 1.0, 1.0])
        for _ in range(10):
            psi = rng.uniform(0.2, 1.0)
            az = rng.uniform(0.0, 2.0 * math.pi)
            v = np.array([0.0, math.cos(az), math.sin(az)])
            theta = psi + math.acos(g)
            axis = math.cos(theta) * x + math.sin(theta) * v
            apex = -rng.uniform(0.05, 0.4) * x - rng.uniform(0.0, 0.4) * v
            rot = LorentzTransform.rotation(unit_vector(rng),
                                            rng.uniform(0.0, 2.0 * math.pi))
            a = map_cone(rot, raw_cone(apex, axis, psi))
            b = map_cone(rot, raw_cone(apex * flip, axis * flip, psi))
            with pytest.raises(DegenerateGeometry):
                disjoint(a, b)

    def test_nested_cones_are_not_disjoint(self):
        outer = simple_cone(0.0, 0.8)
        inner = simple_cone(0.3, 0.2)
        assert not disjoint(inner, outer).disjoint

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_cone(rng)
            b = random_cone(rng)
            assert disjoint(a, b).disjoint == disjoint(b, a).disjoint


def _c09_pairs():
    """The cone pairs of acceptance criterion 9's draws: default_rng(109),
    random_cone(psi_max=0.7)."""
    rng = np.random.default_rng(109)
    return [(random_cone(rng, psi_max=0.7), random_cone(rng, psi_max=0.7))
            for _ in range(3000)]


def _hull(cone):
    return ConeHullSupport(cone.apex.v, cone.base.axis.v,
                           cone.base.half_angle)


def _mirror_pair(rng, g, rapidity):
    """A cone whose hull reaches x = g through its cap and its mirror image
    through x = 0, both moved by a rotation and a boost of the given
    rapidity: disjoint exactly when g < 0."""
    psi = rng.uniform(0.2, 1.0)
    apex_x, depth = -rng.uniform(0.05, 0.4), rng.uniform(0.0, 0.4)
    az = rng.uniform(0.0, 2.0 * math.pi)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, math.cos(az), math.sin(az)])
    theta = psi + math.acos(g)
    axis = math.cos(theta) * x + math.sin(theta) * v
    apex = apex_x * x - depth * v
    flip = np.array([-1.0, 1.0, 1.0])
    m = (LorentzTransform.rotation(unit_vector(rng),
                                   rng.uniform(0.0, 2.0 * math.pi))
         @ LorentzTransform.boost(unit_vector(rng), rapidity))
    return (map_cone(m, raw_cone(apex, axis, psi)),
            map_cone(m, raw_cone(apex * flip, axis * flip, psi)))


class TestContactAngles:
    """The angular decision in the first cone's apex frame against
    independent evidence."""

    def test_answers_match_gjk_on_the_hulls(self):
        for a, b in _c09_pairs():
            apart = gjk_distance(_hull(a), _hull(b)).distance > WINDOW
            assert disjoint(a, b).disjoint == apart
            assert disjoint(b, a).disjoint == apart

    def test_separated_margins_are_lorentz_invariant(self):
        rng = np.random.default_rng(1090)
        moved = 0
        for a, b in _c09_pairs()[:1000]:
            res = disjoint(a, b)
            if not res.disjoint:
                continue
            for _ in range(3):
                g = random_transform(rng)
                image = disjoint(map_cone(g, a), map_cone(g, b))
                assert abs(image.margin - res.margin) <= 1e-12
                moved += 1
        assert moved > 1500

    def test_margin_is_never_above_a_dense_angular_sample(self):
        # directions from the first apex to points of the second hull,
        # read in the first cone's apex frame, lie in S; none is nearer
        # the image axis than the margin says
        rng = np.random.default_rng(1091)
        checked = 0
        for a, b in _c09_pairs()[:300]:
            res = disjoint(a, b)
            if not res.disjoint:
                continue
            frame, cap = a.apex_frame
            pts = np.vstack([b.sample_points(2000, rng),
                             b.lateral_points(64, np.geomspace(1e-6, 1, 40)),
                             b.apex.v[None, :]])
            seen = ball_action_many(frame, pts)
            seen /= np.linalg.norm(seen, axis=1)[:, None]
            angles = np.arccos(np.clip(seen @ cap.axis.v, -1.0, 1.0))
            assert res.margin <= float(np.min(angles)) \
                - cap.half_angle + 1e-12
            checked += 1
        assert checked > 150

    def test_boosted_mirror_pairs_a_little_apart_are_disjoint(self):
        # boosted pairs whose hulls are 1e-8 to 1e-4 apart, log-uniform:
        # each of the 401 separated ones clears the window by ten times
        separated = 0
        for seed in (1, 9):
            rng = np.random.default_rng(seed)
            for _ in range(400):
                g = -math.exp(rng.uniform(math.log(1e-8), math.log(1e-4)))
                if rng.random() < 0.5:
                    g = -g
                a, b = _mirror_pair(rng, g, rng.uniform(0.0, 0.5))
                if g < 0.0:
                    res = disjoint(a, b)
                    assert res.disjoint and res.margin > 10.0 * WINDOW
                    separated += 1
        assert separated == 401


def _reference_overlap(k1, k2, m, q, inner):
    """The overlap search before the lens-depth seed: the shrunk-cone test
    bisected on log t from the window to 1 - cos psi, then the same
    witness at the middle of the chord (cones._chord). The reference for
    the seeded search, not for the chord."""
    def meets(t):
        caps = cone_module._caps(k1, k2, t, m)
        if caps is None or inner > t:
            return None if caps is None else (caps, None)
        hit = _hull_gap(caps[0], caps[1], q, *caps[2:])
        return (caps, hit) if hit[0] < 0.0 else None

    lo, hi = WINDOW, min(1.0 - k1.base.cos_half, 1.0 - k2.base.cos_half)
    found, depth = meets(lo) if lo < hi else None, -math.inf
    while found is not None and hi > 1.5 * lo:
        mid = math.sqrt(lo * hi)
        hit = meets(mid)
        lo, hi, found = (lo, mid, found) if hit is None else (mid, hi, hit)
    if found is not None:
        (n1, psi1, n2, c2, s2), hit = found
        d = n1 if hit is None else turn(
            hit[1], n2, min(-0.5 * hit[0], 0.5 * angle(hit[1], n2)))
        lo, hi = cone_module._chord(q or (0.0, 0.0, 0.0), n2, c2, d)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if lo < hi:
            r = 0.5 * (lo + hi)
            p = _act(_inverse(m), [r * a for a in d])
            if dot(p, p) < 1.0:
                depth = min(k1.margin(p), k2.margin(p))
    if depth <= WINDOW:
        raise DegenerateGeometry("cones meet only within the window")
    return cone_module.DisjointResult(False, -depth, np.array(p))


def _log_margin(rng):
    return math.exp(rng.uniform(math.log(1e-8), math.log(1e-2)))


def _shared_apex_overlap(rng):
    """Two cones with one apex whose caps overlap by an angle log-uniform
    in [1e-8, 1e-2] in the apex frame, moved by a seeded Lorentz map: the
    apex floats are equal, as both are the image of the origin."""
    psi1, psi2 = rng.uniform(0.15, 0.9, size=2)
    n1 = unit_vector(rng)
    gamma = psi1 + psi2 - _log_margin(rng)
    n2 = rotate_toward(n1, unit_vector(rng), gamma)
    g = random_transform(rng)
    return (map_cone(g, raw_cone(np.zeros(3), n1, psi1)),
            map_cone(g, raw_cone(np.zeros(3), n2, psi2)))


def _nested_pair(rng):
    """An outer cone and an inner one whose apex is an interior point of
    the outer cone's, with a cap near the outer axis."""
    while True:
        outer = random_cone(rng, psi_max=1.2)
        apex = outer.sample_points(1, rng)[0]
        axis = rotate_toward(outer.base.axis.v, unit_vector(rng),
                             rng.uniform(0.0, 0.5 * outer.base.half_angle))
        try:
            inner = raw_cone(apex, axis, rng.uniform(0.05, 0.8))
        except ValueError:
            continue
        return inner, outer


def _overlap_families(rng, count):
    """Seeded pairs of each family the overlap search meets: shared-apex,
    rotated and boosted mirror, nested (both orders) and random overlaps
    of wide cones."""
    for _ in range(count):
        yield _shared_apex_overlap(rng)
        yield _mirror_pair(rng, _log_margin(rng), rng.uniform(0.0, 0.5))
        inner, outer = _nested_pair(rng)
        yield inner, outer
        yield outer, inner
        yield random_cone(rng, psi_max=1.4), random_cone(rng, psi_max=1.4)


def _arc_lens_depth(k1, k2):
    """Ternary search of min(d.n1 - cos psi1, d.n2 - cos psi2) over the
    arc from n1 to n2 of the ball-frame caps."""
    n1, n2 = k1.base.axis.v, k2.base.axis.v
    gamma = angle_between(n1, n2)
    w = n2 - float(n2 @ n1) * n1
    w = (w / np.linalg.norm(w) if float(w @ w) > 0.0
         else orthonormal_frame(n1)[0])

    def depth(t):
        d = math.cos(t) * n1 + math.sin(t) * w
        return min(float(d @ n1) - k1.base.cos_half,
                   float(d @ n2) - k2.base.cos_half)
    lo, hi = 0.0, gamma
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if depth(m1) < depth(m2):
            lo = m1
        else:
            hi = m2
    return depth(0.5 * (lo + hi))


class TestOverlapSearch:
    """The overlap search seeded by the closed-form lens depth against the
    window-to-hi bisection it replaced."""

    def test_answers_and_witnesses_match_the_window_bisection(
            self, monkeypatch):
        rng = np.random.default_rng(3201)
        overlaps = 0
        for a, b in _overlap_families(rng, 200):
            with monkeypatch.context() as patch:
                patch.setattr(cone_module, "_overlap", _reference_overlap)
                ref = _outcome(disjoint, a, b)
            res = _outcome(disjoint, a, b)
            if isinstance(ref, type):
                assert res is ref
                continue
            assert isinstance(res, cone_module.DisjointResult)
            assert res.disjoint == ref.disjoint
            if res.disjoint:
                continue
            p = res.common_point.tolist()
            depth = min(a.margin(p), b.margin(p))
            assert a.margin(p) > WINDOW and b.margin(p) > WINDOW
            assert res.margin == -depth
            assert 1.0 / 1.5 <= res.margin / ref.margin <= 1.5
            overlaps += 1
        assert overlaps > 700

    def test_lens_depth_matches_a_ternary_search_on_the_arc(self):
        rng = np.random.default_rng(3202)
        origin = np.zeros(3)
        pairs = []
        for _ in range(300):
            pairs.append((raw_cone(origin, unit_vector(rng),
                                   rng.uniform(0.05, 1.5)),
                          raw_cone(origin, unit_vector(rng),
                                   rng.uniform(0.05, 1.5))))
            # one cap inside the other: the crossing clamps to an end
            n = unit_vector(rng)
            psi = rng.uniform(0.3, 1.5)
            small = rng.uniform(0.01, 0.2)
            inside = rotate_toward(n, unit_vector(rng),
                                   rng.uniform(0.0, psi - small))
            pairs.append((raw_cone(origin, n, psi),
                          raw_cone(origin, inside, small)))
            pairs.append((raw_cone(origin, inside, small),
                          raw_cone(origin, n, psi)))
            # axes within gamma -> 0, and equal
            near = rotate_toward(n, unit_vector(rng),
                                 10.0 ** rng.uniform(-12.0, -6.0))
            for axis in (near, n):
                pairs.append((raw_cone(origin, n, psi),
                              raw_cone(origin, axis, small)))
                pairs.append((raw_cone(origin, n, psi),
                              raw_cone(origin, axis, psi)))
        for a, b in pairs:
            assert abs(cone_module._lens_depth(a, b)
                       - _arc_lens_depth(a, b)) <= 1e-12

    def test_overlaps_take_at_most_two_level_tests(self, monkeypatch):
        # a silent return to the bisection from the window costs 7
        levels = []

        def counted(*args):
            levels.append(args[2])
            return caps(*args)

        caps = cone_module._caps
        monkeypatch.setattr(cone_module, "_caps", counted)
        rng = np.random.default_rng(3203)
        overlaps = 0
        for _ in range(300):
            for a, b in (_shared_apex_overlap(rng),
                         _mirror_pair(rng, _log_margin(rng),
                                      rng.uniform(0.0, 0.5))):
                levels.clear()
                res = _outcome(disjoint, a, b)
                if isinstance(res, type) or res.disjoint:
                    continue
                assert len(levels) <= 2, levels
                overlaps += 1
        assert overlaps > 500


class TestOpposite:
    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cone = random_cone(rng, psi_max=0.9)
            back = opposite(opposite(cone))
            assert abs(back.base.half_angle - cone.base.half_angle) < 1e-7
            assert float(back.base.axis.v @ cone.base.axis.v) > 1.0 - 1e-7

    def test_shares_apex_and_is_disjoint_from_source(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cone = random_cone(rng, psi_max=0.8, apex_r=0.5)
            opp = opposite(cone)
            assert np.array_equal(opp.apex.v, cone.apex.v)
            assert disjoint(cone, opp).disjoint

    def test_double_opposite_is_exact(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            cone = random_cone(rng, psi_max=1.4, apex_r=0.9)
            back = opposite(opposite(cone))
            assert np.array_equal(back.apex.v, cone.apex.v)
            assert angle_between(back.base.axis.v, cone.base.axis.v) <= 1e-12
            assert abs(back.base.half_angle - cone.base.half_angle) <= 1e-12

    def test_boundary_matches_homology_oracle(self):
        # the opposite cap's boundary circle is where the chords from the
        # apex through the source circle leave the sphere again
        rng = np.random.default_rng(31)
        for _ in range(200):
            cone = random_cone(rng, psi_max=1.4, apex_r=0.9)
            opp = opposite(cone)
            ends = homology_through_many(cone.apex.v,
                                         cone.base.boundary_points(32))
            angles = np.arccos(np.clip(ends @ opp.base.axis.v, -1.0, 1.0))
            assert float(np.max(np.abs(angles - opp.base.half_angle))) \
                <= 1e-12

    def test_centered_opposite_is_mirror(self):
        cone = BallCone(BallPoint(np.zeros(3)), Cap(SphereDirection(Z), 0.6))
        opp = opposite(cone)
        assert float(opp.base.axis.v @ Z) < -1.0 + 1e-9
        assert abs(opp.base.half_angle - 0.6) < 1e-9


# the enclosure ladder that the closed forms replaced, kept as their
# reference: pads widen the cap, depths rho pull the apex back to -rho
# times the axis
_ENCLOSURE_PADS = (0.05, 0.12, 0.25, 0.45, 0.7, 1.0, 1.35, 1.8, 2.2)
_ENCLOSURE_DEPTHS = (0.3, 0.6, 0.85, 0.97, 0.995, 0.9995)


def _enclosures(caps, apexes=None, axis=None):
    """Cones holding the caps in their caps and the apex points in their
    closed hulls, in the order to try them: pad by pad, then depth by
    depth, the apex -rho n on the given axis n (one cap) or the covering
    cap's, and the half-angle pad plus the larger need, the caps' widest
    angle from n or the widest from n to where the rays from -rho n
    through the apexes leave the sphere (ray_exits, once per depth).
    Rungs failing _cap_fits are skipped."""
    if axis is None:
        cover = _covering_cap([(c.axis.v.tolist(), c.half_angle)
                               for c in caps])
        if cover is None:
            return
        axis = SphereDirection(np.array(cover[0]))
    n = axis.v
    cap_need = max(angle_between(n, c.axis.v) + c.half_angle for c in caps)
    need = {}
    for pad in _ENCLOSURE_PADS:
        for rho in _ENCLOSURE_DEPTHS:
            if rho not in need and apexes is not None:
                exits, _ = ray_exits(-rho * n, np.asarray(apexes))
                need[rho] = max(cap_need, float(np.max(np.arccos(
                    np.clip(exits @ n, -1.0, 1.0)))))
            psi = need.get(rho, cap_need) + pad
            if _cap_fits(psi, -rho):
                yield BallCone(BallPoint(-rho * n), Cap(axis, psi))


def _covers_wherever_the_ladder_did(groups):
    """How many groups of cones some rung of the reference ladder holds,
    asserting that the hull enclosure (_enclosure) holds each of those by
    cone_leq too."""
    covered = 0
    for i, cones in enumerate(groups):
        caps, apexes = [k.base for k in cones], [k.apex.v for k in cones]
        if not any(all(cone_leq(k, rung) for k in cones)
                   for rung in _enclosures(caps, apexes)):
            continue
        covered += 1
        region = _enclosure(cones)
        assert region is not None, i
        assert all(cone_leq(k, region) for k in cones), i
    return covered


def _orbit(cone, gens):
    """Images of the cone under the words robust_enclosure_lorentz covers:
    the identity, each generator and its inverse, and products of two."""
    ring = [LorentzTransform.identity(),
            *(h for g in gens for h in (g, g.inverse()))]
    words = ring + [a @ b for a in ring for b in ring]
    return [map_cone(w, cone) for w in words]


class TestEnclosingCone:
    def test_covers_both_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = random_cone(rng, psi_max=0.6)
            b = random_cone(rng, psi_max=0.6)
            cover = enclosing_cone(a, b)
            if cover is None:
                continue
            assert cone_leq(a, cover).holds
            assert cone_leq(b, cover).holds

    def test_nested_pair_returns_outer(self):
        inner = simple_cone(0.2, 0.2)
        outer = simple_cone(0.0, 0.6)
        cover = enclosing_cone(inner, outer)
        assert cover is outer

    def test_opposed_wide_cones_admit_no_cover(self):
        x = np.array([1.0, 0.0, 0.0])
        a = BallCone(BallPoint(-0.3 * x), Cap(SphereDirection(x), 1.75))
        b = BallCone(BallPoint(0.3 * x), Cap(SphereDirection(-x), 1.75))
        assert enclosing_cone(a, b) is None

    def test_cover_reaches_past_the_apexes(self):
        # the 7th and 8th draws of seed 0: covers exist, yet a ladder
        # blind to where the apexes sit found none
        rng = np.random.default_rng(0)
        a, b = [random_cone(rng, psi_max=0.9) for _ in range(8)][6:]
        cover = enclosing_cone(a, b)
        assert cover is not None
        assert cone_leq(a, cover).holds and cone_leq(b, cover).holds

    def test_every_seeded_pair_is_covered(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for i in range(100):
                a, b = (random_cone(rng, psi_max=0.9) for _ in range(2))
                cover = enclosing_cone(a, b)
                assert cover is not None, (seed, i)
                assert cone_leq(a, cover).holds, (seed, i)
                assert cone_leq(b, cover).holds, (seed, i)

    def test_every_candidate_meets_both_needs(self):
        # the one candidate holds every cap in its cap and every apex in
        # its closed hull, before the caller certifies it
        rng = np.random.default_rng(31)
        for _ in range(40):
            cones = [random_cone(rng, psi_max=0.9)
                     for _ in range(rng.integers(1, 4))]
            region = _enclosure(cones)
            assert region is not None
            for k in cones:
                res = cone_leq(k, region)
                assert res.cap_margin >= -1e-9
                assert res.apex_margin >= -1e-9

    def test_covers_every_seeded_pair_the_ladder_covers(self):
        pairs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pairs += [[random_cone(rng, psi_max=0.9) for _ in range(2)]
                      for _ in range(100)]
        assert _covers_wherever_the_ladder_did(pairs) == 2000

    def test_covers_every_wide_pair_the_ladder_covers(self):
        rng = np.random.default_rng(32)
        pairs = [[random_cone(rng, psi_max=1.45, apex_r=0.9)
                  for _ in range(2)] for _ in range(2000)]
        assert _covers_wherever_the_ladder_did(pairs) == 2000

    def test_covers_every_orbit_the_ladder_covers(self):
        rng = np.random.default_rng(33)
        orbits = [_orbit(random_cone(rng),
                         [LorentzTransform.boost(unit_vector(rng),
                                                 rng.uniform(0.0, 0.8)),
                          LorentzTransform.rotation(unit_vector(rng),
                                                    rng.uniform(0.0, 1.0))])
                  for _ in range(1200)]
        assert _covers_wherever_the_ladder_did(orbits) == 1200


class TestHyperballPredicates:
    def test_ball_at_centroid_is_inside(self, shell):
        cone = simple_cone(0.0, 0.7)
        ball = Hyperball(shell, cone.centroid(), 0.1)
        assert hyperball_in_cone(ball, cone).holds

    def test_oversized_ball_is_not_inside(self, shell):
        cone = simple_cone(0.0, 0.4)
        ball = Hyperball(shell, cone.centroid(), 5.0)
        assert not hyperball_in_cone(ball, cone).holds

    def test_touching_ball_raises_degenerate(self, shell):
        cone = simple_cone(0.0, 0.7)
        center = cone.centroid()
        exact = _frame_clearance(cone, center.v.tolist(), shell.tau)[0]
        with pytest.raises(DegenerateGeometry):
            hyperball_in_cone(Hyperball(shell, center, exact), cone)

    def test_inclusion_margin_matches_metric(self, shell):
        cone = simple_cone(0.0, 0.7)
        ball = Hyperball(shell, cone.centroid(), 0.05)
        res = hyperball_in_cone(ball, cone)
        # margin should shrink by exactly the radius increase
        res2 = hyperball_in_cone(Hyperball(shell, cone.centroid(), 0.10),
                                 cone)
        assert res.margin - res2.margin == pytest.approx(0.05, abs=1e-9)

    def test_separated_ball_is_disjoint_from_cone(self, shell):
        cone = simple_cone(0.1, 0.4)
        ball = Hyperball(shell, BallPoint(np.array([0.0, 0.0, -0.5])), 0.2)
        assert cone_hyperball_disjoint(cone, ball).disjoint

    def test_overlapping_ball_is_not_disjoint(self, shell):
        cone = simple_cone(0.1, 0.4)
        ball = Hyperball(shell, cone.centroid(), 0.3)
        assert not cone_hyperball_disjoint(cone, ball).disjoint

    def test_ball_hull_past_the_apex_is_not_disjoint(self, shell):
        # a cone with apex -alpha z over a cap about z and a ball on the
        # -z axis whose hull pokes g past the apex, both moved by one
        # Lorentz map: the points just past the apex on the axis chord are
        # common, at cos-depth 1 - cos psi in the cone
        rng = np.random.default_rng(5)
        for _ in range(240):
            g = math.exp(rng.uniform(math.log(1e-8), math.log(1e-2)))
            alpha, psi = rng.uniform(0.0, 0.5), rng.uniform(0.3, 1.2)
            m = random_transform(rng, max_rapidity=0.5)
            cone = map_cone(m, simple_cone(-alpha, psi))
            zeta = min(alpha + rng.uniform(0.05, 0.3), 0.95)
            # the ball's top, at shell radius rho, is at z = g - alpha
            rho = math.atanh(zeta) + math.atanh(g - alpha)
            center = lorentz_ball_action(m, BallPoint(-zeta * Z))
            ball = Hyperball(shell, center, shell.tau * rho)
            res = cone_hyperball_disjoint(cone, ball)
            assert not res.disjoint
            p = res.common_point
            assert float(cone.interior_margins(p[None, :])[0]) > WINDOW
            ell = hyperball_ellipsoid(ball.center.v, ball.radius,
                                      ball.shell.tau)
            assert bool(ell.contains(p[None, :])[0])


    def test_separating_plane_clears_sampled_points_by_its_margin(
            self, shell):
        # the margin is the shell gap from the ball to the cone, and the
        # certificate the plane bisecting their common perpendicular: every
        # point of either body lies on its own side, at least half the
        # margin away in the shell metric
        rng = np.random.default_rng(12)
        dirs = rng.normal(size=(400, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        tau = shell.tau
        for _ in range(40):
            cone = random_cone(rng)
            ball = ball_disjoint_from_cone(rng, cone, shell,
                                           rng.uniform(0.05, 0.3))
            res = cone_hyperball_disjoint(cone, ball)
            assert res.disjoint
            gap = _reference_ball_in_cone(ball, cone)[1]  # -(D + R)
            gap = -gap - 2.0 * ball.radius
            assert abs(res.margin - gap) <= 1e-12
            w, c = res.plane
            ell = hyperball_ellipsoid(ball.center.v, ball.radius,
                                      ball.shell.tau)
            cone_pts = np.vstack([cone.sample_points(400, rng),
                                  cone.lateral_points(32,
                                                      np.linspace(0, 1, 9))])
            shrink = rng.random(400)[:, None]
            ball_pts = np.vstack([ell.boundary_points(dirs),
                                  ell.center + shrink
                                  * (ell.boundary_points(dirs) - ell.center)])
            for pts, sign in ((cone_pts, 1.0), (ball_pts, -1.0)):
                side = sign * (pts @ w - c)
                assert float(np.min(side)) > 0.0
                # sinh of the shell distance to the plane, off the sphere
                room = 1.0 - np.einsum("ij,ij->i", pts, pts)
                sinh = side[room > 0.0] / np.sqrt(room[room > 0.0]
                                                  * (1.0 - c * c))
                assert float(np.min(tau * np.arcsinh(sinh))) \
                    >= 0.5 * res.margin - 1e-12

    def test_ball_hull_just_past_the_window_from_the_apex_raises(
            self, shell):
        # a ball on the -z axis whose shell gap to the apex, its nearest
        # cone point, is a third of the window raises, and one at 4/3 of
        # it is disjoint by that gap; both turned by rotations and boosts
        rng = np.random.default_rng(13)
        for _ in range(20):
            alpha, psi = rng.uniform(0.0, 0.5), rng.uniform(0.3, 1.2)
            zeta = min(alpha + rng.uniform(0.05, 0.3), 0.95)
            m = random_transform(rng, max_rapidity=0.5)
            cone = map_cone(m, simple_cone(-alpha, psi))
            center = lorentz_ball_action(m, BallPoint(-zeta * Z))
            reach = shell.tau * (math.atanh(zeta) - math.atanh(alpha))
            with pytest.raises(DegenerateGeometry):
                cone_hyperball_disjoint(
                    cone, Hyperball(shell, center, reach - WINDOW / 3.0))
            gap = 4.0 * WINDOW / 3.0
            res = cone_hyperball_disjoint(
                cone, Hyperball(shell, center, reach - gap))
            assert res.disjoint
            assert res.margin == pytest.approx(gap, abs=1e-12)


def _inside_and_outside_points(rng, cone, n):
    """n points strictly inside the cone and n points outside its hull."""
    inside = cone.sample_points(n, rng)
    outside = []
    while len(outside) < n:
        p = interior_point(rng, 0.9)
        if cone.interior_margins(p[None, :])[0] < -1e-6:
            outside.append(p)
    return inside, np.array(outside)


def _searched_boundary_distance(cone, center, tau):
    """Reference value by direct search over the lateral surface: the
    closest point of a theta x s grid, polished by Nelder-Mead."""
    optimize = pytest.importorskip("scipy.optimize")
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    s_grid = np.concatenate([[0.0], np.geomspace(1e-3, 0.999, 23)])
    ring = cone.base.boundary_points(len(thetas))
    a = cone.apex.v
    pts = (a + s_grid[:, None, None] * (ring[None, :, :] - a)).reshape(-1, 3)
    dists = ball_distance_many(center.v, pts, tau)
    best = int(np.argmin(dists))

    def objective(x):
        th, s = x
        s = min(max(s, 0.0), 0.999999)
        q = a + s * (cone.base.boundary_point(th) - a)
        return float(ball_distance_many(center.v, q[None, :], tau)[0])

    start = np.array([thetas[best % len(thetas)],
                      s_grid[best // len(thetas)]])
    res = optimize.minimize(objective, start, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14,
                                     "maxiter": 400})
    return min(float(dists[best]), float(res.fun))


def _sampled_boundary_distance(cone, center, tau):
    """Least shell distance from center to lateral-surface samples: a theta
    x s grid (s dense toward the apex and toward the sphere), then finer
    grids zoomed in on the closest sample found so far."""
    a, n = cone.apex.v, cone.base.axis.v
    e1, e2 = orthonormal_frame(n)
    psi = cone.base.half_angle

    def closest(thetas, s):
        ring = math.cos(psi) * n + math.sin(psi) * (
            np.outer(np.cos(thetas), e1) + np.outer(np.sin(thetas), e2))
        pts = a + s[:, None, None] * (ring[None, :, :] - a)
        dists = ball_distance_many(center, pts.reshape(-1, 3), tau)
        best = int(np.argmin(dists))
        return (float(dists[best]), best // len(thetas),
                best % len(thetas))

    thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    tail = np.geomspace(1e-7, 0.5, 200)
    s = np.unique(np.concatenate([[0.0], tail, 1.0 - tail]))
    found, j, i = closest(thetas, s)
    # keep several grid steps either side of each closest sample: the
    # minimum may lie along a valley oblique to the grid
    th, dth = thetas[i], 4.0 * (thetas[1] - thetas[0])
    s_lo, s_hi = s[max(j - 4, 0)], s[min(j + 4, len(s) - 1)]
    for _ in range(16):
        thetas = th + np.linspace(-dth, dth, 41)
        s = np.linspace(s_lo, s_hi, 41)
        dist, j, i = closest(thetas, s)
        found = min(found, dist)
        th, dth = thetas[i], 8.0 * (thetas[1] - thetas[0])
        step = 8.0 * (s[1] - s[0])
        s_lo, s_hi = max(s[j] - step, 0.0), min(s[j] + step, 1.0)
    return found


class TestMinBoundaryDistance:
    def test_centred_apex_matches_right_triangle_relation(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = unit_vector(rng)
            psi = rng.uniform(0.1, 1.4)
            tau = rng.uniform(0.5, 2.0)
            cone = BallCone(BallPoint(np.zeros(3)),
                            Cap(SphereDirection(n), psi))
            r = rng.uniform(0.01, 3.0)
            # inside, outside within a right angle, and past a right angle
            for theta in (rng.uniform(0.0, psi),
                          psi + rng.uniform(0.0, 0.5 * math.pi),
                          rng.uniform(min(psi + 0.5 * math.pi, math.pi),
                                      math.pi)):
                d = rotate_toward(n, unit_vector(rng), theta)
                center = BallPoint(math.tanh(r) * d)
                gap = abs(psi - theta)
                want = tau * (math.asinh(math.sinh(r) * math.sin(gap))
                              if gap < 0.5 * math.pi else r)
                got = _frame_clearance(cone, center.v.tolist(), tau)[0]
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_never_exceeds_dense_lateral_sampling(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            cone = random_cone(rng)
            tau = rng.uniform(0.5, 2.0)
            for pts in _inside_and_outside_points(rng, cone, 5):
                for p in pts:
                    exact = _frame_clearance(cone, p.tolist(), tau)[0]
                    sampled = _sampled_boundary_distance(cone, p, tau)
                    # samples lie on the boundary: an upper bound, and a
                    # tight one at this density
                    assert exact <= sampled + 1e-12
                    assert sampled - exact <= 1e-6 * (1.0 + exact)

    def test_matches_grid_and_nelder_mead_search(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cone = random_cone(rng)
            tau = rng.uniform(0.5, 2.0)
            for pts in _inside_and_outside_points(rng, cone, 1):
                center = BallPoint(pts[0])
                exact = _frame_clearance(cone, center.v.tolist(), tau)[0]
                searched = _searched_boundary_distance(cone, center, tau)
                assert abs(exact - searched) <= 1e-9

    def test_point_rounding_onto_the_sphere_raises_degenerate(self):
        # the demo scene's cone B and a ball point 1.1e-16 inside the sphere
        # whose apex-frame image rounds to |p'| >= 1
        cone = BallCone(BallPoint(np.array([0.0, 0.0, -0.15])),
                        Cap(SphereDirection(-Z), math.radians(25.0)))
        c = [0.6, 0.0, 0.7999999999999999]
        assert math.sqrt(sum(a * a for a in c)) < 1.0
        with pytest.raises(DegenerateGeometry):
            _frame_clearance(cone, c, 1.0)
        ball = Hyperball(Hyperboloid(1.0), BallPoint(np.array(c)), 0.2)
        with pytest.raises(DegenerateGeometry):
            hyperball_in_cone(ball, cone)

    def test_points_at_the_sphere_return_or_raise_degenerate(self):
        # 1 - |p|^2 <= _ROUNDING (about 7.1e-15) raises; at 1e-14 from the
        # sphere the distance is finite
        rng = np.random.default_rng(45)
        raised = returned = 0
        for _ in range(200):
            cone = random_cone(rng, psi_max=1.4, psi_min=0.02, apex_r=0.95)
            for gap in (1e-14, 1e-15, 1e-16):
                p = (1.0 - gap) * unit_vector(rng)
                if not float(np.linalg.norm(p)) < 1.0:
                    continue
                try:
                    dist, _ = _frame_clearance(cone, p.tolist(), 1.0)
                except DegenerateGeometry:
                    raised += 1
                    continue
                assert math.isfinite(dist) and dist >= 0.0
                returned += 1
        assert raised > 0 and returned > 0


def _signed_clearance(cone, p, tau):
    boundary, inside = _frame_clearance(cone, p.tolist(), tau)
    return boundary if inside else -boundary


def _nested_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        outer = random_cone(rng, psi_min=0.4, psi_max=1.3)
        inner = random_cone(rng, psi_max=0.8)
        if cone_leq(inner, outer).holds:
            pairs.append((inner, outer, rng.uniform(0.5, 2.0)))
    return pairs


def _settles(inner, outer, tau, shift, value):
    """Whether _plane_margin rejects at `value`, a searched least value
    and so an upper estimate of it, and accepts 1e-12 max(1, |value|)
    below it; an unbounded value rejects at -inf."""
    if value == -math.inf:
        return not _plane_margin(inner, outer, tau, shift, floor=-math.inf)
    below = value - 1e-12 * max(1.0, abs(value))
    return (_plane_margin(inner, outer, tau, shift, floor=below)
            and not _plane_margin(inner, outer, tau, shift, floor=value))


def _settles_in_distance(inner, outer, tau, value):
    """Whether the unshifted _plane_margin rejects at `value`, a searched
    least value, and accepts where the clearance tau asinh of the value
    is 1e-12 lower."""
    clearance = tau * math.asinh(value)
    return (_plane_margin(inner, outer, tau,
                          floor=math.sinh((clearance - 1e-12) / tau))
            and not _plane_margin(inner, outer, tau,
                                  floor=math.sinh(clearance / tau)))


class TestConeClearance:
    """tau asinh of the unshifted _plane_margin is the least shell distance
    from inner to outer's boundary: each test decides it at a floor."""

    def test_never_above_the_dense_minimum(self):
        rng = np.random.default_rng(44)
        for inner, outer, tau in _nested_pairs(rng, 200):
            pts = np.vstack([inner.apex.v[None, :],
                             inner.sample_points(300, rng),
                             inner.lateral_points(32, np.linspace(0.0, 0.999,
                                                                  12))])
            sampled = min(_signed_clearance(outer, p, tau) for p in pts)
            # every sampled point is a point of inner: an upper bound
            assert not _plane_margin(
                inner, outer, tau, floor=math.sinh((sampled + 1e-12) / tau))

    def test_bound_agrees_with_2048_seeds(self):
        # a proved lower bound: never above the 2,048-seed search, and
        # within 1e-12 of it
        rng = np.random.default_rng(45)
        for inner, outer, tau in _nested_pairs(rng, 200):
            want = _numpy_plane_margin(inner, outer, tau, seeds=2048)
            assert _settles_in_distance(inner, outer, tau, want)

    def test_finds_the_narrow_dip_of_a_nearly_tangent_cap(self):
        # the caps are 0.0015 rad apart: the least value over the azimuth
        # has a narrow dip far out along a ray, between two of 16 seeds
        # whose values lie above a second, wider minimum at the apex
        inner = raw_cone([-0.06143032754263875, 0.054674336228019295,
                          0.037087510717826504],
                         [-0.08881577012772214, 0.012834670004347827,
                          0.9959653760159031], 0.02207068356785505)
        outer = raw_cone([0.17446518205620967, -0.5929872335134785,
                          -0.20532750147172676],
                         [-0.957311658325234, -0.04259643285264576,
                          0.28590196351690295], 1.2161504959973923)
        want = _numpy_plane_margin(inner, outer, 1.0, seeds=2048)
        assert _settles_in_distance(inner, outer, 1.0, want)
        pts = inner.lateral_points(256, 1.0 - np.geomspace(1e-6, 1.0, 60))
        sampled = min(_signed_clearance(outer, p, 1.0) for p in pts)
        assert not _plane_margin(inner, outer, 1.0,
                                 floor=math.sinh(sampled + 1e-12))

    def test_shared_apex_has_zero_clearance(self):
        cone = BallCone(BallPoint(np.array([0.1, -0.2, 0.05])),
                        Cap(SphereDirection(Z), 1.2))
        thin = BallCone(cone.apex, Cap(SphereDirection(Z), 0.1))
        assert _plane_margin(thin, cone, 1.3, floor=math.sinh(-1e-12 / 1.3))
        assert not _plane_margin(thin, cone, 1.3,
                                 floor=math.sinh(1e-12 / 1.3))

    def test_not_positive_when_inner_leaves_outer(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            outer = random_cone(rng, psi_max=0.8)
            inner = random_cone(rng, psi_max=0.8)
            if cone_leq(inner, outer).holds:
                continue
            assert not _plane_margin(inner, outer, 1.0,
                                     floor=math.sinh(1e-12))


def _enclosure_cases(rng, count):
    """(inner, region, tau, shift): a random cone moved to its apex frame,
    a random future-directed translation there, and the shadow enclosure
    (_shadow_enclosure) built for a random multiple, 0 to 2, of it. The
    region holds the shifted shadows for a multiple of 1 or more, and
    may fail to below."""
    cases = []
    for _ in range(count):
        inner = BallCone(BallPoint(np.zeros(3)),
                         random_cone(rng).apex_frame[1])
        tau = rng.uniform(0.5, 2.0)
        t0 = rng.uniform(0.05, 1.0)
        shift = np.concatenate(
            ([t0], rng.uniform(0.0, t0) * unit_vector(rng)))
        region = constructions._shadow_enclosure(
            inner, 0.0, tau, [rng.uniform(0.0, 2.0) * shift])
        cases.append((inner, region, tau, shift))
    return cases


def _shifted_escapes(inner, region, tau, shift):
    """Lifts of points of inner, shifted, that leave the completion of
    region: the axis and chords toward 72 directions at half, 0.9 and
    0.999 of the cap, out to 1e-9 from the sphere."""
    shell = Hyperboloid(tau)
    target = Hypercone(shell, region)
    t = FourVector.from_array(shift)
    n = inner.base.axis.v
    e1, e2 = orthonormal_frame(n)
    dirs = [n]
    for f in (0.5, 0.9, 0.999):
        theta = f * inner.base.half_angle
        for phi in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
            dirs.append(math.cos(theta) * n + math.sin(theta)
                        * (math.cos(phi) * e1 + math.sin(phi) * e2))
    s_values = np.concatenate((np.linspace(0.0, 0.95, 8),
                               1.0 - np.geomspace(1e-9, 0.05, 8)))
    escapes = 0
    for d in dirs:
        for s in s_values:
            x = lift_from_ball(BallPoint(inner.apex.v + s * (d - inner.apex.v)),
                               shell) + t
            try:
                escapes += not in_causal_completion(x, target)
            except DegenerateGeometry:
                escapes += 1
    return escapes


_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _circle_minimum(f, seeds: int, centres=(),
                    floor: float = -math.inf) -> float:
    """Least value of a function of an angle, searched for: `seeds`
    equally spaced angles, then golden-section search, to 1e-12 rad, on
    the bracket of neighbouring seeds around the best one, around every
    other strict local minimum among them, and around each of the given
    centres. The least seed value is returned unrefined when it is at or
    below `floor`. The search _plane_margin ran before its arc bound: a
    value it finds is an upper estimate of the least value, not a proof."""
    width = 2.0 * math.pi / seeds
    values = [f(i * width) for i in range(seeds)]
    found = min(values)
    if found <= floor:
        return found
    best = values.index(found)
    brackets = [((i - 1) * width, (i + 1) * width)
                for i, v in enumerate(values)
                if i == best or values[i - 1] > v < values[(i + 1) % seeds]]
    brackets += [(c - width, c + width) for c in centres]
    for lo, hi in brackets:
        x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        f1, f2 = f(x1), f(x2)
        while hi - lo > 1e-12:
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = f(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = f(x2)
        found = min(found, f1, f2)
    return found


def _numpy_plane_margin(inner, outer, tau, shift=(0.0, 0.0, 0.0, 0.0),
                        seeds=16, floor=-math.inf):
    """_plane_margin as it was before its arc bound, the reference: the
    apex frames as LorentzTransform objects, the carry product and the
    kappa terms as numpy products, the second centre from cap_image, no
    apex bound, and the golden-section search (_circle_minimum) over phi
    from `seeds` seeds and two analytic centres."""
    frame_k, cap_k = inner.apex_frame
    frame_r, cap_r = outer.apex_frame
    carry = (frame_k @ frame_r.inverse()).matrix[:, 1:]
    e1, e2 = orthonormal_frame(cap_r.axis.v)
    psi = cap_r.half_angle
    a = carry @ (math.sin(psi) * cap_r.axis.v)
    b = carry @ (-math.cos(psi) * e1)
    d = carry @ (-math.cos(psi) * e2)
    t = frame_k.matrix @ np.asarray(shift, dtype=float)
    t_row = np.array([t[0], -t[1], -t[2], -t[3]]) / tau
    ka = float(t_row @ a + t_row @ t / (2.0 * tau))
    kb, kd = float(t_row @ b), float(t_row @ d)
    a0, ax, ay, az = (a + t / tau).tolist()
    b0, bx, by, bz = b.tolist()
    d0, dx, dy, dz = d.tolist()
    nx, ny, nz = cap_k.axis.v.tolist()
    cos_k, sin_k = cap_k.cos_half, math.sin(cap_k.half_angle)

    def least(phi):
        c, s = math.cos(phi), math.sin(phi)
        alpha = -(a0 + c * b0 + s * d0)
        mx, my, mz = ax + c * bx + s * dx, ay + c * by + s * dy, \
            az + c * bz + s * dz
        size = math.sqrt(mx * mx + my * my + mz * mz)
        toward = -(mx * nx + my * ny + mz * nz)
        if toward >= size * cos_k:
            reach = size
        else:
            sx, sy, sz = my * nz - mz * ny, mz * nx - mx * nz, \
                mx * ny - my * nx
            reach = (toward * cos_k
                     + math.sqrt(sx * sx + sy * sy + sz * sz) * sin_k)
        p = alpha - reach
        if p < 0.0:
            return -math.inf
        kappa = ka + c * kb + s * kd
        if reach <= 0.0:
            return alpha - kappa
        return math.sqrt(p * (2.0 * alpha - p)) - kappa

    def centres():
        yield math.atan2(d0 + kd, b0 + kb)
        axis = cap_image(frame_r, inner.base).axis.v
        yield math.atan2(float(axis @ e2), float(axis @ e1))

    return _circle_minimum(least, seeds, centres(), floor)


def _shadow_ladder(cone, sigma, tau):
    """A9 on the reference ladder: the first rung that holds the cone's
    cross-shell shadow (constructions._shadow_inside), or None."""
    radius = shadow_radius(sigma, tau)
    return next((rung for rung in _enclosures(
        [cone.base], [cone.apex.v], cone.base.axis)
        if constructions._shadow_inside(cone, rung, radius, tau)), None)


def _translation_ladder(cone, tau, shift):
    """A13 on the reference ladder, in the cone's apex frame: the first
    rung that holds the cone by cone_leq and whose tangent-plane margin
    for the shift clears the window, or None."""
    frame, cap = cone.apex_frame
    inner = BallCone(BallPoint(np.zeros(3)), cap)
    t = frame.apply(shift).components
    return next((rung for rung in _enclosures([cap], axis=cap.axis)
                 if cone_module._plane_margin(inner, rung, tau, t,
                                              floor=WINDOW)
                 and cone_leq(inner, rung)), None)


def _construction_rungs(monkeypatch, seed=71):
    """(label, inner, outer, tau, shift) of every _plane_margin call that
    seeded A9, A10 and A13 instances make, and that the A9 and A13
    instances make on the reference ladder."""
    rungs, label = [], [None]
    real = cone_module._plane_margin

    def record(inner, outer, tau, shift=(0.0, 0.0, 0.0, 0.0), **kwargs):
        rungs.append((label[0], inner, outer, tau,
                      tuple(float(x) for x in shift)))
        return real(inner, outer, tau, shift, **kwargs)

    monkeypatch.setattr(cone_module, "_plane_margin", record)
    monkeypatch.setattr(constructions, "_plane_margin", record)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        label[0] = "A9"
        sigma, tau = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 2))
        cone = random_cone(rng)
        constructions.enclose_shadow(cone, sigma, tau)
        _shadow_ladder(cone, sigma, tau)
        label[0] = "A10"
        tau = rng.uniform(0.8, 1.5)
        constructions.shrink_across_shells(
            random_cone(rng, psi_min=0.5, apex_r=0.3),
            tau * rng.uniform(0.75, 1.35), tau)
    for _ in range(30):
        label[0] = "A13"
        tau, t0 = rng.uniform(0.7, 1.5), rng.uniform(0.2, 1.0)
        shift = FourVector.from_parts(
            t0, rng.uniform(0.0, 0.5) * t0 * unit_vector(rng))
        cone = random_cone(rng)
        constructions.translate_enclosure(cone, tau, [shift])
        _translation_ladder(cone, tau, shift)
    return rungs


def _reference_shadow_inside(inner, outer, radius, tau):
    """constructions._shadow_inside as it read with its apex pre-check:
    the clearance of inner's apex from outer's boundary, by the projective
    path (_projective_clearance), held above the radius by the window
    before the unshifted _plane_margin decides the whole cone."""
    apex = inner.exit_scalars[:3]
    floor = math.sinh((radius + WINDOW) / tau)
    return (bool(cone_leq(inner, outer))
            and _projective_clearance(outer, apex, tau) - radius > WINDOW
            and _plane_margin(inner, outer, tau, floor=floor))


def test_shadow_inside_decides_as_with_its_apex_pre_check():
    # _plane_margin's apex bound, its s = 0 term, decides the inequality
    # the pre-check decided: every A9 and A10 call of _construction_rungs
    # (rng 71-73) and _shadow_ladder gets the reference's answer, and on
    # some of them the pre-check alone rejected
    calls, real = [], constructions._shadow_inside

    def record(inner, outer, radius, tau):
        calls.append((inner, outer, radius, tau))
        return real(inner, outer, radius, tau)

    for seed in (71, 72, 73):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(constructions, "_shadow_inside", record)
            _construction_rungs(monkeypatch, seed)
    decided, pre_checked = set(), 0
    for inner, outer, radius, tau in calls:
        got = constructions._shadow_inside(inner, outer, radius, tau)
        assert got == _reference_shadow_inside(inner, outer, radius, tau)
        decided.add(got)
        pre_checked += (bool(cone_leq(inner, outer)) and _projective_clearance(
            outer, inner.exit_scalars[:3], tau) - radius <= WINDOW)
    assert decided == {True, False} and pre_checked > 0
    assert len(calls) >= 700


class TestPlaneMarginOnFloats:
    """The plain-float set-up and the apex bound against the numpy set-up
    they replace, on the rungs the constructions and the reference ladder
    try."""

    @pytest.fixture(scope="class")
    def rungs(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return _construction_rungs(monkeypatch)

    def test_enough_rungs_of_each_ladder(self, rungs):
        labels = [r[0] for r in rungs]
        assert len(rungs) >= 500
        assert {"A9", "A10", "A13"} <= set(labels)

    def test_full_search_matches_the_numpy_setup(self, rungs):
        # decisions on the plain-float terms settle within 1e-12 of the
        # numpy set-up's searched least value, on every rung
        for _, inner, outer, tau, shift in rungs:
            want = _numpy_plane_margin(inner, outer, tau, shift)
            assert _settles(inner, outer, tau, shift, want), want

    def test_window_decisions_match_the_numpy_setup(self, rungs):
        decided = set()
        for _, inner, outer, tau, shift in rungs:
            got = _plane_margin(inner, outer, tau, shift, floor=WINDOW)
            want = _numpy_plane_margin(inner, outer, tau, shift,
                                       floor=WINDOW)
            assert got == (want > WINDOW)
            decided.add(got)
        assert decided == {True, False}

    def test_apex_bound_is_never_below_the_least_value(self, rungs,
                                                       monkeypatch):
        # the apex bound rejects before any evaluation of the value: never
        # 1e-12 below the least value, and alone on a share of the rungs
        count = [0]
        real = cone_module._azimuth_terms

        def counted(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(cone_module, "_azimuth_terms", counted)
        cut = 0
        for _, inner, outer, tau, shift in rungs:
            least = _numpy_plane_margin(inner, outer, tau, shift)
            if least > -math.inf:
                assert _plane_margin(
                    inner, outer, tau, shift,
                    floor=least - 1e-12 * max(1.0, abs(least))), least
            count[0] = 0
            cut += (not _plane_margin(inner, outer, tau, shift, floor=WINDOW)
                    and count[0] == 0)
        assert cut > 0


def _wide_decisions(rng, count):
    """(inner, outer, tau, shift, floor) of _plane_margin decisions on the
    wide families of tests/test_constructions.py: psi up to 1.45, apexes
    out to 0.9, sigma/tau in [0.02, 50] and t0/tau in [0.1, 20]. The A9
    enclosure and the A10 core are built for the shadow radius R and
    tested against k R, and the A13 enclosure is built for the shift k t
    in the source's apex frame and tested against t, k in [0, 2], so
    that some decisions reject."""
    cases = []
    for _ in range(count):
        cone = random_cone(rng, psi_max=1.45, apex_r=0.9)
        tau = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        sigma = tau * math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
        radius = shadow_radius(sigma, tau)
        frame = cone.apex_frame_scalars[:16]
        grown = cone_module._map(_inverse(frame),
                                 constructions._shadow_enclosure(
                                     cone, radius, tau, ()))
        core = constructions.shrink_across_shells(cone, sigma, tau)
        for inner, outer in ((cone, grown), (core, cone)):
            floor = math.sinh((rng.uniform(0.0, 2.0) * radius + WINDOW)
                              / tau)
            cases.append((inner, outer, tau, (0.0, 0.0, 0.0, 0.0), floor))
        t0 = tau * math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
        x = [t0, *(rng.uniform(0.0, 0.9) * t0 * unit_vector(rng))]
        t = [sum(frame[4 * i + j] * x[j] for j in range(4)) for i in range(4)]
        try:
            region = constructions._shadow_enclosure(
                cone, 0.0, tau, [[rng.uniform(0.0, 2.0) * v for v in t]])
        except ConstructionFailure:
            continue
        inner = cone_module._cone((0.0, 0.0, 0.0),
                                  cone.apex_frame_scalars[16:19],
                                  cone.apex_frame_scalars[19])
        cases.append((inner, region, tau, tuple(t), WINDOW))
    return cases


class TestPlaneMargin:
    def test_wide_families_decide_as_the_search_and_within_the_cap(
            self, monkeypatch):
        # off the window every decision equals the 16-seed search's, and
        # no call reaches _SPLITS
        counts = []
        real = cone_module._azimuth_terms

        def counted(*args):
            counts[-1] += 1
            return real(*args)

        cases = (_wide_decisions(np.random.default_rng(68), 150)
                 + _wide_decisions(np.random.default_rng(5), 300))
        monkeypatch.setattr(cone_module, "_azimuth_terms", counted)
        decided, cap = set(), 8 + 3 * cone_module._SPLITS
        for inner, outer, tau, shift, floor in cases:
            counts.append(0)
            got = _plane_margin(inner, outer, tau, shift, floor=floor)
            assert counts[-1] < cap
            want = _numpy_plane_margin(inner, outer, tau, shift,
                                       floor=floor) > floor
            value = _numpy_plane_margin(inner, outer, tau, shift)
            if abs(value - floor) > WINDOW * max(1.0, floor):
                assert got == want, (value, floor)
            decided.add(got)
        assert decided == {True, False}

    def test_apex_frame_takes_every_cone_of_the_wide_families(self):
        # an A13 enclosure among them has its apex 1.2e-6 from the sphere,
        # where the boost's entries reach about 640
        for inner, outer, *_ in _wide_decisions(np.random.default_rng(68),
                                                150):
            for cone in (inner, outer):
                frame, cap = cone.apex_frame
                assert frame.matrix.ravel().tolist() == list(
                    cone.apex_frame_scalars[:16])
                assert cap.half_angle == cone.apex_frame_scalars[19]

    def test_certificates_take_at_most_twelve_evaluations(
            self, monkeypatch):
        # the golden-section search evaluated the least value about 195
        # times per call
        counts = []
        real = cone_module._azimuth_terms
        plane_margin = constructions._plane_margin

        def counted(*args):
            counts[-1] += 1
            return real(*args)

        def call(*args, **kwargs):
            counts.append(0)
            return plane_margin(*args, **kwargs)

        monkeypatch.setattr(cone_module, "_azimuth_terms", counted)
        monkeypatch.setattr(constructions, "_plane_margin", call)
        for label in ("A10", "A13"):
            for run in benchmark_instances(label, 100, 123):
                run()
        assert len(counts) == 200 and max(counts) <= 12

    def test_sign_agrees_with_dense_shifted_lifts(self):
        rng = np.random.default_rng(47)
        kinds = set()
        for inner, region, tau, shift in _enclosure_cases(rng, 100):
            inside = _plane_margin(inner, region, tau, shift, floor=0.0)
            escapes = _shifted_escapes(inner, region, tau, shift)
            assert inside == (escapes == 0), escapes
            kinds.add("inside" if inside else "outside"
                      if _plane_margin(inner, region, tau, shift,
                                       floor=-math.inf)
                      else "unbounded")
        assert kinds == {"inside", "outside", "unbounded"}

    def test_bound_never_above_4096_seeds(self):
        # shifted cases, some unbounded: the bound is never above the
        # 4,096-seed search, and within 1e-12 of it
        rng = np.random.default_rng(48)
        for inner, region, tau, shift in _enclosure_cases(rng, 100):
            dense = _numpy_plane_margin(inner, region, tau, shift,
                                        seeds=4096)
            assert _settles(inner, region, tau, shift, dense), dense

    def test_unshifted_margin_is_the_clearance(self):
        # constructions._shadow_inside reads tau asinh of the unshifted
        # margin as the clearance of inner from outer's boundary: off the
        # window its answer is that of the searched clearance
        rng = np.random.default_rng(49)
        decided = set()
        for inner, outer, tau in _nested_pairs(rng, 50):
            clearance = tau * math.asinh(
                _numpy_plane_margin(inner, outer, tau, seeds=2048))
            radius = rng.uniform(0.0, 2.0) * clearance
            gap = clearance - radius - WINDOW
            if abs(gap) > WINDOW:
                got = constructions._shadow_inside(inner, outer, radius, tau)
                assert got == (gap > 0.0), gap
                decided.add(got)
        assert decided == {True, False}

    def test_escaping_ideal_points_give_minus_infinity(self):
        # inner's apex is outer's: A = -t0/tau < 0 at every plane, B_min
        # = sin(0.5 - 0.1) > 0, and p = A + B_min < 0. The rays rise
        # toward the planes, then the growing shadows cross them
        inner = simple_cone(0.0, 0.1)
        outer = simple_cone(0.0, 0.5)
        shift = np.array([1.0, 0.0, 0.0, 0.0])
        assert not _plane_margin(inner, outer, 1.0, shift, floor=-math.inf)
        shell = Hyperboloid(1.0)
        far = lift_from_ball(BallPoint(np.array([0.0, 0.0, 1.0 - 1e-6])),
                             shell)
        assert not in_causal_completion(far + FourVector.from_array(shift),
                                        Hypercone(shell, outer))
        # a small enough shift keeps the ideal points inside: p > 0
        assert _plane_margin(inner, outer, 1.0, 0.1 * shift,
                             floor=-math.inf)


class TestCausalCompletion:
    def test_shell_points_of_cone_are_inside(self, shell):
        rng = np.random.default_rng(10)
        region = Hypercone(shell, simple_cone(0.0, 0.7))
        pts = region.cone.sample_points(100, rng)
        # stay clear of the boundary: completion membership is strict
        deep = pts[region.cone.interior_margins(pts) > 0.05]
        for u in deep[:40]:
            x = lift_from_ball(BallPoint(u), shell)
            assert in_causal_completion(x, region)

    def test_lifted_events_just_inside_are_members(self):
        # events lifted onto the shell have sigma = tau up to rounding, so
        # no shadow; 10^-8.5 to 10^-6 inside the cone in shell distance,
        # well outside the window, each must be a member
        rng = np.random.default_rng(830)
        for _ in range(830):
            cone = random_cone(rng)
            shell = Hyperboloid(rng.uniform(0.7, 1.5))
            frame, cap = cone.apex_frame
            depth = 10.0 ** rng.uniform(-8.5, -6.0) / shell.tau
            r = rng.uniform(0.3, 2.0)
            # sinh(depth) = sinh(r) sin(delta) for the angle delta inside
            delta = math.asin(math.sinh(depth) / math.sinh(r))
            d = rotate_toward(cap.axis.v, unit_vector(rng),
                              cap.half_angle - delta)
            u = ball_action_many(frame.inverse(),
                                 math.tanh(r) * d[None, :])[0]
            x = lift_from_ball(BallPoint(u), shell)
            assert in_causal_completion(x, Hypercone(shell, cone))

    def test_points_outside_cone_are_not_inside(self, shell):
        region = Hypercone(shell, simple_cone(0.1, 0.4))
        x = lift_from_ball(BallPoint(np.array([0.0, 0.0, -0.4])), shell)
        assert not in_causal_completion(x, region)

    def test_lightlike_events_are_never_inside(self, shell):
        region = Hypercone(shell, simple_cone(0.0, 0.9))
        x = FourVector.from_parts(1.0, (0.0, 0.0, 1.0))
        assert not in_causal_completion(x, region)

    def test_past_events_rejected(self, shell):
        region = Hypercone(shell, simple_cone(0.0, 0.9))
        with pytest.raises(ValueError):
            in_causal_completion(FourVector.from_parts(-1.0, (0, 0, 0)),
                                 region)

    def test_future_of_deep_point_stays_inside_awhile(self, shell):
        region = Hypercone(shell, simple_cone(0.0, 0.9))
        x = lift_from_ball(BallPoint(np.array([0.0, 0.0, 0.3])), shell)
        shifted = x + FourVector.from_parts(0.2, (0.0, 0.0, 0.0))
        assert in_causal_completion(shifted, region)


def _reference_ball_in_cone(ball, cone, tol=DEFAULT_TOLERANCES):
    """(holds, margin) by the composition the apex-frame kernel replaced:
    the ball action of the frame on one row, the angle through np.cross,
    and the exit-ray membership test of contains_many."""
    frame, cap = cone.apex_frame
    c = ball_action_many(frame, ball.center.v[None, :])[0]
    norm = float(np.linalg.norm(c))
    tau = ball.shell.tau
    if norm == 0.0:
        boundary = 0.0
    else:
        r = math.atanh(norm)
        gap = abs(angle_between(c / norm, cap.axis.v) - cap.half_angle)
        boundary = (tau * r if gap >= 0.5 * math.pi
                    else tau * math.asinh(math.sinh(r) * math.sin(gap)))
    inside = bool(cone.contains_many(ball.center.v[None, :])[0])
    margin = boundary - ball.radius if inside else -(boundary + ball.radius)
    if abs(boundary - ball.radius) <= tol.degenerate_window:
        raise DegenerateGeometry("reference: ball touches the boundary")
    return inside and boundary > ball.radius, margin


def _reference_completion(x, region, tol=DEFAULT_TOLERANCES):
    """Completion membership through BallPoint, Hyperball and the
    reference ball test above."""
    if not isinstance(x, FourVector):
        x = FourVector.from_array(np.asarray(x, dtype=float))
    if (x.x0 < float(np.linalg.norm(x.xs)) - tol.linear_identity
            or x.x0 <= 0.0):
        raise ValueError("reference: outside the closed forward cone")
    square = x.square()
    if square <= tol.linear_identity:
        return False
    sigma = math.sqrt(square)
    center = BallPoint(x.xs / x.x0)
    radius = shadow_radius(sigma, region.shell.tau)
    if radius <= 1e-15 * region.shell.tau:
        return contains_point(region.cone, center)
    ball = Hyperball(region.shell, center, radius)
    return _reference_ball_in_cone(ball, region.cone, tol)[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, DegenerateGeometry) as exc:
        return type(exc)


class TestCompletionKernel:
    """The closed-form apex-frame kernel against the reference
    composition, on events from every branch."""

    def _region(self, rng, apex_at_origin=False):
        cone = random_cone(rng)
        if apex_at_origin:
            cone = BallCone(BallPoint(np.zeros(3)), cone.base)
        return Hypercone(Hyperboloid(rng.uniform(0.7, 1.5)), cone)

    def _events(self, rng, region):
        """Seeded events of every branch, tagged with the branch."""
        cone, tau = region.cone, region.shell.tau
        pts = np.vstack([cone.sample_points(30, rng),
                         [interior_point(rng, 0.95) for _ in range(10)]])
        for p in pts:
            x = lift_from_ball(BallPoint(p), region.shell).components
            yield "lift", x * math.exp(rng.uniform(-0.3, 0.5))
        yield "past", np.array([-1.0, *(0.1 * unit_vector(rng))])
        yield "spacelike", np.array([0.5, *(0.9 * unit_vector(rng))])
        yield "lightlike", np.array([1.0, *unit_vector(rng)])
        yield "non-finite", np.array([math.inf, 0.0, 0.0, 0.0])
        yield "non-finite", np.array([math.nan, *(0.1 * unit_vector(rng))])
        # sigma = tau exactly: the shadow vanishes
        yield "sigma=tau", np.array([tau, 0.0, 0.0, 0.0])
        yield "sigma=tau", lift_from_ball(cone.centroid(),
                                          region.shell).components
        # the lift of the apex sits at the frame origin
        apex = lift_from_ball(cone.apex, region.shell).components
        yield "apex", apex * math.exp(rng.uniform(0.1, 0.5))
        # the shadow radius equals the boundary distance
        center = cone.centroid()
        d = _frame_clearance(cone, center.v.tolist(), tau)[0]
        sigma = tau * math.exp(d / tau)
        scale = sigma / math.sqrt(1.0 - float(center.v @ center.v))
        yield "window", scale * np.array([1.0, *center.v])

    def test_matches_reference_composition(self):
        rng = np.random.default_rng(43)
        seen = {}
        for k in range(60):
            region = self._region(rng, apex_at_origin=k % 4 == 0)
            for branch, x in self._events(rng, region):
                for event in (x, FourVector.from_array(x)):
                    got = _outcome(in_causal_completion, event, region)
                    want = _outcome(_reference_completion, event, region)
                    assert got == want, (branch, x)
                    seen.setdefault(branch, set()).add(
                        got if isinstance(got, type) else bool(got))
        assert seen["lift"] == {True, False}
        assert (seen["past"] == seen["spacelike"] == seen["non-finite"]
                == {ValueError})
        assert seen["lightlike"] == {False}
        assert seen["sigma=tau"] == {True, False}
        assert seen["apex"] == {False}
        assert seen["window"] == {DegenerateGeometry}

    def test_ball_center_rounding_onto_the_sphere_is_rejected(self):
        # inside the forward cone in floats, yet |x_s / x0| rounds to 1
        region = Hypercone(Hyperboloid(1.0), simple_cone(0.0, 0.7))
        x = FourVector(119349263.58184914, 81571858.03396149,
                       87122205.51855269, 0.0)
        assert _outcome(_reference_completion, x, region) is ValueError
        with pytest.raises(ValueError):
            in_causal_completion(x, region)

    @staticmethod
    def _wide_region(rng):
        cone = random_cone(rng, psi_max=1.45, apex_r=0.9)
        return Hypercone(Hyperboloid(math.exp(rng.uniform(-1.0, 1.0))), cone)

    @staticmethod
    def _wide_events(rng, region, n):
        """Lifts of points of the cone and of the ball, to shells with
        sigma / tau in [0.02, 50]."""
        pts = np.vstack([region.cone.sample_points(n, rng),
                         [interior_point(rng, 0.99) for _ in range(n)]])
        for p in pts:
            sigma = region.shell.tau * math.exp(
                rng.uniform(math.log(0.02), math.log(50.0)))
            yield (sigma / math.sqrt(1.0 - float(p @ p))
                   * np.array([1.0, *p]))

    def test_wide_family_matches_reference_off_the_window(self):
        rng = np.random.default_rng(45)
        seen = []
        for _ in range(150):
            region = self._wide_region(rng)
            for x in self._wide_events(rng, region, 10):
                want = _outcome(_reference_completion, x, region)
                if want is DegenerateGeometry:
                    continue
                for event in (x, FourVector.from_array(x)):
                    assert _outcome(in_causal_completion, event,
                                    region) == want, x
                seen.append(want)
        assert len(seen) > 2900 and 100 < sum(seen) < len(seen) - 100

    def test_lorentz_images_agree_off_the_window(self):
        rng = np.random.default_rng(46)
        seen = []
        for _ in range(150):
            region = self._wide_region(rng)
            g = random_transform(rng, max_rapidity=3.0)
            try:
                image = Hypercone(region.shell, map_cone(g, region.cone))
            except ValueError:  # the image cone rounds out of the ball
                continue
            for x in self._wide_events(rng, region, 5):
                before = _outcome(in_causal_completion, x, region)
                after = _outcome(in_causal_completion,
                                 g.apply(FourVector.from_array(x)), image)
                if DegenerateGeometry in (before, after):
                    continue
                assert before == after, x
                seen.append(before)
        assert len(seen) > 600 and 30 < sum(seen) < len(seen) - 30

    def test_ball_inclusion_matches_exit_ray_decision(self):
        rng = np.random.default_rng(44)
        holds = []
        for _ in range(40):
            cone = random_cone(rng)
            shell = Hyperboloid(rng.uniform(0.5, 2.0))
            for p in np.vstack(_inside_and_outside_points(rng, cone, 10)):
                ball = Hyperball(shell, BallPoint(p), rng.uniform(0.01, 1.0))
                try:
                    want, margin = _reference_ball_in_cone(ball, cone)
                except DegenerateGeometry:
                    continue
                got = hyperball_in_cone(ball, cone)
                assert got.holds == want
                assert got.margin == pytest.approx(margin, rel=1e-12,
                                                   abs=1e-12)
                holds.append(want)
        assert 0 < sum(holds) < len(holds)


def _completion_terms(x, cone, tau, lib=math):
    """The boundary distance tau asinh(|L| / s), the shadow radius tau
    asinh(R / s) and the sign of L, by in_causal_completion's arithmetic
    on the floats of x and of cone.lead_rows: rounded with lib=math, or
    exact to mpmath's precision with lib=mpmath.mp, which takes those
    floats as exact."""
    num = float if lib is math else lib.mpf
    x0, x1, x2, x3 = map(num, x)
    (n0, n1, n2, n3, p0, p1, p2, p3, q0, q1, q2, q3,
     cos_psi, sin_psi) = map(num, cone.lead_rows)
    tau = num(tau)
    along = n0 * x0 + n1 * x1 + n2 * x2 + n3 * x3
    p = p0 * x0 + p1 * x1 + p2 * x2 + p3 * x3
    q = q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3
    across = lib.sqrt(p * p + q * q)
    lead = sin_psi * along - cos_psi * across
    if cos_psi * along + sin_psi * across <= 0:
        size = lib.sqrt(along * along + p * p + q * q)
        lead = size if lead > 0 else -size
    square = x0 * x0 - (x1 * x1 + x2 * x2 + x3 * x3)
    sigma = lib.sqrt(square)
    reach = abs(square - tau * tau) / (2 * tau)
    return (tau * lib.asinh(abs(lead) / sigma),
            tau * lib.asinh(reach / sigma), lead > 0)


def _projective_clearance(cone, c, tau):
    """The shell distance from the ball point c to the cone's lateral
    boundary as _frame_clearance read it before the shared L kernel: the
    apex-frame image p' by a projective divide, r = atanh|p'|, the angle
    theta from n' by atan2, and tau asinh(sinh r sin|theta - psi'|), or
    tau r past a right angle. Raises DegenerateGeometry where |p'| rounds
    to 1 or more."""
    (m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23,
     m30, m31, m32, m33, nx, ny, nz, psi, _, _) = cone.apex_frame_scalars
    x, y, z = c
    den = m00 + m01 * x + m02 * y + m03 * z
    px = (m10 + m11 * x + m12 * y + m13 * z) / den
    py = (m20 + m21 * x + m22 * y + m23 * z) / den
    pz = (m30 + m31 * x + m32 * y + m33 * z) / den
    norm = math.sqrt(px * px + py * py + pz * pz)
    if norm == 0.0:
        return 0.0
    if norm >= 1.0:
        raise DegenerateGeometry("point rounds onto the sphere")
    px, py, pz = px / norm, py / norm, pz / norm
    sx, sy, sz = py * nz - pz * ny, pz * nx - px * nz, px * ny - py * nx
    theta = math.atan2(math.sqrt(sx * sx + sy * sy + sz * sz),
                       px * nx + py * ny + pz * nz)
    r = math.atanh(norm)
    gap = abs(theta - psi)
    if gap >= 0.5 * math.pi:
        return tau * r
    return tau * math.asinh(math.sinh(r) * math.sin(gap))


def _u_path_gap(x, cone, tau):
    """Boundary distance less shadow radius through the ball point u =
    x_s / x0, as the completion test read them before the one-sign form
    (_projective_clearance), or inf where that path raises."""
    x0, x1, x2, x3 = x
    square = x0 * x0 - (x1 * x1 + x2 * x2 + x3 * x3)
    try:
        boundary = _projective_clearance(
            cone, (x1 / x0, x2 / x0, x3 / x0), tau)
    except (ValueError, DegenerateGeometry):
        return math.inf
    return boundary - shadow_radius(math.sqrt(square), tau)


def test_completion_gap_accuracy_near_the_light_cone():
    """Error of the margin (boundary distance less shadow radius) against
    a 50-digit reference on the same floats, for events with 1 - |u| in
    decade bands from 1e-3 to 1e-12: within the window down to 1e-6, and
    below it no worse in any band than the u path's worst on the same
    events."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(47)
    with mpmath.workdps(50):
        for k in range(3, 12):
            worst = worst_u = 0.0
            for _ in range(300):
                region = TestCompletionKernel._wide_region(rng)
                cone, tau = region.cone, region.shell.tau
                u = (1.0 - 10.0 ** -rng.uniform(k, k + 1)) * unit_vector(rng)
                sigma = tau * math.exp(rng.uniform(-3.0, 3.0))
                x = (sigma / math.sqrt(1.0 - float(u @ u))
                     * np.array([1.0, *u])).tolist()
                boundary, radius, inside = _completion_terms(x, cone, tau)
                ref = _completion_terms(x, cone, tau, mpmath.mp)
                exact = float(ref[0] - ref[1])
                worst = max(worst, abs(boundary - radius - exact))
                worst_u = max(worst_u, abs(_u_path_gap(x, cone, tau) - exact))
                got = _outcome(in_causal_completion, x, region)
                if got is not DegenerateGeometry:
                    assert got == (inside and boundary > radius)
            if k < 6:
                assert worst <= WINDOW, (k, worst)
            else:
                assert worst <= worst_u, (k, worst, worst_u)


def _exact_clearance(mp, cone, c, tau):
    """The shell distance from the ball point c to the cone's lateral
    boundary at mpmath's precision, taking the floats of c, of the apex,
    of the cap axis and of the half-angle as exact. The apex frame
    (apex_matrix's closed form), the image cap (_cap_seen's covector) and
    L (_lead) are formed again from them, so the rounding of
    apex_frame_scalars counts as error."""
    ax, ay, az = map(mp.mpf, cone.exit_scalars[:3])
    n = [mp.mpf(v) for v in cone.exit_scalars[4:7]]
    size = mp.sqrt(sum(v * v for v in n))
    n = [v / size for v in n]
    psi = mp.mpf(cone.base.half_angle)
    g = 1 / mp.sqrt(1 - (ax * ax + ay * ay + az * az))
    h = g * g / (g + 1)
    rows = [(g, -g * ax, -g * ay, -g * az)] + [
        (-g * p, *(h * p * q + (i == j) for j, q in enumerate((ax, ay, az))))
        for i, p in enumerate((ax, ay, az))]
    k = [r[0] * mp.cos(psi) + sum(a * b for a, b in zip(r[1:], n))
         for r in rows]
    size = mp.sqrt(k[1] ** 2 + k[2] ** 2 + k[3] ** 2)
    axis = [v / size for v in k[1:]]
    cos_k, sin_k = k[0] / size, mp.sin(psi) / size
    x = [mp.mpf(1), *map(mp.mpf, c)]
    y = [sum(a * b for a, b in zip(r, x)) for r in rows[1:]]
    along = sum(a * b for a, b in zip(y, axis))
    across = mp.sqrt(sum(a * a for a in y) - along * along)
    lead = sin_k * along - cos_k * across
    if cos_k * along + sin_k * across <= 0:
        lead = mp.sqrt(sum(a * a for a in y))
    square = 1 - sum(a * a for a in x[1:])
    return mp.mpf(tau) * mp.asinh(abs(lead) / mp.sqrt(square))


def test_frame_clearance_accuracy_near_the_sphere():
    """Error of _frame_clearance against a 50-digit reference, for points
    with 1 - |c| in decade bands from 1e-3 to 1e-12 and cones with apexes
    out to 0.9: within the window down to the band [1e-7, 1e-6], and in
    every band no worse than the worst of the projective path it replaced
    (a raise counts as an infinite error)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(50)
    with mpmath.workdps(50):
        for k in range(3, 12):
            worst = worst_projective = 0.0
            for _ in range(300):
                cone = random_cone(rng, psi_min=0.02, psi_max=1.4,
                                   apex_r=0.9)
                c = ((1.0 - 10.0 ** -rng.uniform(k, k + 1))
                     * unit_vector(rng)).tolist()
                exact = _exact_clearance(mpmath.mp, cone, c, 1.0)
                worst = max(worst, abs(_frame_clearance(cone, c, 1.0)[0]
                                       - exact))
                projective = _outcome(_projective_clearance, cone, c, 1.0)
                worst_projective = max(
                    worst_projective, math.inf if projective is
                    DegenerateGeometry else abs(projective - exact))
            if k <= 6:
                assert worst <= WINDOW, (k, worst)
            assert worst <= worst_projective, (k, worst, worst_projective)


class TestMapCone:
    def test_membership_is_equivariant(self, shell):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cone = random_cone(rng, psi_max=0.8)
            g = random_transform(rng)
            image = map_cone(g, cone)
            pts = cone.sample_points(200, rng)
            mapped = np.array([lorentz_ball_action(g, BallPoint(p)).v
                               for p in pts])
            assert np.all(image.contains_many(mapped, closed=True,
                                              slack=1e-7))

    def test_identity_is_neutral(self):
        cone = simple_cone(0.1, 0.5)
        image = map_cone(LorentzTransform.identity(), cone)
        assert np.max(np.abs(image.apex.v - cone.apex.v)) < 1e-12
        assert abs(image.base.half_angle - cone.base.half_angle) < 1e-9


directions = st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: np.array(v) / np.linalg.norm(v))

transforms = st.builds(
    lambda l, chi, r, angle: (LorentzTransform.rotation(r, angle)
                              @ LorentzTransform.boost(l, chi)),
    directions, st.floats(-1.5, 1.5), directions,
    st.floats(0.0, 2.0 * math.pi))


@st.composite
def cones(draw):
    axis = draw(directions)
    psi = draw(st.floats(0.12, 1.2))
    apex = draw(st.floats(0.0, 0.6)) * draw(directions)
    assume(float(axis @ apex) < math.cos(psi) - 1e-6)
    return BallCone(BallPoint(apex), Cap(SphereDirection(axis), psi))


@st.composite
def cone_pairs(draw):
    """Two cones; half the time the first is drawn inside the second."""
    outer = draw(cones())
    if draw(st.booleans()):
        return draw(cones()), outer
    psi = draw(st.floats(0.1, 0.9)) * outer.base.half_angle
    tilt = draw(st.floats(0.0, 1.0)) * (outer.base.half_angle - psi)
    axis = rotate_toward(outer.base.axis.v, draw(directions), tilt)
    apex = outer.apex.v + draw(st.floats(0.0, 0.9)) * (
        outer.base.axis.v - outer.apex.v)
    assume(float(axis @ apex) < math.cos(psi) - 1e-6)
    inner = BallCone(BallPoint(apex),
                     Cap(SphereDirection.normalized(axis), psi))
    return inner, outer


# k2's apex lies on k1's axis, inside the open k1, so the cones meet for
# every e > 0; at e = 6.03e-13 a Euclidean coincidence threshold of 1e-12
# said they meet, and disjoint after a rapidity-1 boost along z
_NEAR_APEXES = (raw_cone([6.03e-13, 0.0, 0.0], [-1.0, 0.0, 0.0], 1.0),
                raw_cone([-6.03e-13, 0.0, 0.0], [0.0, 0.0, 1.0], 0.5))


class TestLorentzInvariance:
    """Outside the degenerate window the predicates answer the same for
    a pair of cones and for its image under a Lorentz map."""

    @settings(max_examples=200, deadline=None)
    @given(cone_pairs(), transforms)
    @example(_NEAR_APEXES, LorentzTransform.boost(Z, 1.0))
    def test_disjoint(self, pair, g):
        a, b = pair
        try:
            before = disjoint(a, b).disjoint
            after = disjoint(map_cone(g, a), map_cone(g, b)).disjoint
        except DegenerateGeometry:
            reject()
        assert before == after

    def test_disjoint_near_apexes_agree_or_raise_in_every_frame(self):
        """Apexes 1e-14 to 1e-8 apart in the ball, seen in five frames
        boosted up to rapidity 3: every frame gives one answer, or every
        frame raises DegenerateGeometry."""
        rng = np.random.default_rng(48)
        seen = set()
        for _ in range(300):
            k1 = random_cone(rng)
            apex = k1.apex.v + 10.0 ** rng.uniform(-14.0, -8.0) * \
                unit_vector(rng)
            while True:
                axis, psi = unit_vector(rng), rng.uniform(0.12, 1.0)
                if float(axis @ apex) < math.cos(psi) - 1e-6:
                    break
            k2 = BallCone(BallPoint(apex), Cap(SphereDirection(axis), psi))
            outcomes = {_outcome(lambda a, b: disjoint(a, b).disjoint,
                                 map_cone(g, k1), map_cone(g, k2))
                        for g in [LorentzTransform.identity()] + [
                            random_transform(rng, max_rapidity=3.0)
                            for _ in range(4)]}
            assert len(outcomes) == 1, outcomes
            seen |= outcomes
        assert seen == {True, False, DegenerateGeometry}

    @settings(max_examples=200, deadline=None)
    @given(cone_pairs(), transforms)
    def test_cone_leq(self, pair, g):
        a, b = pair
        assert (cone_leq(a, b).holds
                == cone_leq(map_cone(g, a), map_cone(g, b)).holds)
