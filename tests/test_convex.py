"""GJK on float triples: the closed-form simplex step and sphere distances."""

import math

import numpy as np
import pytest

from hypercones import BallCone, BallPoint, Cap, SphereDirection, disjoint
from hypercones.convex import (ConeHullSupport, Ellipsoid,
                               _closest_on_simplex, gjk_distance)


def _reference_closest(points):
    """The enumerate-and-solve step GJK used before the closed forms: the
    least-norm feasible minimizer over every face, one linear solve each."""
    n = len(points)
    best = None
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        p = np.array([points[i] for i in idx])
        k = len(idx)
        a = np.zeros((k + 1, k + 1))
        a[:k, :k] = 2.0 * (p @ p.T)
        a[:k, k] = 1.0
        a[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        lam = sol[:k]
        if np.any(lam < -1e-12):
            continue
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        v = lam @ p
        norm = float(v @ v)
        if best is None or norm < best[0] - 1e-18:
            best = (norm, v)
    return best[1]


def _simplices(rng):
    """Seeded 1-4 point simplices, generic and degenerate."""
    def pt():
        return rng.normal(size=3)

    out = []
    for _ in range(40):
        a, b, c, d = pt(), pt(), pt(), pt()
        u = rng.normal(size=3)
        out += [[a], [a, b], [a, b, c], [a, b, c, d],
                # duplicates
                [a, a], [a, b, a], [a, b, c, b],
                # collinear
                [a, a + u, a + 2.5 * u], [a, a + u, a - 0.7 * u, a + 3 * u],
                # coplanar
                [a, b, c, a + 0.3 * (b - a) + 1.7 * (c - a)]]
        # nearly flat: d sits ~1e-14 off the plane of a, b, c
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n)
        out.append([a, b, c, a + 0.4 * (b - a) + 0.9 * (c - a) + 3e-14 * n])
        # holding the origin: shift a simplex by a point of its interior
        w = rng.dirichlet(np.ones(4))
        centre = w @ np.array([a, b, c, d])
        out.append([a - centre, b - centre, c - centre, d - centre])
        out.append([a - 0.5 * (a + b), b - 0.5 * (a + b)])
        w3 = rng.dirichlet(np.ones(3))
        centre = w3 @ np.array([a, b, c])
        out.append([a - centre, b - centre, c - centre])
    return out


class TestSimplexStep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_enumerate_and_solve(self, seed):
        for pts in _simplices(np.random.default_rng(seed)):
            triples = [tuple(p.tolist()) for p in pts]
            v, lam, keep = _closest_on_simplex(triples)
            v = np.array(v)
            ref = _reference_closest(pts)
            # v is a convex combination of the kept points ...
            assert len(set(keep)) == len(keep) == len(lam)
            assert min(lam) >= 0.0
            assert abs(sum(lam) - 1.0) <= 1e-12
            combo = sum(l * pts[i] for l, i in zip(lam, keep))
            assert np.linalg.norm(combo - v) <= 1e-12
            # ... and the least-norm one, as the reference finds it
            assert np.linalg.norm(v) <= np.linalg.norm(ref) + 1e-12
            assert np.linalg.norm(v - ref) <= 1e-9

    def test_origin_inside_tetrahedron(self):
        pts = [(1.0, 0.0, -0.5), (-1.0, 1.0, -0.5), (-1.0, -1.0, -0.5),
               (0.0, 0.0, 2.0)]
        v, lam, keep = _closest_on_simplex(pts)
        assert v == (0.0, 0.0, 0.0)
        assert keep == [0, 1, 2, 3]
        assert abs(sum(lam) - 1.0) <= 1e-15 and min(lam) > 0.0

    def test_nearly_flat_tetrahedron_from_gjk(self):
        # Minkowski-difference points of the cone pair below, met by GJK
        # near convergence: |det| / (|ab| |ac| |ad|) is about 4e-16, and
        # barycentrics from signed volumes reach 1e10 in size
        pts = [(-0.02700724868335179, 0.33668241928850917,
                -0.3622131088468613),
               (-0.22627668997190875, -0.6123939985219697,
                0.046016090172972035),
               (-0.22628670533931927, -0.6123889426048517,
                0.04602027643814349),
               (-0.22628169764242428, -0.6123914705754931,
                0.04601818335098973)]
        v, lam, keep = _closest_on_simplex(pts)
        ref = _reference_closest([np.array(p) for p in pts])
        assert len(keep) < 4
        assert np.linalg.norm(np.array(v) - ref) <= 1e-9
        assert np.linalg.norm(v) > 0.2


def _cone(apex, axis, psi):
    return BallCone(BallPoint(np.array(apex)),
                    Cap(SphereDirection.normalized(np.array(axis)), psi))


def _hull(cone):
    """Support map of a cone's closed hull, for GJK as an oracle."""
    return ConeHullSupport(cone.apex.v, cone.base.axis.v,
                           cone.base.half_angle)


class TestDisjointOnFlatSimplex:
    def test_pair_stays_disjoint(self):
        # drawn as in c09 (default_rng(109), random_cone(psi_max=0.7)),
        # the pair whose GJK run meets the nearly flat tetrahedron above
        a = _cone([0.12202985249076977, 0.28940381509411334,
                   -0.20980270474825102],
                  [-0.20414650920338392, -0.974756983164906,
                   0.09040479274531825], 0.2360095093897078)
        b = _cone([0.14903710117412156, -0.04727860419439585,
                   0.15241040409861029],
                  [0.4793779014214944, 0.8726761083579089,
                   0.09291521689163415], 0.3758978010630157)
        # the angular decision agrees with GJK on the hulls, which still
        # converges on this pair
        result = disjoint(a, b)
        assert result.disjoint
        assert result.margin == pytest.approx(0.45036, abs=1e-5)
        gjk = gjk_distance(_hull(a), _hull(b))
        assert gjk.distance == pytest.approx(0.22906, abs=1e-5)

    def test_boosted_pair_has_no_false_contact(self):
        # pair 3,489 of default_rng(0): random_cone(psi_min=0.02,
        # psi_max=1.4, apex_r=0.95) twice, both moved by one
        # random_transform(rng, 1.5). GJK met a cap support point off the
        # sphere there and closed a simplex around the origin.
        apex_a = [-0.2808587896194788, -0.2712680477516094,
                  -0.42427008768224483]
        axis_a = [0.0606511778430849, -0.670773697864602, 0.739177976457155]
        psi_a = 0.03586511859009482
        apex_b = [-0.6192505546278664, 0.1085854788733794,
                  0.005033522834062567]
        axis_b = [-0.7482755959239239, 0.09112467671983891,
                  -0.6570996315912842]
        psi_b = 0.9376622941961551
        result = disjoint(_cone(apex_a, axis_a, psi_a),
                          _cone(apex_b, axis_b, psi_b))
        assert result.disjoint
        assert result.margin == pytest.approx(1.11923, abs=1e-5)
        gjk = gjk_distance(ConeHullSupport(apex_a, axis_a, psi_a),
                           ConeHullSupport(apex_b, axis_b, psi_b))
        assert gjk.distance > 0.0


def _sphere(center, radius):
    return Ellipsoid(np.asarray(center, dtype=float),
                     np.array([0.0, 0.0, 1.0]), radius, radius)


class TestSphereDistance:
    @pytest.mark.parametrize("gap", [0.5, 1e-2, 1e-4, 1e-6, 1e-7])
    def test_separated_spheres(self, rng, gap):
        for _ in range(20):
            c1 = rng.normal(size=3)
            r1, r2 = rng.uniform(0.1, 1.0, size=2)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            c2 = c1 + (r1 + r2 + gap) * u
            exact = float(np.linalg.norm(c2 - c1)) - r1 - r2
            res = gjk_distance(_sphere(c1, r1), _sphere(c2, r2))
            assert res.common_point is None
            assert abs(res.distance - exact) <= 1e-10 * exact + 1e-14
            assert np.linalg.norm(res.point_a - c1) == pytest.approx(r1)
            assert np.linalg.norm(res.point_b - c2) == pytest.approx(r2)

    @pytest.mark.parametrize("depth", [0.5, 1e-3, 1e-6])
    def test_overlapping_spheres(self, rng, depth):
        for _ in range(20):
            c1 = rng.normal(size=3)
            r1, r2 = rng.uniform(0.1, 1.0, size=2)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            c2 = c1 + max(r1 + r2 - depth, 0.0) * u
            res = gjk_distance(_sphere(c1, r1), _sphere(c2, r2))
            assert res.distance == 0.0
            p = res.common_point
            assert np.linalg.norm(p - c1) <= r1 + 1e-12
            assert np.linalg.norm(p - c2) <= r2 + 1e-12

    def test_concentric_spheres_overlap(self):
        res = gjk_distance(_sphere([0.1, 0.2, 0.3], 0.5),
                           _sphere([0.1, 0.2, 0.3], 0.2))
        assert res.distance == 0.0
        assert res.common_point is not None


class TestSupportWrappers:
    def test_array_wrappers_match_float_maps(self, rng):
        cone = _cone([0.1, -0.2, 0.05], [0.3, 0.4, 0.5], 0.6)
        body = _hull(cone)
        ell = Ellipsoid(np.array([0.1, 0.0, -0.2]), np.array([1.0, 2.0, 2.0]),
                        0.3, 0.2)
        for _ in range(50):
            w = rng.normal(size=3)
            assert body.support(w).tolist() == list(body.support_xyz(*w))
            assert body.cap_support(w).tolist() == list(
                body.cap_support_xyz(*w))
            # the support point maximizes w.x over boundary samples
            dirs = rng.normal(size=(200, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            best = float(np.max(ell.boundary_points(dirs) @ w))
            assert float(np.array(ell.support_xyz(*w)) @ w) >= best - 1e-12
            hull = np.vstack([cone.lateral_points(64, np.linspace(0, 1, 5)),
                              cone.sample_points(200, rng)])
            assert float(body.support(w) @ w) >= float(
                np.max(hull @ w)) - 1e-12

    def test_cap_support_antiparallel_direction(self):
        body = _hull(_cone([0.0, 0.0, 0.1], [0.0, 0.0, 1.0], 0.5))
        x, y, z = body.cap_support_xyz(0.0, 0.0, -1.0)
        assert z == pytest.approx(math.cos(0.5))
        assert math.hypot(x, y) == pytest.approx(math.sin(0.5))

    def test_cap_support_near_antiparallel_stays_on_the_cap(self, rng):
        # directions within rounding of -axis: the part of w off the axis
        # is noise, and the support point must still be a circle point
        for _ in range(2000):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            psi = rng.uniform(0.01, 1.5)
            body = ConeHullSupport([0.0, 0.0, 0.0], n, psi)
            w = -n + rng.normal(size=3) * 10.0 ** rng.uniform(-18.0, -12.0)
            w *= 10.0 ** rng.uniform(-3.0, 3.0)
            p = np.array(body.cap_support_xyz(*w))
            assert abs(float(np.linalg.norm(p)) - 1.0) <= 1e-15
            assert float(p @ np.array(body.axis)) >= math.cos(psi) - 1e-15

