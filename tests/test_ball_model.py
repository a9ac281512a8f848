"""Projective ball model of the constant-time shells."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercones import (BallCone, BallPoint, Cap, FourVector, Hyperball,
                        Hyperboloid, LorentzTransform, SphereDirection,
                        ball_distance, boost_ball_action, cap_image,
                        euclidean_radius_of_centered_ball, fit_cap,
                        homology_through, hyperboloid_distance,
                        lift_from_ball, lorentz_ball_action, map_cone,
                        opposite, project_to_ball, shadow_radius,
                        sphere_action)
from hypercones import ball_model, cones, minkowski
from hypercones.ball_model import ball_action_many
from hypercones.cones import _map
from hypercones.minkowski import ETA
from hypercones.spherical import angle_between
from tests.conftest import interior_point, random_transform, unit_vector


class TestModelValidation:
    def test_shell_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Hyperboloid(0.0)
        with pytest.raises(ValueError):
            Hyperboloid(-1.0)

    def test_ball_point_must_be_interior(self):
        with pytest.raises(ValueError):
            BallPoint(np.array([1.0, 0.0, 0.0]))

    def test_sphere_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            SphereDirection(np.array([0.5, 0.0, 0.0]))
        d = SphereDirection.normalized(np.array([3.0, 0.0, 4.0]))
        assert np.allclose(d.v, [0.6, 0.0, 0.8])

    def test_cap_half_angle_bounds(self):
        axis = SphereDirection(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            Cap(axis, 0.0)
        with pytest.raises(ValueError):
            Cap(axis, math.pi)

    def test_sphere_direction_refuses_nan(self):
        with pytest.raises(ValueError, match="unit length"):
            SphereDirection([math.nan, 0.0, 0.0])

    @pytest.mark.parametrize("v", [[math.nan, 0.0, 0.0],
                                   [math.inf, 0.0, 0.0]],
                             ids=["nan", "inf"])
    def test_normalized_refuses_non_finite(self, v):
        with pytest.raises(ValueError, match="non-finite"):
            SphereDirection.normalized(v)

    def test_hyperball_refuses_infinite_radius(self, shell):
        with pytest.raises(ValueError, match="finite"):
            Hyperball(shell, BallPoint(np.zeros(3)), math.inf)

    def test_shell_refuses_infinite_tau(self):
        with pytest.raises(ValueError, match="finite"):
            Hyperboloid(math.inf)



class TestTripleValues:
    """BallPoint and SphereDirection as values: equality, repr, the
    read-only array v and the constructors' messages."""

    def test_equality_is_elementwise(self):
        assert BallPoint([0.0, 0.1, 0.2]) == BallPoint([-0.0, 0.1, 0.2])
        assert BallPoint([0, 0, 0]) == BallPoint(np.zeros((1, 3)))
        assert BallPoint([0.0, 0.0, 0.0]) != BallPoint([0.0, 0.0, 5e-324])
        assert SphereDirection([0.0, -0.0, 1.0]) == SphereDirection(
            [-0.0, 0.0, 1.0])
        axis = SphereDirection([0.0, 0.0, 1.0])
        near = BallPoint([0.0, 0.0, 0.5])
        assert axis != near and not axis == near and near != axis
        assert near != (0.0, 0.0, 0.5) and near != [0.0, 0.0, 0.5]
        for value in (near, axis):
            with pytest.raises(TypeError):
                hash(value)

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 1e-20, 1e-5,
                                   0.1, -1 / 3, 0.5, 0.999999])
    def test_repr_text(self, x):
        assert repr(BallPoint([x, -0.0, 0.0])) == (
            "BallPoint({}, -0.0, 0.0)".format(x))
        assert repr(BallPoint(np.float32([x, 0, 0]))) == (
            "BallPoint({}, 0.0, 0.0)".format(float(np.float32(x))))
        v = np.array([x, math.sqrt(1.0 - x * x), -0.0])
        assert repr(SphereDirection(v)) == (
            "SphereDirection({}, {}, {})".format(
                *(v / np.linalg.norm(v)).tolist()))

    def test_pinned_repr(self):
        assert repr(BallPoint([1e-20, 5e-324, -0.25])) == (
            "BallPoint(1e-20, 5e-324, -0.25)")
        assert repr(SphereDirection([0, 0, 1])) == (
            "SphereDirection(0.0, 0.0, 1.0)")

    def test_v_is_a_read_only_cached_array(self):
        # near-unit directions and ball points, given as arrays, lists,
        # (1, 3) arrays and float32
        rng = np.random.default_rng(21)
        forms = [np.asarray, list, lambda a: a.reshape(1, 3), np.float32]
        for k in range(2_000):
            d = rng.normal(size=3)
            d = d / np.linalg.norm(d) * (1.0 + rng.uniform(-9e-7, 9e-7))
            u = 0.9 * rng.uniform(-1.0, 1.0, 3) / math.sqrt(3.0)
            form = forms[k % 4]
            d, u = (np.asarray(form(d), dtype=float).reshape(3),
                    np.asarray(form(u), dtype=float).reshape(3))
            for value, want in ((SphereDirection(form(d)),
                                 d / np.linalg.norm(d)),
                                (BallPoint(form(u)), u)):
                a = value.v
                assert a.dtype == np.float64 and a.shape == (3,)
                assert a.tobytes() == want.tobytes()
                assert value.v is a and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.5

    def test_messages(self):
        for v in ([1.0, 0.0, 0.0], [0.6, 0.6, 0.6], [math.nan, 0.0, 0.0],
                  [math.inf, 0.0, 0.0]):
            with pytest.raises(ValueError,
                               match=r"^ball point must satisfy \|u\| < 1$"):
                BallPoint(v)
        for v in ([0.5, 0.0, 0.0], [1.0, 1e-2, 0.0], [math.nan, 0.0, 1.0],
                  [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError,
                               match="^direction must be unit length$"):
                SphereDirection(v)
        for v in ([0.0, 0.0, 0.0], [math.inf, 0.0, 1.0]):
            with pytest.raises(ValueError, match="^cannot normalize a zero "
                               "or non-finite vector$"):
                SphereDirection.normalized(v)
        for cls in (BallPoint, SphereDirection):
            for v in ([0.1, 0.2], [0.0, 0.0, 0.0, 1.0], "abc"):
                with pytest.raises(ValueError):
                    cls(v)


class TestProjection:
    def test_round_trip(self, shell):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = BallPoint(interior_point(rng))
            back = project_to_ball(lift_from_ball(u, shell), shell)
            assert np.max(np.abs(back.v - u.v)) < 1e-12

    def test_off_shell_point_rejected(self, shell):
        x = FourVector.from_parts(5.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            project_to_ball(x, shell)

    def test_lift_lands_on_shell(self, shell):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = lift_from_ball(BallPoint(interior_point(rng)), shell)
            assert a.square() == pytest.approx(shell.tau ** 2, rel=1e-12)
            assert a.x0 > 0


class TestDistance:
    def test_matches_hyperboloid_distance(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(500):
            shell = Hyperboloid(float(rng.uniform(0.1, 10.0)))
            u = BallPoint(interior_point(rng))
            w = BallPoint(interior_point(rng))
            d1 = ball_distance(u, w, shell)
            d2 = hyperboloid_distance(lift_from_ball(u, shell),
                                      lift_from_ball(w, shell), shell)
            worst = max(worst, abs(d1 - d2))
        assert worst < 1e-9

    def test_pinned_chord_distance_is_log_two(self, shell):
        d = ball_distance(BallPoint(np.zeros(3)),
                          BallPoint(np.array([0.6, 0.0, 0.0])), shell)
        assert abs(d - math.log(2.0)) <= 1e-12

    def test_symmetry_and_zero(self, shell):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = BallPoint(interior_point(rng))
            w = BallPoint(interior_point(rng))
            assert ball_distance(u, w, shell) == pytest.approx(
                ball_distance(w, u, shell), abs=1e-12)
            assert ball_distance(u, u, shell) == 0.0

    def test_scale_linearity_in_shell(self):
        u = BallPoint(np.array([0.3, -0.2, 0.1]))
        w = BallPoint(np.array([-0.4, 0.0, 0.5]))
        d1 = ball_distance(u, w, Hyperboloid(1.0))
        d3 = ball_distance(u, w, Hyperboloid(3.0))
        assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_isometry_under_lorentz_action(self, shell):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g = random_transform(rng)
            u = BallPoint(interior_point(rng))
            w = BallPoint(interior_point(rng))
            gu = lorentz_ball_action(g, u)
            gw = lorentz_ball_action(g, w)
            assert ball_distance(gu, gw, shell) == pytest.approx(
                ball_distance(u, w, shell), abs=1e-9)


def _reference_distance(mpmath, u, w):
    """Unit-shell distance of two ball points, at 40 digits."""
    u, w = ([mpmath.mpf(x) for x in p.tolist()] for p in (u, w))
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))  # noqa: E731
    return mpmath.acosh((1 - dot(u, w))
                        / mpmath.sqrt((1 - dot(u, u)) * (1 - dot(w, w))))


def test_distances_of_close_pairs_match_a_40_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(40)
    with mpmath.workdps(40):
        for _ in range(400):
            u = interior_point(rng, 0.9)
            w = u + 10.0 ** rng.uniform(-9.0, -3.0) * unit_vector(rng)
            shell = Hyperboloid(rng.uniform(0.5, 2.0))
            ref = shell.tau * _reference_distance(mpmath, u, w)
            got = ball_distance(BallPoint(u), BallPoint(w), shell)
            assert abs(got - ref) <= 1e-6 * ref
            a = lift_from_ball(BallPoint(u), shell)
            b = lift_from_ball(BallPoint(w), shell)
            # the lifts as floats, read back onto the shell at 40 digits
            back = [x.xs / x.x0 for x in (a, b)]
            ref = shell.tau * _reference_distance(mpmath, *back)
            got = hyperboloid_distance(a, b, shell)
            assert abs(got - ref) <= 1e-6 * ref


class TestShadowRadius:
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @example(6.77162225536743, 6.77162225536743)
    @settings(max_examples=200, deadline=None)
    def test_tanh_identity(self, sigma, tau):
        c = shadow_radius(sigma, tau) / tau
        expected = abs(tau * tau - sigma * sigma) / (tau * tau + sigma * sigma)
        assert abs(math.tanh(c) - expected) < 1e-10

    def test_pinned_one_two_case(self):
        r = shadow_radius(1.0, 2.0)
        assert abs(r - 2.0 * math.log(2.0)) < 1e-12
        assert abs(euclidean_radius_of_centered_ball(r, 2.0) - 0.6) < 1e-12

    def test_equal_shells_have_zero_shadow(self):
        assert shadow_radius(1.7, 1.7) == 0.0

    def test_swap_symmetry_of_shells(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s, t = rng.uniform(0.2, 5.0, size=2)
            assert shadow_radius(s, t) / t == pytest.approx(
                shadow_radius(t, s) / s, rel=1e-12)

    def test_matches_lightcone_trace_geometry(self):
        # a light ray from the tip of the inner shell reaches the outer
        # shell at the shadow boundary
        rng = np.random.default_rng(6)
        for _ in range(100):
            sigma, tau = rng.uniform(0.3, 3.0, size=2)
            source = FourVector.from_parts(sigma, (0.0, 0.0, 0.0))
            n = unit_vector(rng)
            # solve (x0 - sigma)^2 = |r n|^2 with x0^2 = r^2 + tau^2
            r = abs(tau * tau - sigma * sigma) / (2.0 * sigma)
            x0 = math.sqrt(r * r + tau * tau)
            hit = FourVector.from_parts(x0, r * n)
            assert abs((hit - source).square()) < 1e-9
            shell = Hyperboloid(tau)
            d = hyperboloid_distance(FourVector.from_parts(tau, (0, 0, 0)),
                                     hit, shell)
            assert abs(d - shadow_radius(sigma, tau)) < 1e-9


class TestBallAction:
    def test_boost_closed_form_matches_matrix_action(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(500):
            n = unit_vector(rng)
            chi = float(rng.uniform(-3.0, 3.0))
            u = BallPoint(interior_point(rng))
            via_matrix = lorentz_ball_action(LorentzTransform.boost(n, chi),
                                             u)
            direct = boost_ball_action(SphereDirection(n), chi, u)
            worst = max(worst, float(np.max(np.abs(via_matrix.v - direct.v))))
        assert worst < 1e-10

    def test_center_maps_along_boost_axis(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = unit_vector(rng)
            chi = float(rng.uniform(-3.0, 3.0))
            img = boost_ball_action(SphereDirection(n), chi,
                                    BallPoint(np.zeros(3)))
            assert np.max(np.abs(img.v - math.tanh(chi) * n)) <= 1e-12

    def test_boost_closed_form_moves_directions(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n, chi = unit_vector(rng), float(rng.uniform(-3.0, 3.0))
            d = SphereDirection(unit_vector(rng))
            direct = boost_ball_action(SphereDirection(n), chi, d)
            assert type(direct) is SphereDirection
            via_matrix = lorentz_ball_action(LorentzTransform.boost(n, chi),
                                             d)
            assert np.max(np.abs(via_matrix.v - direct.v)) < 1e-10

    @pytest.mark.parametrize("bad", [np.zeros(3), (0.0, 0.0, 0.5), None])
    def test_actions_refuse_other_input(self, bad):
        axis = SphereDirection([0.0, 0.0, 1.0])
        with pytest.raises(TypeError, match="BallPoint or SphereDirection"):
            boost_ball_action(axis, 0.5, bad)
        with pytest.raises(TypeError, match="BallPoint or SphereDirection"):
            lorentz_ball_action(LorentzTransform.boost(axis.v, 0.5), bad)

    def test_action_commutes_with_lift(self, shell):
        rng = np.random.default_rng(9)
        for _ in range(100):
            g = random_transform(rng)
            u = BallPoint(interior_point(rng))
            lifted = g.apply(lift_from_ball(u, shell))
            assert np.max(np.abs(project_to_ball(lifted, shell).v
                                 - lorentz_ball_action(g, u).v)) < 1e-10


class TestSphereAndHomology:
    def test_sphere_action_preserves_unit_norm(self):
        rng = np.random.default_rng(10)
        g = random_transform(rng, max_rapidity=3.0)
        dirs = np.array([unit_vector(rng) for _ in range(64)])
        out = sphere_action(g, dirs)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    def test_homology_pinned_case(self):
        img = homology_through(BallPoint(np.array([0.0, 0.0, 0.5])),
                               SphereDirection(np.array([1.0, 0.0, 0.0])))
        assert np.max(np.abs(img.v - np.array([-0.6, 0.0, 0.8]))) < 1e-10

    def test_homology_is_involution(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            u0 = BallPoint(interior_point(rng, rmax=0.85))
            l = SphereDirection(unit_vector(rng))
            back = homology_through(u0, homology_through(u0, l))
            worst = max(worst, float(np.max(np.abs(back.v - l.v))))
        assert worst < 1e-8

    def test_homology_output_is_antipodal_through_center(self):
        l = SphereDirection(np.array([0.0, 1.0, 0.0]))
        img = homology_through(BallPoint(np.zeros(3)), l)
        assert np.max(np.abs(img.v + l.v)) < 1e-12

    def test_homology_image_is_collinear_with_source(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u0 = interior_point(rng, rmax=0.8)
            l = unit_vector(rng)
            img = homology_through(BallPoint(u0), SphereDirection(l)).v
            cross = np.cross(l - u0, img - u0)
            assert np.max(np.abs(cross)) < 1e-9


class TestCapFitting:
    def test_exact_circle_recovery(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            cap = Cap(SphereDirection(unit_vector(rng)),
                      float(rng.uniform(0.1, 2.5)))
            fitted, residual = fit_cap(cap.boundary_points(16), cap.axis.v)
            assert residual < 1e-10
            assert abs(fitted.half_angle - cap.half_angle) < 1e-9
            assert float(fitted.axis.v @ cap.axis.v) > 1.0 - 1e-9

    def test_hint_selects_complementary_cap(self):
        cap = Cap(SphereDirection(np.array([0.0, 0.0, 1.0])), 0.7)
        flipped, _ = fit_cap(cap.boundary_points(16),
                             np.array([0.0, 0.0, -1.0]))
        assert float(flipped.axis.v[2]) < 0
        assert abs(flipped.half_angle - (math.pi - 0.7)) < 1e-9

    def test_transformed_circles_stay_circles(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            cap = Cap(SphereDirection(unit_vector(rng)),
                      float(rng.uniform(0.1, 2.0)))
            g = random_transform(rng, max_rapidity=3.0)
            image = cap_image(g, cap)
            mapped = sphere_action(g, cap.boundary_points(32))
            misfit = np.abs(np.arccos(np.clip(mapped @ image.axis.v,
                                              -1.0, 1.0))
                            - image.half_angle)
            assert float(np.max(misfit)) < 1e-7

    def test_cap_image_matches_refit_oracle(self):
        # the covector image against the plane refit of mapped boundary
        # points, up to rapidity 3
        rng = np.random.default_rng(16)
        for _ in range(200):
            cap = Cap(SphereDirection(unit_vector(rng)),
                      float(rng.uniform(0.1, 2.0)))
            g = random_transform(rng, max_rapidity=3.0)
            image = cap_image(g, cap)
            hint = sphere_action(g, cap.axis.v[None, :])[0]
            fitted, _ = fit_cap(sphere_action(g, cap.boundary_points(32)),
                                hint)
            assert angle_between(image.axis.v, fitted.axis.v) <= 1e-12
            assert abs(image.half_angle - fitted.half_angle) <= 1e-12

    def test_cap_image_composes(self):
        rng = np.random.default_rng(15)
        cap = Cap(SphereDirection(np.array([0.0, 0.0, 1.0])), 0.5)
        g = random_transform(rng)
        h = random_transform(rng)
        once = cap_image(g @ h, cap)
        twice = cap_image(g, cap_image(h, cap))
        assert abs(once.half_angle - twice.half_angle) < 1e-8
        assert float(once.axis.v @ twice.axis.v) > 1.0 - 1e-8


def _numpy_cap_image(transform, cap):
    """The covector image k' = eta M eta k as a 4x4 matrix product: cap_image
    as it was before it ran on the float kernel, kept as a reference."""
    k = np.concatenate(([-cap.cos_half], cap.axis.v))
    k = ETA @ transform.matrix @ ETA @ k
    return Cap(SphereDirection.normalized(k[1:]),
               math.atan2(math.sin(cap.half_angle), -float(k[0])))


def _numpy_ball_action(transform, u):
    """The ball action as a one-row ball_action_many: lorentz_ball_action
    as it was before it ran on the float kernel, kept as a reference."""
    w = ball_action_many(transform, u.v[None, :])[0]
    if isinstance(u, BallPoint):
        return BallPoint(w)
    return SphereDirection.normalized(w)


def kernel_pairs(n=2_000, seed=30):
    """Seeded (cone, transform, rapidity) triples: apexes out to |p| =
    0.95, half-angles 0.05 to 1.5, rapidities up to 3 after a rotation."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        axis, psi = unit_vector(rng), rng.uniform(0.05, 1.5)
        apex = rng.uniform(0.0, 0.95) * unit_vector(rng)
        if float(axis @ apex) >= math.cos(psi) - 1e-6:
            continue
        chi = rng.uniform(-3.0, 3.0)
        g = (LorentzTransform.rotation(unit_vector(rng),
                                       rng.uniform(0.0, 2.0 * math.pi))
             @ LorentzTransform.boost(unit_vector(rng), chi))
        pairs.append((BallCone(BallPoint(apex),
                               Cap(SphereDirection(axis), psi)), g, chi))
    return pairs


def cap_gap(a: Cap, b: Cap) -> float:
    return max(float(np.max(np.abs(a.axis.v - b.axis.v))),
               abs(a.half_angle - b.half_angle))


class TestFloatKernels:
    """The float frame kernels against the numpy products they replaced.

    Both round differently, and a boost of rapidity chi has entries up to
    cosh chi and divides by a denominator down to exp(-|chi|), so the two
    may part by a few ulps times cosh^2 chi; an apex frame is a boost with
    cosh^2 chi = 1 / (1 - |p|^2)."""

    def test_maps_agree_with_the_numpy_products(self):
        for cone, g, chi in kernel_pairs():
            bound = 1e-15 * math.cosh(chi) ** 2
            ref = _numpy_cap_image(g, cone.base)
            assert cap_gap(cap_image(g, cone.base), ref) <= bound
            for u in (cone.apex, cone.base.axis):
                got = lorentz_ball_action(g, u)
                assert type(got) is type(u)
                assert np.max(np.abs(got.v - _numpy_ball_action(g, u).v)) \
                    <= bound
            mapped = map_cone(g, cone)
            assert np.max(np.abs(mapped.apex.v - _numpy_ball_action(
                g, cone.apex).v)) <= bound
            assert cap_gap(mapped.base, ref) <= bound

    def test_float_map_agrees_with_the_numpy_products(self):
        # _map, the kernel map_cone adapts, on the matrix's 16 floats
        for cone, g, chi in kernel_pairs():
            bound = 1e-15 * math.cosh(chi) ** 2
            mapped = _map(g.matrix.ravel().tolist(), cone)
            assert np.max(np.abs(mapped.apex.v - _numpy_ball_action(
                g, cone.apex).v)) <= bound
            assert cap_gap(mapped.base, _numpy_cap_image(g, cone.base)) \
                <= bound

    def test_opposite_agrees_with_the_numpy_product(self):
        for cone, _, _ in kernel_pairs():
            bound = 1e-15 / (1.0 - float(cone.apex.v @ cone.apex.v))
            frame, cap = cone.apex_frame
            ref = _numpy_cap_image(frame.inverse(), Cap(
                SphereDirection(-cap.axis.v), cap.half_angle))
            got = opposite(cone)
            assert got.apex is cone.apex
            assert cap_gap(got.base, ref) <= bound

    def test_opposite_is_an_involution(self):
        # two maps through the apex frame and back, each within a few ulps
        # times its cosh^2
        for cone, _, _ in kernel_pairs():
            back = opposite(opposite(cone))
            assert back.apex is cone.apex
            assert cap_gap(back.base, cone.base) <= 4e-15 / (
                1.0 - float(cone.apex.v @ cone.apex.v))

    def test_image_caps_are_built_one_way(self):
        # cap_image and apex_frame wrap _cap_seen's floats as _map does, so
        # each equals its float counterpart to the bit
        def bits(cap):
            return [x.hex() for x in (*cap.axis._t, cap.half_angle)]

        for cone, g, _ in kernel_pairs():
            assert bits(cap_image(g, cone.base)) == bits(
                map_cone(g, cone).base)
            s = cone.apex_frame_scalars
            assert bits(cone.apex_frame[1]) == bits(
                Cap(SphereDirection._of(s[16:19]), s[19]))

    def test_one_object_paths_take_no_numpy(self, monkeypatch):
        cone, g, _ = kernel_pairs(n=1)[0]
        for module in (ball_model, cones, minkowski):
            monkeypatch.setattr(module, "np", None)
        assert cap_image(g, cone.base) == map_cone(g, cone).base
        assert opposite(cone).apex is cone.apex
        frame = cone.apex_frame[0]  # a fresh cone: its first read
        assert frame._f == cone.apex_frame_scalars[:16]
        back = homology_through(cone.apex, cone.base.axis)
        assert type(back) is SphereDirection

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.1), (math.nan, 0.0, 1.0)],
                             ids=["long", "nan"])
    def test_cap_checks_an_axis_wrapped_from_floats(self, axis):
        # ahead of the half-angle check, with SphereDirection's message
        for psi in (0.5, 0.0):
            with pytest.raises(ValueError, match="^direction must be unit "
                                                 "length$"):
                Cap(SphereDirection._of(axis), psi)

    def test_non_finite_image_cap_is_refused_by_cap(self):
        x = np.array([1.0, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            g = LorentzTransform.boost(x, 400) @ LorentzTransform.boost(x, 400)
        cap = Cap(SphereDirection([0.0, 0.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="direction must be unit length"):
            cap_image(g, cap)
