"""Four-vector arithmetic, causal classification, and Lorentz transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercones import (CausalClass, FourVector, LorentzTransform,
                        PoincareElement, causal_class, decompose_translation,
                        in_light_cone, in_semigroup, kappa_split,
                        lightlike_boost, minkowski_product)
from tests.conftest import random_transform, unit_vector

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _reference_product(a, b):
    """The matrix product a b, each entry summed left to right in plain
    floats."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    out = []
    for row in a:
        for j in range(4):
            p = row[0] * b[0][j]
            for k in range(1, 4):
                p += row[k] * b[k][j]
            out.append(p)
    return np.reshape(out, (4, 4))

coord = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
four = st.builds(lambda a, b, c, d: FourVector.from_parts(a, (b, c, d)),
                 coord, coord, coord, coord)


class TestFourVector:
    def test_square_uses_time_minus_space_signature(self):
        x = FourVector.from_parts(3.0, (2.0, 1.0, 0.0))
        assert x.square() == pytest.approx(9.0 - 5.0, abs=1e-15)

    def test_components_round_trip(self):
        x = FourVector.from_array([1.5, -0.5, 2.0, 0.25])
        assert np.array_equal(x.components, [1.5, -0.5, 2.0, 0.25])
        assert x.x0 == 1.5
        assert np.array_equal(x.xs, [-0.5, 2.0, 0.25])

    def test_equality_is_elementwise(self):
        assert FourVector(1.0, 2.0, 3.0, 4.0) == FourVector(1, 2, 3, 4)
        assert FourVector(0.0, -0.0, 0.0, 1.0) == FourVector(-0.0, 0.0,
                                                             -0.0, 1.0)
        assert FourVector(1.0) != FourVector(1.0, 5e-324)
        assert FourVector(1.0) != (1.0, 0.0, 0.0, 0.0)
        nan = FourVector(1.0, math.nan)
        assert nan != nan and not nan == nan
        assert nan != FourVector(1.0, math.nan)
        with pytest.raises(TypeError):
            hash(FourVector(1.0))

    def test_repr_text(self):
        assert repr(FourVector(1, -0.0, 1e-5, 1e16)) == (
            "FourVector(1.0, -0.0, 1e-05, 1e+16)")
        assert repr(FourVector(math.nan, math.inf, -math.inf, 0.1)) == (
            "FourVector(nan, inf, -inf, 0.1)")
        assert repr(FourVector.from_array(np.float32([0.1, 0, 0, 0]))) == (
            f"FourVector({float(np.float32(0.1))}, 0.0, 0.0, 0.0)")

    def test_components_are_a_read_only_float_array(self):
        rng = np.random.default_rng(8)
        for parts in ([1, 2, 3, 4], [0.5, np.float32(0.1), -0.0, 2 ** 60 + 1],
                      rng.normal(size=4).tolist(), [True, 0, 0, 0]):
            x = FourVector(*parts)
            a = x.components
            assert a.dtype == np.float64 and a.shape == (4,)
            assert a.tobytes() == np.array(parts, dtype=float).tobytes()
            assert x.x0 == a[0] and x.xs.tobytes() == a[1:].tobytes()
            assert x.components is a
            for view in (a, x.xs):
                with pytest.raises(ValueError):
                    view[0] = 7.0
        with pytest.raises(ValueError):
            FourVector.from_array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            FourVector("one")

    def test_arithmetic_keeps_numpy_elementwise_bits(self):
        rng = np.random.default_rng(9)
        special = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, math.inf,
                   -math.inf, math.nan]

        def draw():
            v = rng.normal(size=4) * 10.0 ** rng.uniform(-300.0, 300.0, 4)
            mask = rng.random(4) < 0.3
            v[mask] = rng.choice(special, int(mask.sum()))
            return v

        with np.errstate(all="ignore"):
            for _ in range(2_000):
                a, b, c = draw(), draw(), float(draw()[0])
                x, y = FourVector.from_array(a), FourVector.from_array(b)
                assert (x + y).components.tobytes() == (a + b).tobytes()
                assert (x - y).components.tobytes() == (a - b).tobytes()
                assert (-x).components.tobytes() == (-a).tobytes()
                assert (x * c).components.tobytes() == (a * c).tobytes()
                assert (c * x).components.tobytes() == (a * c).tobytes()

    def test_product_is_the_float_sum(self):
        # x0 y0 - ((x1 y1 + x2 y2) + x3 y3), to the bit
        rng = np.random.default_rng(2024)
        for _ in range(2_000):
            x, y = rng.normal(size=4).tolist(), rng.normal(size=4).tolist()
            want = x[0] * y[0] - (x[1] * y[1] + x[2] * y[2] + x[3] * y[3])
            got = minkowski_product(FourVector(*x), FourVector(*y))
            assert type(got) is float and got.hex() == want.hex()

    @given(four, four)
    @settings(max_examples=100, deadline=None)
    def test_product_symmetric(self, a, b):
        assert abs(minkowski_product(a, b)
                   - minkowski_product(b, a)) <= 1e-12

    @given(four, four, four,
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_product_linear_in_first_slot(self, a, b, c, s):
        lhs = minkowski_product(
            FourVector.from_array(s * a.components + b.components), c)
        rhs = s * minkowski_product(a, c) + minkowski_product(b, c)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestCausalPredicates:
    def test_unit_time_vector_is_inside_forward_cone(self):
        assert in_light_cone(FourVector.from_parts(1.0, (0.0, 0.0, 0.0)))

    def test_boundary_ray_is_outside_open_cone(self):
        assert not in_light_cone(FourVector.from_parts(1.0, (0.0, 0.0, 1.0)))

    def test_two_one_one_one_is_inside(self):
        assert in_light_cone(FourVector.from_parts(2.0, (1.0, 1.0, 1.0)))

    @pytest.mark.parametrize("parts,expected", [
        ((1.0, (0, 0, 0)), CausalClass.TIMELIKE_FUTURE),
        ((-1.0, (0, 0, 0)), CausalClass.TIMELIKE_PAST),
        ((1.0, (0, 0, 1)), CausalClass.LIGHTLIKE_FUTURE),
        ((-1.0, (1, 0, 0)), CausalClass.LIGHTLIKE_PAST),
        ((0.0, (1, 0, 0)), CausalClass.SPACELIKE),
        ((0.0, (0, 0, 0)), CausalClass.ZERO),
    ])
    def test_classification_table(self, parts, expected):
        assert causal_class(FourVector.from_parts(*parts)) is expected

    def test_spatial_norm_is_taken_by_hypot(self):
        # |x_s|^2 overflows here; hypot does not
        x = FourVector(2e200, 1e200, 1e200, 0.0)
        assert in_light_cone(x)
        assert in_semigroup(PoincareElement(x, LorentzTransform.identity()))
        light, kappa = kappa_split(x)
        assert kappa == 2e200 - math.hypot(1e200, 1e200) > 0.0
        assert light == FourVector(math.hypot(1e200, 1e200), 1e200, 1e200)
        up, down = decompose_translation(FourVector(0.0, 1e200, 1e200, 0.0))
        assert up == light and down == FourVector(up.x0)

    def test_classification_is_lorentz_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = FourVector.from_array(rng.normal(size=4))
            g = random_transform(rng, max_rapidity=2.0)
            assert causal_class(g.apply(x)) is causal_class(x)


class TestLorentzTransform:
    def test_boost_matrix_preserves_metric(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_transform(rng, max_rapidity=3.0).matrix
            assert np.max(np.abs(m.T @ ETA @ m - ETA)) < 1e-10
            assert m[0, 0] >= 1.0
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_transform(rng, max_rapidity=3.0)
            m = (g @ g.inverse()).matrix
            assert np.max(np.abs(m - np.eye(4))) < 1e-10

    def test_collinear_boosts_add_rapidity(self):
        n = np.array([0.6, 0.0, 0.8])
        lhs = (LorentzTransform.boost(n, 0.7) @ LorentzTransform.boost(n, 0.5))
        rhs = LorentzTransform.boost(n, 1.2)
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12

    def test_rotation_fixes_time_axis(self):
        g = LorentzTransform.rotation(np.array([0.0, 0.0, 1.0]), 1.1)
        e0 = FourVector.from_parts(1.0, (0.0, 0.0, 0.0))
        assert np.allclose(g.apply(e0).components, e0.components)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            LorentzTransform(np.diag([1.0, 1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            LorentzTransform(-np.eye(4))

    @pytest.mark.parametrize("m, message", [
        (np.diag([1.0, 1.0, 1.0, 2.0]),
         "does not preserve the Minkowski form"),
        (-np.eye(4), "is not orthochronous"),
        (np.diag([1.0, 1.0, 1.0, -1.0]), r"is not proper \(det != \+1\)")])
    def test_messages(self, m, message):
        with pytest.raises(ValueError, match=f"^matrix {message}$"):
            LorentzTransform(m)

    def test_shape_and_zero_axis_messages(self):
        with pytest.raises(ValueError):
            LorentzTransform(np.eye(3))
        with pytest.raises(ValueError, match="^boost direction must be"):
            LorentzTransform.boost([0.0, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="^rotation axis must be"):
            LorentzTransform.rotation([0.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("make", [LorentzTransform.boost,
                                      LorentzTransform.rotation],
                             ids=["boost", "rotation"])
    @pytest.mark.parametrize("v", [[math.nan, 0.0, 0.0], [0.0, math.inf, 1.0],
                                   [-math.inf, math.nan, 0.0]],
                             ids=["nan", "inf", "inf-nan"])
    def test_non_finite_direction_is_refused(self, make, v):
        with pytest.raises(ValueError, match="must be nonzero and finite$"):
            make(v, 0.5)

    @pytest.mark.parametrize("make", [LorentzTransform.boost,
                                      LorentzTransform.rotation],
                             ids=["boost", "rotation"])
    @pytest.mark.parametrize("v, unit", [
        ([1e170, 1e170, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
        ([1e-170, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, 3e-320, -4e-320], [0.0, 0.6, -0.8]),
        ([1e-323, 1e-323, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0])],
        ids=["squares-overflow", "squares-underflow", "subnormal",
             "deep-subnormal"])
    def test_direction_norm_is_taken_by_hypot(self, make, v, unit):
        # a sum of squares is inf or 0 on these, which would give a matrix
        # off the group for the first and refuse the others as zero; on the
        # last, hypot of v itself rounds onto the subnormal grid (3 units
        # for 2.83), which would give a direction of norm 0.943
        got = make(v, 0.5)
        assert got.verify()
        np.testing.assert_allclose(got.matrix, make(unit, 0.5).matrix,
                                   rtol=0, atol=4e-16)

    def test_rotation_is_the_rodrigues_form(self):
        rng = np.random.default_rng(23)
        for _ in range(2_000):
            n = unit_vector(rng)
            angle = rng.uniform(-4.0, 4.0)
            k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]],
                          [-n[1], n[0], 0.0]])
            r = (np.eye(3) + math.sin(angle) * k
                 + (1.0 - math.cos(angle)) * (k @ k))
            got = LorentzTransform.rotation(n, angle).matrix
            assert got[0].tolist() == [1.0, 0.0, 0.0, 0.0]
            assert got[1:, 0].tolist() == [0.0, 0.0, 0.0]
            # (1 - cos) K^2 reaches 2 in size, and the float and numpy
            # forms round it apart by up to 6 eps on these draws
            np.testing.assert_allclose(got[1:, 1:], r, rtol=0, atol=3e-15)
            np.testing.assert_allclose(got[1:, 1:] @ got[1:, 1:].T,
                                       np.eye(3), rtol=0, atol=3e-15)

    @pytest.mark.parametrize("entry, value", [
        ((0, 0), math.nan), ((0, 1), math.inf), ((0, 1), -math.inf),
        ((1, 2), math.nan), ((2, 3), math.inf), ((3, 3), math.nan)])
    def test_non_finite_entry_is_refused(self, entry, value):
        m = np.eye(4)
        m[entry] = value
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            LorentzTransform(m)

    def test_nan_matrix_is_refused_and_fails_verify(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="Minkowski form"):
                LorentzTransform(np.full((4, 4), math.nan))
            for t in (LorentzTransform.boost([1.0, 0.0, 0.0], math.nan),
                      LorentzTransform.rotation([0.0, 0.0, 1.0], math.nan)):
                assert not t.verify()
                assert not in_semigroup(PoincareElement(FourVector(1.0), t))

    @pytest.mark.parametrize("rapidity", [8.0, 12.0])
    @pytest.mark.parametrize("turned", [False, True],
                             ids=["boost", "rotation-boost"])
    def test_exact_maps_of_large_rapidity_are_accepted(self, rapidity,
                                                       turned):
        # entries near cosh(12) = 8e4 carry rounding far above an absolute
        # 1e-10 in the Gram matrix
        g = LorentzTransform.boost([0.6, 0.0, 0.8], rapidity)
        if turned:
            g = LorentzTransform.rotation([0.0, 0.0, 1.0], 0.3) @ g
        again = LorentzTransform(g.matrix)
        assert again.matrix.tobytes() == g.matrix.tobytes()
        assert g.verify() and again.verify()
        assert in_semigroup(PoincareElement(FourVector(1.0), g))

    def test_large_boost_moved_off_the_group_is_refused(self):
        m = np.array(LorentzTransform.boost([0.6, 0.0, 0.8], 8.0).matrix)
        m[1, 2] += 1e-6 * np.max(np.abs(m))
        with pytest.raises(ValueError,
                           match="^matrix does not preserve the Minkowski "
                                 "form$"):
            LorentzTransform(m)

    @pytest.mark.parametrize("rapidity, message", [
        (8.0, "^matrix is not proper"), (12.0, "^matrix is not proper"),
        (16.0, "^matrix is not proper"),
        (19.0, "^matrix does not preserve the Minkowski form$")])
    def test_improper_map_of_large_rapidity_is_refused(self, rapidity,
                                                       message):
        # past rapidity about 17.3 det's rounding could flip its sign, so
        # the Gram test refuses such matrices before det is read
        b = LorentzTransform.boost([0.6, 0.0, 0.8], rapidity)
        m = np.diag([1.0, 1.0, 1.0, -1.0]) @ b.matrix
        with pytest.raises(ValueError, match=message):
            LorentzTransform(m)
        unchecked = LorentzTransform._of(m.ravel().tolist())
        assert not unchecked.verify()
        assert not in_semigroup(PoincareElement(FourVector(1.0), unchecked))

    def test_pinned_repr(self):
        assert repr(LorentzTransform.identity()) == (
            "LorentzTransform([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], "
            "[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])")
        for sh in (1e-20, 5e-324):
            assert repr(LorentzTransform.boost([1.0, 0.0, 0.0], sh)) == (
                f"LorentzTransform([[1.0, {sh}, 0.0, 0.0], [{sh}, 1.0, 0.0, "
                "0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])")
        ch, sh = math.cosh(38.0), math.sinh(38.0)  # above 1e16
        assert repr(LorentzTransform.boost([-1.0, 0.0, 0.0], 38.0)) == (
            f"LorentzTransform([[{ch}, {-sh}, 0.0, 0.0], "
            f"[{-sh}, {1.0 + (ch - 1.0)}, -0.0, -0.0], "
            "[0.0, -0.0, 1.0, 0.0], [0.0, -0.0, 0.0, 1.0]])")

    def test_matrix_is_a_read_only_cached_array(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            g = random_transform(rng, max_rapidity=3.0)
            h = random_transform(rng, max_rapidity=3.0)
            parts = g.matrix.tolist()
            for t, want in ((LorentzTransform(parts), np.array(parts)),
                            (LorentzTransform(np.ravel(parts)),
                             np.array(parts)),
                            (g @ h, _reference_product(g.matrix, h.matrix)),
                            (LorentzTransform.identity(), np.eye(4))):
                m = t.matrix
                assert m.dtype == np.float64 and m.shape == (4, 4)
                assert t.matrix is m and not m.flags.writeable
                assert m.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    m[0, 0] = 2.0
            # equal as numbers: eta m^T eta adds 0.0 to products of -0.0
            assert np.array_equal(g.inverse().matrix, ETA @ g.matrix.T @ ETA)
            assert g.verify() and (g @ h).verify() and g.inverse().verify()


class TestDecomposeTranslation:
    def test_past_time_vector(self):
        x, y = decompose_translation(FourVector.from_parts(-1.0, (0, 0, 0)))
        assert np.array_equal(x.components, [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(y.components, [1.0, 0.0, 0.0, 0.0])

    def test_spacelike_vector(self):
        x, y = decompose_translation(FourVector.from_parts(0.0, (5, 0, 0)))
        assert np.array_equal(x.components, [5.0, 5.0, 0.0, 0.0])
        assert np.array_equal(y.components, [5.0, 0.0, 0.0, 0.0])

    def test_future_vector_passes_through(self):
        x, y = decompose_translation(FourVector.from_parts(3.0, (0, 0, 0)))
        assert np.array_equal(x.components, [3.0, 0.0, 0.0, 0.0])
        assert np.array_equal(y.components, [0.0, 0.0, 0.0, 0.0])

    @given(four)
    @settings(max_examples=200, deadline=None)
    def test_recomposition_and_closure(self, z):
        x, y = decompose_translation(z)
        assert np.max(np.abs((x - y).components - z.components)) <= 1e-12
        for w in (x, y):
            assert w.x0 >= float(np.linalg.norm(w.xs)) - 1e-12

    @given(four)
    @settings(max_examples=100, deadline=None)
    def test_idempotent_round_trip(self, z):
        x, y = decompose_translation(z)
        x2, y2 = decompose_translation(x - y)
        assert np.max(np.abs(x2.components - x.components)) <= 1e-12
        assert np.max(np.abs(y2.components - y.components)) <= 1e-12


class TestKappaSplit:
    @pytest.mark.parametrize("parts,light,kappa", [
        ((2.0, (1, 0, 0)), (1.0, 1.0, 0.0, 0.0), 1.0),
        ((1.0, (0, 0, 0)), (0.0, 0.0, 0.0, 0.0), 1.0),
        ((1.0, (0, 0, 2)), (2.0, 0.0, 0.0, 2.0), -1.0),
    ])
    def test_pinned_splits_exact(self, parts, light, kappa):
        lp, k = kappa_split(FourVector.from_parts(*parts))
        assert np.array_equal(lp.components, light)
        assert k == kappa

    @given(four)
    @settings(max_examples=200, deadline=None)
    def test_lightlike_part_and_reconstruction(self, x):
        lp, k = kappa_split(x)
        assert abs(lp.square()) <= 1e-10 * max(1.0, float(
            np.dot(lp.components, lp.components)))
        rebuilt = lp + FourVector.from_parts(k, (0.0, 0.0, 0.0))
        assert np.max(np.abs(rebuilt.components - x.components)) <= 1e-12


class TestLightlikeBoost:
    def test_unit_scale_is_identity(self):
        g = lightlike_boost(FourVector.from_parts(1.0, (0, 0, 1)), 1.0)
        assert np.max(np.abs(g.matrix - np.eye(4))) < 1e-12

    def test_eigenrelations_for_doubling(self):
        l = FourVector.from_parts(1.0, (0.0, 0.0, 1.0))
        lp = FourVector.from_parts(1.0, (0.0, 0.0, -1.0))
        g = lightlike_boost(l, 2.0)
        assert np.max(np.abs(g.apply(l).components
                             - 0.5 * l.components)) < 1e-10
        assert np.max(np.abs(g.apply(lp).components
                             - 2.0 * lp.components)) < 1e-10

    def test_x_axis_ray_gives_unit_rapidity_boost(self):
        g = lightlike_boost(FourVector.from_parts(1.0, (1, 0, 0)), math.e)
        expected = LorentzTransform.boost(np.array([1.0, 0.0, 0.0]), -1.0)
        assert np.max(np.abs(g.matrix - expected.matrix)) < 1e-12

    def test_scales_compose_multiplicatively(self):
        l = FourVector.from_parts(1.0, (0.6, 0.8, 0.0))
        g = lightlike_boost(l, 2.0) @ lightlike_boost(l, 3.0)
        assert np.max(np.abs(g.matrix - lightlike_boost(l, 6.0).matrix)) < 1e-9

    def test_metric_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            l = FourVector.from_parts(1.0, unit_vector(rng))
            m = lightlike_boost(l, float(rng.uniform(1.0, 8.0))).matrix
            assert np.max(np.abs(m.T @ ETA @ m - ETA)) < 1e-10

    def test_rejects_bad_rays_and_scales(self):
        with pytest.raises(ValueError):
            lightlike_boost(FourVector.from_parts(2.0, (0, 0, 2)), 2.0)
        with pytest.raises(ValueError):
            lightlike_boost(FourVector.from_parts(1.0, (0, 0, 0.5)), 2.0)
        with pytest.raises(ValueError):
            lightlike_boost(FourVector.from_parts(1.0, (0, 0, 1)), 0.5)


class TestSemigroup:
    def test_future_translation_with_identity(self):
        g = PoincareElement(FourVector.from_parts(1.0, (0, 0, 0)),
                            LorentzTransform.identity())
        assert in_semigroup(g)

    def test_spacelike_translation_rejected(self):
        g = PoincareElement(FourVector.from_parts(0.0, (1, 0, 0)),
                            LorentzTransform.identity())
        assert not in_semigroup(g)

    def test_lightlike_boundary_allowed(self):
        g = PoincareElement(
            FourVector.from_parts(1.0, (0, 0, 1)),
            LorentzTransform.boost(np.array([0.0, 0.0, 1.0]), 0.4))
        assert in_semigroup(g)

    def test_composition_matches_action(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = PoincareElement(FourVector.from_array(rng.normal(size=4)),
                                random_transform(rng))
            h = PoincareElement(FourVector.from_array(rng.normal(size=4)),
                                random_transform(rng))
            x = FourVector.from_array(rng.normal(size=4))
            lhs = g.compose(h).apply(x)
            rhs = g.apply(h.apply(x))
            assert np.max(np.abs(lhs.components - rhs.components)) < 1e-9
