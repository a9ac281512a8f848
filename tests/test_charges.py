"""Abelian charge calculus over cone-localized carriers."""

import numpy as np
import pytest

from hypercones import (AdmissibilityError, BallCone, BallPoint, Cap,
                        ChargeElement, ChargeGroup, ChargeMismatchError,
                        ComposedUnlocalized, FourVector, Hyperboloid,
                        Morphism, ShiftedMorphism, SphereDirection,
                        StatisticsCharacter, compose, cone_leq, conjugate,
                        disjoint, exchange_statistics, intertwiner_region,
                        shift_light_cone, transport_chain,
                        verify_group_axioms)
from tests.conftest import disjoint_cone_pair, random_cone

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def cone_at(axis, apex_scale=0.15, psi=0.4) -> BallCone:
    axis = np.asarray(axis, dtype=float)
    return BallCone(BallPoint(apex_scale * axis),
                    Cap(SphereDirection(axis), psi))


@pytest.fixture
def group():
    return ChargeGroup(free_rank=1, torsion_orders=(2,))


@pytest.fixture
def eps(group):
    return StatisticsCharacter(group, (-1, 1))


class TestGroupArithmetic:
    def test_addition_and_negation(self, group):
        g = group.element((3, 1))
        h = group.element((-1, 1))
        assert (g + h).coords == (2, 0)
        assert (-g).coords == (-3, 1)
        assert (g - g).is_zero

    def test_torsion_coordinates_reduce(self, group):
        g = group.element((0, 5))
        assert g.coords == (0, 1)
        assert (g + g).is_zero

    def test_zero_element(self, group):
        assert group.zero().is_zero
        assert not group.element((1, 0)).is_zero

    def test_cross_group_arithmetic_rejected(self, group):
        other = ChargeGroup(free_rank=1)
        with pytest.raises(ChargeMismatchError):
            group.element((1, 0)) + other.element((1,))

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            ChargeGroup(free_rank=-1)
        with pytest.raises(ValueError):
            ChargeGroup(free_rank=0, torsion_orders=(1,))


class TestStatisticsCharacter:
    def test_is_a_sign_homomorphism(self, group, eps):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = group.random_element(rng)
            h = group.random_element(rng)
            assert eps.evaluate(g) in (-1, 1)
            assert eps.evaluate(g + h) == eps.evaluate(g) * eps.evaluate(h)

    def test_conjugate_has_equal_sign(self, group, eps):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = group.random_element(rng)
            assert eps.evaluate(-g) == eps.evaluate(g)

    def test_element_of_another_group_rejected(self, eps):
        with pytest.raises(ChargeMismatchError, match="different group"):
            eps.evaluate(ChargeGroup(free_rank=2).element((1, 0)))

    def test_odd_torsion_minus_one_rejected(self):
        g3 = ChargeGroup(free_rank=0, torsion_orders=(3,))
        with pytest.raises(ValueError):
            StatisticsCharacter(g3, (-1,))
        StatisticsCharacter(g3, (1,))

    def test_sign_count_must_match_generators(self, group):
        with pytest.raises(ValueError):
            StatisticsCharacter(group, (-1,))
        with pytest.raises(ValueError):
            StatisticsCharacter(group, (-1, 0))

    def test_axioms_hold_for_standard_groups(self):
        for grp, signs in [
            (ChargeGroup(free_rank=1), (-1,)),
            (ChargeGroup(free_rank=1, torsion_orders=(2, 2)), (1, -1, -1)),
            (ChargeGroup(free_rank=2, torsion_orders=(4,)), (-1, 1, -1)),
        ]:
            report = verify_group_axioms(grp, StatisticsCharacter(grp, signs),
                                         trials=300, seed=7)
            assert report.passed, report.violations


class TestComposition:
    def test_nearby_carriers_compose_localized(self, group, shell):
        s = Morphism(group.element((1, 0)), cone_at(Z, 0.1, 0.3), shell)
        t = Morphism(group.element((2, 1)),
                     cone_at(np.array([0.3, 0.0, 0.954]) /
                             np.linalg.norm([0.3, 0.0, 0.954]), 0.1, 0.3),
                     shell)
        st = compose(s, t)
        assert isinstance(st, Morphism)
        assert st.charge.coords == (3, 1)
        assert cone_leq(s.localization, st.localization).holds
        assert cone_leq(t.localization, st.localization).holds

    def test_opposed_wide_carriers_compose_unlocalized(self, group, shell):
        a = BallCone(BallPoint(-0.3 * X), Cap(SphereDirection(X), 1.75))
        b = BallCone(BallPoint(0.3 * X), Cap(SphereDirection(-X), 1.75))
        s = Morphism(group.element((1, 0)), a, shell)
        t = Morphism(group.element((0, 1)), b, shell)
        st = compose(s, t)
        assert isinstance(st, ComposedUnlocalized)
        assert st.charge.coords == (1, 1)
        assert st.parts == (a, b)

    def test_composition_charge_is_commutative(self, group, shell):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = Morphism(group.random_element(rng),
                         random_cone(rng, psi_max=0.5), shell)
            t = Morphism(group.random_element(rng),
                         random_cone(rng, psi_max=0.5), shell)
            assert compose(s, t).charge == compose(t, s).charge

    def test_mixed_shells_rejected(self, group):
        s = Morphism(group.zero(), cone_at(Z), Hyperboloid(1.0))
        t = Morphism(group.zero(), cone_at(X), Hyperboloid(2.0))
        with pytest.raises(ChargeMismatchError):
            compose(s, t)

    def test_charges_of_two_groups_rejected(self, group, shell):
        s = Morphism(group.element((1, 0)), cone_at(Z), shell)
        t = Morphism(ChargeGroup(free_rank=2).element((1, 0)), cone_at(-Z),
                     shell)
        with pytest.raises(ChargeMismatchError, match="different groups"):
            compose(s, t)

    def test_conjugate_negates_charge_in_place(self, group, shell):
        s = Morphism(group.element((4, 1)), cone_at(Z), shell)
        c = conjugate(s)
        assert c.charge == -s.charge
        assert c.localization is s.localization
        assert conjugate(c).charge == s.charge


class TestExchange:
    def test_sign_for_disjoint_same_charge_carriers(self, group, eps, shell):
        g = group.element((1, 0))
        s = Morphism(g, cone_at(Z), shell)
        t = Morphism(g, cone_at(-Z), shell)
        assert exchange_statistics(s, t, eps) == -1
        h = group.element((2, 0))
        assert exchange_statistics(Morphism(h, cone_at(Z), shell),
                                   Morphism(h, cone_at(-Z), shell),
                                   eps) == 1

    def test_requires_equal_charges(self, group, eps, shell):
        s = Morphism(group.element((1, 0)), cone_at(Z), shell)
        t = Morphism(group.element((2, 0)), cone_at(-Z), shell)
        with pytest.raises(ChargeMismatchError):
            exchange_statistics(s, t, eps)

    def test_requires_disjoint_localizations(self, group, eps, shell):
        g = group.element((1, 0))
        s = Morphism(g, cone_at(Z, 0.1, 0.5), shell)
        t = Morphism(g, cone_at(Z, 0.05, 0.6), shell)
        with pytest.raises(AdmissibilityError):
            exchange_statistics(s, t, eps)

    def test_defined_on_random_disjoint_pairs(self, group, eps, shell):
        rng = np.random.default_rng(3)
        g = group.element((1, 1))
        for _ in range(20):
            a, b = disjoint_cone_pair(rng)
            val = exchange_statistics(Morphism(g, a, shell),
                                      Morphism(g, b, shell), eps)
            assert val == eps.evaluate(g)


class TestIntertwiner:
    def test_region_covers_both_localizations(self, group, shell):
        g = group.element((1, 0))
        s = Morphism(g, cone_at(Z, 0.1, 0.3), shell)
        t = Morphism(g, cone_at(-Z, 0.1, 0.3), shell)
        region = intertwiner_region(s, t)
        assert cone_leq(s.localization, region).holds
        assert cone_leq(t.localization, region).holds

    def test_impossible_pair_reports_remedy(self, group, shell):
        g = group.element((1, 0))
        a = BallCone(BallPoint(-0.3 * X), Cap(SphereDirection(X), 1.75))
        b = BallCone(BallPoint(0.3 * X), Cap(SphereDirection(-X), 1.75))
        with pytest.raises(AdmissibilityError, match="shrink"):
            intertwiner_region(Morphism(g, a, shell), Morphism(g, b, shell))

    def test_different_charges_rejected(self, group, shell):
        s = Morphism(group.element((1, 0)), cone_at(Z), shell)
        t = Morphism(group.element((0, 1)), cone_at(-Z), shell)
        with pytest.raises(ChargeMismatchError):
            intertwiner_region(s, t)


class TestTransport:
    def test_chain_reaches_target(self, group, shell):
        rng = np.random.default_rng(4)
        for _ in range(5):
            src = random_cone(rng, psi_max=0.6)
            dst = random_cone(rng, psi_max=0.6)
            s = Morphism(group.element((1, 0)), src, shell)
            path = transport_chain(s, dst)
            assert path.nodes[0] is src and path.nodes[-1] is dst

    def test_chain_avoids_forbidden_cone(self, group, shell):
        forbidden = cone_at(X, 0.2, 0.5)
        src = cone_at(Z, 0.15, 0.4)
        dst = cone_at(-Z, 0.15, 0.4)
        s = Morphism(group.element((1, 0)), src, shell)
        path = transport_chain(s, dst, forbidden)
        for node in path.nodes:
            assert disjoint(node, forbidden).disjoint


class TestShiftLightCone:
    def test_zero_shift_is_identity(self, group, shell):
        s = Morphism(group.element((1, 0)), cone_at(Z), shell)
        shifted = shift_light_cone(s, FourVector.from_parts(0.0, (0, 0, 0)))
        assert isinstance(shifted, ShiftedMorphism)
        assert shifted.morphism is s

    def test_time_shift_grows_localization(self, group, shell):
        s = Morphism(group.element((1, 0)), cone_at(Z, 0.1, 0.4), shell)
        t0 = FourVector.from_parts(0.5, (0.0, 0.0, 0.0))
        shifted = shift_light_cone(s, t0)
        assert shifted.morphism.charge == s.charge
        assert shifted.offset is t0
        assert cone_leq(s.localization,
                        shifted.morphism.localization).holds
