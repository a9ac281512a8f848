"""Abelian charge calculus with cone-localized carriers.

Charges live in a finitely generated abelian group (free part plus cyclic
torsion).  A morphism is the computable shadow of a charge carrier: its
charge label, the cone it is localized in, and the shell the cone refers
to.  Composition, conjugation, exchange statistics, and frame shifts are
bookkeeping on those labels, with every admissibility question delegated
to the geometry modules.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ball_model import Hyperboloid
from .cones import BallCone, disjoint, enclosing_cone
from .constructions import (ConePath, path_connect,
                            path_connect_in_complement, translate_enclosure)
from .errors import AdmissibilityError, ChargeMismatchError
from .minkowski import FourVector

__all__ = [
    "ChargeGroup", "ChargeElement", "StatisticsCharacter", "Morphism",
    "ComposedUnlocalized", "ShiftedMorphism", "AxiomReport",
    "compose", "conjugate", "exchange_statistics", "intertwiner_region",
    "transport_chain", "verify_group_axioms", "shift_light_cone",
]


@dataclass(frozen=True)
class ChargeGroup:
    """Z^free_rank plus a cyclic factor for each torsion order (>= 2)."""
    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        object.__setattr__(self, "torsion_orders",
                           tuple(int(m) for m in self.torsion_orders))
        if any(m < 2 for m in self.torsion_orders):
            raise ValueError("torsion orders must be at least 2")

    @property
    def n_generators(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def element(self, coords: Sequence[int]) -> "ChargeElement":
        return ChargeElement(self, tuple(int(c) for c in coords))

    def zero(self) -> "ChargeElement":
        return self.element((0,) * self.n_generators)

    def random_element(self, rng: np.random.Generator,
                       bound: int = 20) -> "ChargeElement":
        free = [int(rng.integers(-bound, bound + 1))
                for _ in range(self.free_rank)]
        tors = [int(rng.integers(0, m)) for m in self.torsion_orders]
        return self.element(free + tors)


@dataclass(frozen=True)
class ChargeElement:
    """Group element: free coordinates followed by torsion residues."""
    group: ChargeGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.n_generators:
            raise ValueError(
                f"expected {self.group.n_generators} coordinates, got "
                f"{len(self.coords)}")
        reduced = list(self.coords[:self.group.free_rank])
        for c, m in zip(self.coords[self.group.free_rank:],
                        self.group.torsion_orders):
            reduced.append(c % m)
        object.__setattr__(self, "coords", tuple(int(c) for c in reduced))

    def _binary(self, other: "ChargeElement", sign: int) -> "ChargeElement":
        if self.group != other.group:
            raise ChargeMismatchError("elements belong to different groups")
        return ChargeElement(self.group, tuple(
            a + sign * b for a, b in zip(self.coords, other.coords)))

    def __add__(self, other: "ChargeElement") -> "ChargeElement":
        return self._binary(other, +1)

    def __sub__(self, other: "ChargeElement") -> "ChargeElement":
        return self._binary(other, -1)

    def __neg__(self) -> "ChargeElement":
        return ChargeElement(self.group, tuple(-c for c in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class StatisticsCharacter:
    """Sign character on the charge group: one +-1 per generator.

    A torsion generator of odd order must carry +1; otherwise its order-many
    copies would compose to the vacuum while the sign product gives -1.
    """
    group: ChargeGroup
    signs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "signs",
                           tuple(int(s) for s in self.signs))
        if len(self.signs) != self.group.n_generators:
            raise ValueError(
                f"expected {self.group.n_generators} signs, got "
                f"{len(self.signs)}")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        for m, s in zip(self.group.torsion_orders,
                        self.signs[self.group.free_rank:]):
            if m % 2 == 1 and s == -1:
                raise ValueError(
                    f"sign -1 on a torsion generator of odd order {m} is "
                    "inconsistent: that many copies compose to the vacuum, "
                    "which must carry sign +1")

    def evaluate(self, g: ChargeElement) -> int:
        if g.group != self.group:
            raise ChargeMismatchError(
                "element belongs to a different group")
        value = 1
        for c, s in zip(g.coords, self.signs):
            if s == -1 and c % 2 == 1:
                value = -value
        return value


@dataclass(frozen=True)
class Morphism:
    """Charge carrier datum: charge label, localization cone, shell."""
    charge: ChargeElement
    localization: BallCone
    shell: Hyperboloid


@dataclass(frozen=True)
class ComposedUnlocalized:
    """Composition result whose localizations admit no common cone; it
    keeps the summed charge and both constituent cones."""
    charge: ChargeElement
    parts: tuple[BallCone, BallCone]
    shell: Hyperboloid


@dataclass(frozen=True)
class ShiftedMorphism:
    """Morphism re-expressed for an observer whose light cone apex moved
    by `offset`; its localization cone refers to the shifted shell."""
    morphism: Morphism
    offset: FourVector


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a randomized group/character axiom check."""
    trials: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _check_frames(s: Morphism, t: Morphism) -> None:
    if s.charge.group != t.charge.group:
        raise ChargeMismatchError("morphisms carry charges of different "
                                  "groups")
    if abs(s.shell.tau - t.shell.tau) > 1e-12:
        raise ChargeMismatchError("morphisms live on different shells")


def compose(s: Morphism, t: Morphism) -> Morphism | ComposedUnlocalized:
    """Composition: charges add; the localization is a cone enclosing both
    factors when one exists, otherwise the result is tagged unlocalized."""
    _check_frames(s, t)
    total = s.charge + t.charge
    cover = enclosing_cone(s.localization, t.localization)
    if cover is None:
        return ComposedUnlocalized(total, (s.localization, t.localization),
                                   s.shell)
    return Morphism(total, cover, s.shell)


def conjugate(s: Morphism) -> Morphism:
    """Charge-conjugate carrier: negated charge, same localization."""
    return Morphism(-s.charge, s.localization, s.shell)


def exchange_statistics(s: Morphism, t: Morphism,
                        eps: StatisticsCharacter) -> int:
    """Exchange sign of two same-charge carriers with disjoint
    localizations: the character value of their common charge."""
    _check_frames(s, t)
    if s.charge != t.charge:
        raise ChargeMismatchError(
            "exchange statistics is defined for carriers of the same "
            "charge")
    if not disjoint(s.localization, t.localization).disjoint:
        raise AdmissibilityError(
            "localizations are not spacelike separated; exchange needs "
            "disjoint cones (a common complement cone then always exists)")
    return eps.evaluate(s.charge)


def intertwiner_region(s: Morphism, t: Morphism) -> BallCone:
    """Cone in which a unitary relating two same-charge carriers can be
    localized: any cone enclosing both localizations."""
    _check_frames(s, t)
    if s.charge != t.charge:
        raise ChargeMismatchError(
            "intertwiners only relate carriers of the same charge")
    cover = enclosing_cone(s.localization, t.localization)
    if cover is None:
        raise AdmissibilityError(
            "no cone encloses both localizations; shrink one side with "
            "shrink_for_connectivity and transport it along a path before "
            "intertwining")
    return cover


def transport_chain(s: Morphism, target: BallCone,
                    forbidden: BallCone | None = None) -> ConePath:
    """Certified cone path moving a carrier's localization to a target
    cone, optionally staying in the complement of a forbidden cone."""
    if forbidden is None:
        return path_connect(s.localization, target)
    return path_connect_in_complement(forbidden, s.localization, target)


def verify_group_axioms(group: ChargeGroup, eps: StatisticsCharacter,
                        trials: int, seed: int = 0,
                        bound: int = 20) -> AxiomReport:
    """Randomized check of the abelian group axioms and the character
    laws; the report lists any violations (expected none)."""
    rng = np.random.default_rng(seed)
    violations: list[str] = []
    zero = group.zero()
    for k in range(trials):
        g = group.random_element(rng, bound)
        h = group.random_element(rng, bound)
        w = group.random_element(rng, bound)
        if (g + h).coords != (h + g).coords:
            violations.append(f"trial {k}: commutativity failed for "
                              f"{g.coords}, {h.coords}")
        if ((g + h) + w).coords != (g + (h + w)).coords:
            violations.append(f"trial {k}: associativity failed")
        if (g + zero).coords != g.coords:
            violations.append(f"trial {k}: identity failed for {g.coords}")
        if not (g + (-g)).is_zero:
            violations.append(f"trial {k}: inverse failed for {g.coords}")
        e_g = eps.evaluate(g)
        if e_g * e_g != 1:
            violations.append(f"trial {k}: character not a sign")
        if eps.evaluate(-g) != e_g:
            violations.append(f"trial {k}: conjugate sign differs for "
                              f"{g.coords}")
        if eps.evaluate(g + h) != e_g * eps.evaluate(h):
            violations.append(f"trial {k}: multiplicativity failed for "
                              f"{g.coords}, {h.coords}")
    return AxiomReport(trials, tuple(violations))


def shift_light_cone(s: Morphism, t0: FourVector) -> ShiftedMorphism:
    """Carrier as seen from a frame whose light cone apex moved down by
    t0: the charge is unchanged and the localization grows to a cone whose
    completion provably contains the original region shifted by t0."""
    if float(np.max(np.abs(t0.components))) <= 1e-15:
        return ShiftedMorphism(s, t0)
    grown = translate_enclosure(s.localization, s.shell.tau, [t0])
    return ShiftedMorphism(Morphism(s.charge, grown, s.shell), t0)
