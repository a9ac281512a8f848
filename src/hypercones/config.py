"""Centralized numeric tolerances and sampling budgets.

Every predicate and construction in the package reads its thresholds from a
single :class:`Tolerances` record and its sample counts from a single
:class:`Budgets` record, so a test run or a CLI invocation can tighten or
loosen everything in one place.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

__all__ = ["Tolerances", "Budgets", "DEFAULT_TOLERANCES", "DEFAULT_BUDGETS",
           "load_tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # matrix-level identities (eta-orthogonality, det, group products)
    matrix_identity: float = 1e-10
    # component-level linear identities (reconstructions, pinned values)
    linear_identity: float = 1e-12
    # clamp window for acosh arguments slightly below 1
    acosh_clamp: float = 1e-12
    # max residual accepted when refitting a mapped circle to a cap
    circle_fit: float = 1e-7
    # separation/penetration below this is reported as degenerate
    degenerate_window: float = 1e-9
    # apex must sit at least this far off the base-circle plane
    pointedness: float = 1e-10
    # slack used when testing closed containment of sampled points
    containment_slack: float = 1e-9
    # angular slack (radians) for cap-inclusion tests
    cap_angle_slack: float = 1e-9
    # near-degenerate cap covering limit: no cap wider than pi - this
    cap_limit: float = 1e-3

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Budgets:
    # points used by Monte Carlo membership oracles
    membership_samples: int = 10_000
    # cap on bisection/adjustment rounds inside constructions
    search_rounds: int = 60

    def scaled(self, factor: float) -> "Budgets":
        return Budgets(
            membership_samples=max(64, int(self.membership_samples * factor)),
            search_rounds=self.search_rounds,
        )


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_BUDGETS = Budgets()


def load_tolerances(path: str) -> Tolerances:
    """Read a tolerance override file (JSON object of field -> value)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    known = {f.name for f in fields(Tolerances)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
    return replace(DEFAULT_TOLERANCES, **data)
