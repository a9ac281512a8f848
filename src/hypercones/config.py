"""Centralized numeric tolerances.

Every predicate and construction in the package reads its thresholds from a
single :class:`Tolerances` record, so a test run or a CLI invocation can
tighten or loosen everything in one place. No construction draws samples:
each is certified by exact predicates, so there is no sampling budget to
set.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

__all__ = ["Tolerances", "DEFAULT_TOLERANCES", "load_tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # matrix-level identities (eta-orthogonality, det, group products)
    matrix_identity: float = 1e-10
    # component-level linear identities (reconstructions, pinned values)
    linear_identity: float = 1e-12
    # max residual of a circle fitted to a mapped circle in the selftest's
    # circle-preservation check
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


DEFAULT_TOLERANCES = Tolerances()


def load_tolerances(path: str) -> Tolerances:
    """Read a tolerance override file (JSON object of field -> value)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    known = {f.name for f in fields(Tolerances)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
    return replace(DEFAULT_TOLERANCES, **data)
