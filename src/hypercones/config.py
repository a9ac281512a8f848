"""The package's fixed numeric thresholds.

:data:`DEFAULT_TOLERANCES` holds the thresholds that the predicates,
constructions and self-test share. Each reads the fields it needs where it
uses them and nothing sets them per call, so every answer depends on its
inputs alone. No construction draws samples: each is certified by exact
predicates, so there is no sampling budget either.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT_TOLERANCES"]


@dataclass(frozen=True)
class Tolerances:
    # matrix-level identities (eta-orthogonality, det, group products)
    matrix_identity: float = 1e-10
    # component-level linear identities (reconstructions, pinned values)
    linear_identity: float = 1e-12
    # max residual of a circle fitted to a mapped circle in the selftest's
    # circle-preservation check
    circle_fit: float = 1e-7
    # separation/penetration below this is reported as degenerate; also the
    # slack of closed containment (cone_leq, the self-test's point checks)
    degenerate_window: float = 1e-9
    # apex must sit at least this far off the base-circle plane
    pointedness: float = 1e-10
    # near-degenerate cap covering limit: no cap wider than pi - this
    cap_limit: float = 1e-3


DEFAULT_TOLERANCES = Tolerances()

