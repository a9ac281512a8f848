"""Causal-completion queries: blocks of events against a fixed set of
regions, as in the A13 check.

A region is a seeded cone on a seeded shell tau. Its events are lifts of
points of the cone, scaled in time by exp(U(-0.3, 0.5)) as in A13, so some
land inside the completion and some outside. Each event's answer comes
from ``oracles.in_completion``. Events whose shadow radius is within 1e-6
of the centre's distance to the cone boundary are dropped, so no answer
sits near the library's degenerate window.
"""
from __future__ import annotations

import numpy as np

import oracles as O
from certify import lifted_events, random_cone

REGIONS = 100
BLOCKS = 8         # blocks per region per round
BLOCK = 50         # events per block; one block is one operation


def sample(rng) -> list[tuple]:
    """Regions (cone, tau) and, per region, BLOCKS blocks of
    (events (BLOCK, 4), expected answers (BLOCK,))."""
    out = []
    for _ in range(REGIONS):
        cone = random_cone(rng)
        tau = rng.uniform(0.7, 1.5)
        events = np.empty((0, 4))
        answers = np.empty(0, dtype=bool)
        while len(events) < BLOCKS * BLOCK:
            x = lifted_events(cone, tau, BLOCKS * BLOCK, rng)
            inside, gap = O.in_completion(x, cone, tau)
            keep = np.abs(gap) > 1e-6
            events = np.vstack([events, x[keep]])
            answers = np.concatenate([answers, inside[keep]])
        blocks = [(events[k:k + BLOCK], answers[k:k + BLOCK])
                  for k in range(0, BLOCKS * BLOCK, BLOCK)]
        out.append((cone, tau, blocks))
    return out
