"""Shared samplers and fixtures for the geometry test suite."""

import math
import os
import sys

import numpy as np
import pytest

from hypercones import (BallCone, BallPoint, Cap, Hyperball, Hyperboloid,
                        LorentzTransform, SphereDirection,
                        cone_hyperball_disjoint, disjoint)


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def interior_point(rng: np.random.Generator, rmax: float = 0.9) -> np.ndarray:
    return rng.uniform(0.0, rmax) * unit_vector(rng)


def random_cone(rng: np.random.Generator, *, psi_max: float = 1.0,
                psi_min: float = 0.12, apex_r: float = 0.6) -> BallCone:
    """Valid cap cone with bounded aperture and apex depth."""
    while True:
        axis = unit_vector(rng)
        psi = rng.uniform(psi_min, psi_max)
        apex = rng.uniform(0.0, apex_r) * unit_vector(rng)
        if float(axis @ apex) < math.cos(psi) - 1e-6:
            return BallCone(BallPoint(apex), Cap(SphereDirection(axis), psi))


def random_transform(rng: np.random.Generator,
                     max_rapidity: float = 1.0) -> LorentzTransform:
    boost = LorentzTransform.boost(unit_vector(rng),
                                   rng.uniform(-max_rapidity, max_rapidity))
    rot = LorentzTransform.rotation(unit_vector(rng),
                                    rng.uniform(0.0, 2.0 * math.pi))
    return rot @ boost


def disjoint_cone_pair(rng: np.random.Generator,
                       psi_max: float = 0.7) -> tuple[BallCone, BallCone]:
    while True:
        a = random_cone(rng, psi_max=psi_max)
        b = random_cone(rng, psi_max=psi_max)
        if disjoint(a, b).disjoint:
            return a, b


def ball_disjoint_from_cone(rng: np.random.Generator, cone: BallCone,
                            shell: Hyperboloid,
                            radius: float = 0.25) -> Hyperball:
    """Hyperball whose hull misses the cone's hull, behind the cone."""
    for _ in range(500):
        center = (-(0.35 + 0.35 * rng.random()) * cone.base.axis.v
                  + 0.12 * rng.normal(size=3))
        if float(np.linalg.norm(center)) > 0.85:
            continue
        ball = Hyperball(shell, BallPoint(center), radius)
        if cone_hyperball_disjoint(cone, ball).disjoint:
            return ball
    raise AssertionError("sampler could not place a ball off the cone")


def exhaustion_family(rng: np.random.Generator) -> list[BallCone]:
    """Increasing cones marching backward along a common (random) axis."""
    axis = unit_vector(rng)
    cones = []
    for depth, psi_deg in ((0.2, 30.0), (0.5, 50.0), (0.8, 70.0)):
        psi = math.radians(psi_deg + rng.uniform(-3.0, 3.0))
        cones.append(BallCone(BallPoint(-depth * axis),
                              Cap(SphereDirection(axis), psi)))
    return cones


def certify_module():
    """The benchmark's instance sampler, perfbench/certify.py."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import certify
    return certify


def benchmark_instances(label: str, count: int, seed: int) -> list:
    """`count` instances of one construction drawn by the benchmark's
    sampler (perfbench/certify.py) from default_rng(seed), each a function
    of no arguments that runs the construction."""
    import hypercones

    certify = certify_module()
    rng = np.random.default_rng(seed)
    return [certify.call(hypercones, label, certify.sample(rng, label))
            for _ in range(count)]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture
def shell() -> Hyperboloid:
    return Hyperboloid(1.0)
