"""The benchmark's oracles against pinned closed forms, and the inputs
built with them against their intended answers.

    python3 -m pytest -q perfbench/test_oracles.py
"""
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import contact  # noqa: E402
import oracles as O  # noqa: E402

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_distance_from_origin_to_0_6_x_is_log_two():
    assert abs(O.ball_distance(np.zeros(3), 0.6 * X) - math.log(2.0)) < 1e-15


def test_homology_of_x_through_half_z():
    assert np.allclose(O.homology(0.5 * Z, X), [-0.6, 0.0, 0.8],
                       atol=1e-15)


def test_shadow_radius_of_shells_one_and_two():
    assert abs(O.shadow_radius(1.0, 2.0) - 2.0 * math.log(2.0)) < 1e-15


def test_boost_moves_the_upper_hemisphere_to_the_cap_cos_tanh():
    # the boundary point x of the cap z > 0 goes to (1/ch, 0, sh/ch)
    m = O.boost(Z, math.log(2.0))
    axis, psi = O.cap_image(m, Z, 0.5 * math.pi)
    assert np.allclose(axis, Z, atol=1e-15)
    assert abs(math.cos(psi) - 0.6) < 1e-15
    assert np.allclose(O.ball_action(m, X)[0], [0.8, 0.0, 0.6], atol=1e-15)


def test_exit_margins_of_a_centred_cone():
    cone = (np.zeros(3), Z, 0.25 * math.pi)
    m = O.exit_margins(cone, [[0.0, 0.0, 0.5], [0.3, 0.0, 0.3],
                              [0.0, 0.4, -0.1]])
    assert abs(m[0] - (1.0 - math.sqrt(0.5))) < 1e-15
    assert abs(m[1]) < 1e-15
    assert m[2] < 0.0


def test_hull_and_ellipsoid_supports():
    cone = (-0.5 * Z, Z, 0.4)
    assert O.hull_support(cone, -Z) == 0.5
    assert abs(O.hull_support(cone, Z) - 1.0) < 1e-15
    # the metric ball of radius ln 2 about 0.6 x spans x in [0, 15/17]
    rho = math.log(2.0)
    assert abs(O.ellipsoid_support(0.6 * X, rho, X) - 15.0 / 17.0) < 1e-14
    assert abs(O.ellipsoid_support(0.6 * X, rho, -X)) < 1e-14


def test_contact_instances_hold_their_margins():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = contact._margin(rng)
        _, a, b, answer = contact.mirror_pair(
            rng.uniform(0.2, 1.0), -0.2, 0.1, g, 1.0, np.eye(4))
        # hulls of an unmoved mirror pair reach x = g and x = -g
        assert abs(O.hull_support(a, X) - g) < 1e-15
        assert abs(O.hull_support(b, -X) - g) < 1e-15
        assert answer == (g < 0.0)
        m = contact._margin(rng)
        _, cone, (tau, center, radius), answer = contact.ball_in_cone(
            rng, m, inside=True)
        gap = tau * O.boundary_distance(cone, center)[0] - radius
        assert abs(gap - m) < 1e-12 and answer == (m > 0.0)


def test_found_mirror_pairs_overlap_far_beyond_the_window():
    rng = np.random.default_rng(4)
    for params in contact.FOUND_MIRRORS:
        psi, apex_x, depth, g, az, bdir, chi = params
        _, a, b, answer = contact.found_mirror(params)
        assert answer is False
        # the hulls meet near the cap point at x = g, mirrored onto x = 0
        v = np.array([0.0, math.cos(az), math.sin(az)])
        theta = psi + math.acos(g)
        axis = math.cos(theta) * X + math.sin(theta) * v
        u = X - float(X @ axis) * axis
        tip = math.cos(psi) * axis + math.sin(psi) * u / np.linalg.norm(u)
        tip[0] = 0.0
        eps = np.exp(rng.uniform(math.log(1e-9), math.log(1e-3), 20000))
        side = np.exp(rng.uniform(math.log(1e-5), math.log(1e-3), 20000))
        pts = (tip[None, :] * (1.0 - eps[:, None])
               + side[:, None] * rng.normal(size=(20000, 3)) * [0, 1, 1])
        pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
        pts = O.ball_action(O.boost(bdir, chi), pts)
        deepest = np.max(np.minimum(O.exit_margins(a, pts),
                                    O.exit_margins(b, pts)))
        assert deepest > 10.0 * contact.WINDOW
