"""The benchmark's own geometry, written apart from the library.

Everything here is derived from the hyperboloid model directly, with no
import from ``hypercones``. The workloads build their inputs with it and
check the library's answers against it:

- ``ball_distance`` and ``shadow_radius``: shell metric in closed form;
- ``boost``, ``ball_action`` and ``cap_image``: a Lorentz map acts on ball
  points projectively and on a cap {d : d.n > cos psi} through its
  spacelike covector k = (-cos psi, n), which maps to k . L^-1;
- ``exit_margins``: cone membership by where the ray from the apex leaves
  the sphere;
- ``hull_support``: support function of hull(apex, cap region), the gap
  used to place mirror pairs and balls at a chosen distance;
- ``ellipsoid_support``: support function of a metric ball's Euclidean
  hull, from the quadric X.C <= cosh(rho) of the hyperboloid.

A cone is a tuple (apex (3,), axis (3,), psi); a cap is (axis, psi).
"""
from __future__ import annotations

import math

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def ball_distance(u, w) -> float:
    """Shell-1 distance between two points of the open unit ball."""
    u, w = np.asarray(u, float), np.asarray(w, float)
    arg = (1.0 - u @ w) / math.sqrt((1.0 - u @ u) * (1.0 - w @ w))
    return math.acosh(max(arg, 1.0))


def shadow_radius(sigma: float, tau: float) -> float:
    """Radius on shell tau of the shadow of a point on shell sigma.

    The shells are rescaled copies of each other, so the shadow radius is
    tau times the rapidity of the rescaling, |ln(tau / sigma)|.
    """
    return tau * np.abs(np.log(tau / sigma))


def homology(u0, l) -> np.ndarray:
    """Second point where the line through ball point u0 and sphere
    point l meets the sphere."""
    u0, l = np.asarray(u0, float), np.asarray(l, float)
    d = u0 - l
    # |l + s d|^2 = 1 has the root s = 0; the other is -2 l.d / d.d
    s = -2.0 * float(l @ d) / float(d @ d)
    return l + s * d


def boost(direction, rapidity: float) -> np.ndarray:
    """4x4 pure boost along a spatial direction."""
    n = np.asarray(direction, float)
    n = n / np.linalg.norm(n)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    m = np.eye(4)
    m[0, 0] = ch
    m[0, 1:] = m[1:, 0] = sh * n
    m[1:, 1:] += (ch - 1.0) * np.outer(n, n)
    return m


def rotation(axis, angle: float) -> np.ndarray:
    """4x4 spatial rotation about an axis."""
    n = np.asarray(axis, float)
    n = n / np.linalg.norm(n)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]],
                  [-n[1], n[0], 0.0]])
    m = np.eye(4)
    m[1:, 1:] += math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return m


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of an eta-orthogonal matrix."""
    return ETA @ m.T @ ETA


def ball_action(m: np.ndarray, pts) -> np.ndarray:
    """Projective action of a Lorentz matrix on (n, 3) ball rows."""
    pts = np.atleast_2d(np.asarray(pts, float))
    homog = np.hstack([np.ones((len(pts), 1)), pts]) @ m.T
    return homog[:, 1:] / homog[:, :1]


def cap_image(m: np.ndarray, axis, psi: float) -> tuple[np.ndarray, float]:
    """Exact image of a cap under the boundary action of m."""
    k = np.concatenate([[-math.cos(psi)], np.asarray(axis, float)])
    k2 = k @ inverse(m)
    norm = float(np.linalg.norm(k2[1:]))
    return k2[1:] / norm, math.acos(max(-1.0, min(1.0, -k2[0] / norm)))


def map_cone(m: np.ndarray, cone) -> tuple:
    apex, axis, psi = cone
    axis2, psi2 = cap_image(m, axis, psi)
    return ball_action(m, apex)[0], axis2, psi2


def apex_frame(apex) -> np.ndarray:
    """Boost whose ball action moves the apex to the origin."""
    a = float(np.linalg.norm(apex))
    if a == 0.0:
        return np.eye(4)
    return boost(np.asarray(apex) / a, -math.atanh(a))


def exit_margins(cone, pts) -> np.ndarray:
    """Cos-space margin of the sphere exit of the ray from the apex
    through each row: positive strictly inside the open cone."""
    apex, axis, psi = cone
    d = np.atleast_2d(pts) - apex
    # |apex + t d| = 1 with t > 0
    a2 = np.einsum("ij,ij->i", d, d)
    b = d @ apex
    c = float(apex @ apex) - 1.0
    t = (-b + np.sqrt(b * b - a2 * c)) / a2
    exits = apex + t[:, None] * d
    exits /= np.linalg.norm(exits, axis=1)[:, None]
    return exits @ axis - math.cos(psi)


def cap_support(axis, psi: float, w) -> float:
    """max of w.d over the closed cap region of the unit sphere."""
    w = np.asarray(w, float)
    norm = float(np.linalg.norm(w))
    theta = math.acos(max(-1.0, min(1.0, float(w @ axis) / norm)))
    return norm * math.cos(max(0.0, theta - psi))


def hull_support(cone, w) -> float:
    """Support value of hull({apex} u cap region) in direction w."""
    apex, axis, psi = cone
    return max(float(np.asarray(w) @ apex), cap_support(axis, psi, w))


def ellipsoid_support(center, rho: float, w) -> float:
    """Support value in direction w of the Euclidean hull of the closed
    metric ball (shell 1) of radius rho about a ball point.

    With C the hyperboloid lift of the centre, the ball is
    (C0 - s.u)^2 <= cosh^2(rho) (1 - |u|^2), s = C_s, a quadric
    (u - m)^T A0 (u - m) <= kappa with A0 = cosh^2 I + s s^T.
    """
    c = np.asarray(center, float)
    w = np.asarray(w, float)
    g = 1.0 / math.sqrt(1.0 - float(c @ c))
    c0, s = g, g * c
    ch2 = math.cosh(rho) ** 2
    ss = float(s @ s)
    a_inv = lambda v: (v - s * float(s @ v) / (ch2 + ss)) / ch2  # noqa: E731
    m = a_inv(c0 * s)
    kappa = float(m @ (ch2 * m + s * float(s @ m))) - (c0 * c0 - ch2)
    return float(w @ m) + math.sqrt(kappa * float(w @ a_inv(w)))


def boundary_distance(cone, pts) -> np.ndarray:
    """Shell-1 distance from each ball point row to the cone's lateral
    boundary.

    In the apex frame the boundary is the set of geodesic rays from the
    origin at angle psi' to the cap axis; the right-angled triangle
    relation sinh a = sinh c sin A gives the distance, and from a right
    angle on the apex itself is nearest.
    """
    apex, axis, psi = cone
    frame = apex_frame(apex)
    c = ball_action(frame, pts)
    n2, psi2 = cap_image(frame, axis, psi)
    norm = np.linalg.norm(c, axis=1)
    theta = np.arctan2(np.linalg.norm(np.cross(c, n2), axis=1), c @ n2)
    gap = np.abs(theta - psi2)
    r = np.arctanh(norm)
    return np.where(gap >= 0.5 * math.pi, r,
                    np.arcsinh(np.sinh(r) * np.sin(gap)))


def ball_inside(cone, centers, radius) -> tuple[np.ndarray, np.ndarray]:
    """Whether each closed metric ball (shell 1) lies in the open cone,
    with the gap between its centre's boundary distance and its radius."""
    gap = boundary_distance(cone, centers) - radius
    return (exit_margins(cone, centers) > 0.0) & (gap > 0.0), gap


def in_completion(events, cone, tau: float) -> tuple[np.ndarray,
                                                      np.ndarray]:
    """Causal-completion membership of forward events (rows x0..x3) over
    a cone on shell tau: each event's shadow ball on the shell must lie
    in the cone. The gaps are in the shell-tau metric."""
    x = np.atleast_2d(events)
    sigma = np.sqrt(x[:, 0] ** 2 - np.einsum("ij,ij->i", x[:, 1:], x[:, 1:]))
    inside, gap = ball_inside(cone, x[:, 1:] / x[:, :1],
                              shadow_radius(sigma, tau) / tau)
    return inside, tau * gap


def cone_points(cone, n: int, rng: np.random.Generator) -> np.ndarray:
    """Points of the open cone: chords from the apex to cap points."""
    apex, axis, psi = cone
    z = math.cos(psi) + (1.0 - math.cos(psi)) * rng.random(n)
    e1 = np.cross(axis, unit(rng))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    phi = 2.0 * math.pi * rng.random(n)
    rad = np.sqrt(1.0 - z * z)
    dirs = (z[:, None] * axis + rad[:, None]
            * (np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)))
    s = rng.uniform(0.02, 0.999, n) ** 0.5
    return apex + s[:, None] * (dirs - apex)


def ball_points(center, radius: float, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """Points of the closed metric ball (shell 1): a centred ball of
    Euclidean radius tanh(radius), boosted out to the centre."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    pts = math.tanh(radius) * rng.random(n)[:, None] ** (1.0 / 3.0) * v
    return ball_action(inverse(apex_frame(center)), pts)


def leq(inner, outer, slack: float = 1e-9) -> bool:
    """Closed containment of cones: cap inclusion plus apex membership."""
    a_in, n_in, psi_in = inner
    a_out, n_out, psi_out = outer
    gamma = math.atan2(float(np.linalg.norm(np.cross(n_in, n_out))),
                       float(n_in @ n_out))
    if gamma + psi_in > psi_out + slack:
        return False
    if np.linalg.norm(a_in - a_out) < 1e-12:  # one apex, up to rounding
        return True
    return bool(exit_margins(outer, a_in)[0] >= -slack)


def separated(a, b, dirs) -> float:
    """Largest hull support gap of two cones over candidate normals:
    positive means a separating plane, so the open cones are disjoint."""
    return max(-hull_support(a, -w) - hull_support(b, w) for w in dirs)


def unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
