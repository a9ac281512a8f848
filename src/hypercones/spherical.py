"""Unit-sphere helpers shared by the cone modules.

The kernels work on 3-sequences of plain floats: at one query per call,
array dispatch would cost more than the arithmetic. The names exported
take and return numpy arrays, and adapt them.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["angle_between", "rotate_toward", "slerp", "orthonormal_frame"]


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def unit(a) -> tuple[float, float, float]:
    n = math.sqrt(dot(a, a))
    return a[0] / n, a[1] / n, a[2] / n


def angle(a, b) -> float:
    """Angle between unit vectors, stable near 0 and pi."""
    c = cross(a, b)
    return math.atan2(math.sqrt(dot(c, c)), dot(a, b))


def perpendicular(a) -> tuple[float, float, float]:
    """A unit vector normal to a: a crossed with the basis vector of its
    least entry."""
    j = min(range(3), key=lambda i: abs(a[i]))
    return unit(cross(a, [float(i == j) for i in range(3)]))


def turn(a, b, by: float) -> tuple[float, float, float]:
    """The unit a turned by the angle `by` on a great circle toward b; on
    an arbitrary great circle when b is within 1e-14 of +-a."""
    d = dot(a, b)
    t = (b[0] - d * a[0], b[1] - d * a[1], b[2] - d * a[2])
    t = unit(t) if dot(t, t) >= 1e-28 else perpendicular(a)
    c, s = math.cos(by), math.sin(by)
    return c * a[0] + s * t[0], c * a[1] + s * t[1], c * a[2] + s * t[2]


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    return angle(np.asarray(u, dtype=float).tolist(),
                 np.asarray(v, dtype=float).tolist())


def rotate_toward(u: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    """Rotate unit u by `angle` within the plane spanned by u and v,
    heading toward v (turn)."""
    return np.array(turn(u.tolist(), v.tolist(), angle))


def slerp(u: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    return rotate_toward(u, v, t * angle_between(u, v))


def orthonormal_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = n.tolist()
    e1 = perpendicular(n)
    return np.array(e1), np.array(cross(n, e1))
