"""Unit-sphere helpers shared by the cone modules.

The kernels that run one query per call work on 3-sequences of plain
floats (dot, cross, unit, angle): at that size, array dispatch would cost
more than the arithmetic. The rest take and return numpy arrays.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["angle_between", "rotate_toward", "slerp", "orthonormal_frame",
           "any_perpendicular"]


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


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    return angle(np.asarray(u, dtype=float).tolist(),
                 np.asarray(v, dtype=float).tolist())


def any_perpendicular(u: np.ndarray) -> np.ndarray:
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(u)))] = 1.0
    w = np.array(cross(u.tolist(), seed.tolist()))
    return w / np.linalg.norm(w)


def rotate_toward(u: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    """Rotate unit u by `angle` within the plane spanned by u and v,
    heading toward v. Falls back to an arbitrary plane when u, v are
    (anti)parallel."""
    w = v - float(v @ u) * u
    n = np.linalg.norm(w)
    w = any_perpendicular(u) if n < 1e-14 else w / n
    return math.cos(angle) * u + math.sin(angle) * w


def slerp(u: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    return rotate_toward(u, v, t * angle_between(u, v))


def orthonormal_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e1 = any_perpendicular(n)
    e2 = np.array(cross(n.tolist(), e1.tolist()))
    return e1, e2
