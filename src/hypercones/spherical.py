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
    x, y, z = a
    n = math.sqrt(x * x + y * y + z * z)
    return x / n, y / n, z / n


def angle(a, b) -> float:
    """Angle between unit vectors, stable near 0 and pi."""
    (ax, ay, az), (bx, by, bz) = a, b
    cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                      ax * bx + ay * by + az * bz)


_BASIS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def perpendicular(a) -> tuple[float, float, float]:
    """A unit vector normal to a: a crossed with the basis vector of its
    least entry in size, the first of equal ones."""
    x, y, z = abs(a[0]), abs(a[1]), abs(a[2])
    if y < x:
        j = 2 if z < y else 1
    else:
        j = 2 if z < x else 0
    return unit(cross(a, _BASIS[j]))


def turn(a, b, by: float) -> tuple[float, float, float]:
    """The unit a turned by the angle `by` on a great circle toward b; on
    an arbitrary great circle when b is within 1e-14 of +-a."""
    (x, y, z), (u, v, w) = a, b
    d = x * u + y * v + z * w
    tx, ty, tz = u - d * x, v - d * y, w - d * z
    tt = tx * tx + ty * ty + tz * tz
    n = math.sqrt(tt) if tt >= 1e-28 else 0.0
    tx, ty, tz = (tx / n, ty / n, tz / n) if n else perpendicular(a)
    c, s = math.cos(by), math.sin(by)
    return c * x + s * tx, c * y + s * ty, c * z + s * tz


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
