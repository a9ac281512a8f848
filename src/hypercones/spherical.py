"""Unit-sphere helpers shared by the cone modules."""
from __future__ import annotations

import math

import numpy as np

__all__ = ["angle_between", "rotate_toward", "slerp", "orthonormal_frame",
           "any_perpendicular"]


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between unit vectors, stable near 0 and pi; computed on the
    three components as floats."""
    ux, uy, uz = np.asarray(u, dtype=float).tolist()
    vx, vy, vz = np.asarray(v, dtype=float).tolist()
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                      ux * vx + uy * vy + uz * vz)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product on the three components as floats: the same products
    and differences as np.cross, without its dispatch."""
    ux, uy, uz = u.tolist()
    vx, vy, vz = v.tolist()
    return np.array([uy * vz - uz * vy, uz * vx - ux * vz,
                     ux * vy - uy * vx])


def any_perpendicular(u: np.ndarray) -> np.ndarray:
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(u)))] = 1.0
    w = _cross(u, seed)
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
    e2 = _cross(n, e1)
    return e1, e2
