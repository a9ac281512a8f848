"""Deterministic SVG rendering of planar cross-sections of the ball.

The drawing shows the unit circle of the chosen section plane, every cone
section as a filled polygon (boundary located by bisecting the membership
predicate along rays), every metric ball as the exact ellipse cut out of
its Euclidean spheroid, and every event's ball image as a small marker.
Identical scene + plane + version produce identical bytes: floats are
formatted to fixed precision, objects are drawn in sorted name order, and
no environment data (time, paths, locale) enters the output.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .ball_model import Cap
from .cones import BallCone
from .convex import Ellipsoid
from .errors import SceneError
from .scene import Scene

_AXES = {"x": 0, "y": 1, "z": 2}
_SIZE = 600.0
_SCALE = _SIZE / 2.4  # ball of radius 1 inside a 2.4-wide view
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#bcbd22"]


def parse_plane(spec: str) -> tuple[int, float]:
    """Parse a section-plane spec like ``z=0`` or ``x=-0.25``."""
    m = re.fullmatch(r"\s*([xyz])\s*=\s*([-+0-9.eE]+)\s*", spec)
    if not m:
        raise SceneError(f"plane spec must look like 'z=0', got {spec!r}")
    axis = _AXES[m.group(1)]
    try:
        offset = float(m.group(2))
    except ValueError:
        raise SceneError(f"bad plane offset in {spec!r}") from None
    if abs(offset) >= 1.0:
        raise SceneError("plane offset must lie strictly inside the ball")
    return axis, offset


def _plane_frame(axis: int, offset: float):
    normal = np.zeros(3)
    normal[axis] = 1.0
    e1 = np.zeros(3)
    e1[(axis + 1) % 3] = 1.0
    e2 = np.zeros(3)
    e2[(axis + 2) % 3] = 1.0
    origin = offset * normal
    return origin, e1, e2


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _to_px(u: float, v: float) -> tuple[str, str]:
    return (_fmt(_SIZE / 2 + _SCALE * u), _fmt(_SIZE / 2 - _SCALE * v))


def _polygon(points_uv, fill: str, stroke: str, opacity: str) -> str:
    coords = " ".join(",".join(_to_px(u, v)) for u, v in points_uv)
    return (f'<polygon points="{coords}" fill="{fill}" '
            f'fill-opacity="{opacity}" stroke="{stroke}" '
            f'stroke-width="1.5"/>')


def _cone_section(cone: BallCone, origin: np.ndarray, e1: np.ndarray,
                  e2: np.ndarray, n_rays: int = 96) -> list | None:
    """Boundary polygon of the cone section, or None if the plane misses.

    An interior seed is searched on segments from the apex to the cap
    axis and to the ring at half the cap angle; each in-plane ray from the
    seed is then bisected against membership. The segments stay inside
    the cone: those to the base circle would lie in its boundary, where
    membership is down to rounding.
    """
    normal = np.cross(e1, e2)
    height = float(normal @ (cone.apex.v - origin))
    seed = None
    ring = Cap(cone.base.axis, 0.5 * cone.base.half_angle).boundary_points(8)
    targets = [cone.base.axis.v] + list(ring)
    for tgt in targets:
        span = float(normal @ (tgt - origin))
        same_side = (height > 0 and span > 0) or (height < 0 and span < 0)
        if same_side or abs(span - height) < 1e-12:
            continue
        t = height / (height - span)
        t = min(max(t, 1e-6), 1 - 1e-6)
        cand = cone.apex.v + t * (tgt - cone.apex.v)
        # pull slightly toward the chord midpoint to sit strictly inside
        mid = cone.apex.v + 0.5 * (tgt - cone.apex.v)
        for pull in (0.0, 0.02, 0.1):
            p = (1 - pull) * cand + pull * mid
            if cone.margin(p.tolist()) > 0.0:
                seed = p
                break
        if seed is not None:
            break
    if seed is None:
        return None
    poly = []
    for k in range(n_rays):
        ang = 2.0 * math.pi * k / n_rays
        d = math.cos(ang) * e1 + math.sin(ang) * e2
        lo, hi = 0.0, 2.2
        for _ in range(44):
            mid = 0.5 * (lo + hi)
            p = seed + mid * d
            if (p @ p) < 1.0 and cone.margin(p.tolist()) > 0.0:
                lo = mid
            else:
                hi = mid
        p = seed + lo * d - origin
        poly.append((float(p @ e1), float(p @ e2)))
    return poly


def _ellipse_section(ell: Ellipsoid, origin: np.ndarray, e1: np.ndarray,
                     e2: np.ndarray, n_pts: int = 64) -> list | None:
    """Exact boundary of a spheroid's planar section via its quadratic
    form restricted to the plane."""
    a_hat = ell.axis
    outer = np.outer(a_hat, a_hat)
    M = outer / ell.a_par ** 2 + (np.eye(3) - outer) / ell.a_perp ** 2
    E = np.stack([e1, e2], axis=1)
    A = E.T @ M @ E
    q = origin - ell.center
    b = E.T @ (M @ q)
    k = float(q @ (M @ q))
    center = np.linalg.solve(A, -b)
    level = 1.0 - k + float(b @ np.linalg.solve(A, b))
    if level <= 0.0:
        return None
    vals, vecs = np.linalg.eigh(A)
    radii = np.sqrt(level / vals)
    pts = []
    for kk in range(n_pts):
        ang = 2.0 * math.pi * kk / n_pts
        uv = center + radii[0] * math.cos(ang) * vecs[:, 0] \
            + radii[1] * math.sin(ang) * vecs[:, 1]
        pts.append((float(uv[0]), float(uv[1])))
    return pts


def render(scene: Scene, plane_spec: str) -> str:
    """SVG 1.1 document for the scene's section by the given plane."""
    axis, offset = parse_plane(plane_spec)
    origin, e1, e2 = _plane_frame(axis, offset)
    circle_r = math.sqrt(max(1.0 - offset * offset, 0.0))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(_SIZE)}" height="{int(_SIZE)}" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="white"/>',
    ]
    cx, cy = _to_px(0.0, 0.0)
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="{_fmt(_SCALE * circle_r)}" '
                 'fill="none" stroke="black" stroke-width="2"/>')

    color_index = 0
    for name in sorted(scene.cones):
        color = _PALETTE[color_index % len(_PALETTE)]
        color_index += 1
        poly = _cone_section(scene.cones[name], origin, e1, e2)
        if poly is None:
            continue
        parts.append(_polygon(poly, color, color, "0.35"))
        ax, ay = _to_px(*_label_anchor(poly))
        parts.append(f'<text x="{ax}" y="{ay}" font-family="monospace" '
                     f'font-size="14" fill="{color}">{name}</text>')

    for name in sorted(scene.balls):
        color = _PALETTE[color_index % len(_PALETTE)]
        color_index += 1
        pts = _ellipse_section(scene.balls[name].ellipsoid(), origin, e1, e2)
        if pts is None:
            continue
        parts.append(_polygon(pts, "none", color, "0.0"))
        ax, ay = _to_px(*_label_anchor(pts))
        parts.append(f'<text x="{ax}" y="{ay}" font-family="monospace" '
                     f'font-size="14" fill="{color}">{name}</text>')

    for name in sorted(scene.events):
        ev = scene.events[name]
        if ev.x0 <= 0.0:
            continue
        u = ev.xs / ev.x0
        if abs(float(u[_normal_index(e1, e2)]) - offset) > 0.05:
            continue
        px, py = _to_px(float(u @ e1), float(u @ e2))
        parts.append(f'<circle cx="{px}" cy="{py}" r="4" fill="black"/>')
        parts.append(f'<text x="{px}" y="{py}" dx="6" dy="-6" '
                     'font-family="monospace" font-size="14" '
                     f'fill="black">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _normal_index(e1: np.ndarray, e2: np.ndarray) -> int:
    normal = np.cross(e1, e2)
    return int(np.argmax(np.abs(normal)))


def _label_anchor(points) -> tuple[float, float]:
    u = sum(p[0] for p in points) / len(points)
    v = sum(p[1] for p in points) / len(points)
    return u, v


def render_to_file(scene: Scene, plane_spec: str, out_path: str) -> None:
    text = render(scene, plane_spec)
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as bad:
        raise SceneError(f"cannot write drawing: {bad}") from None
