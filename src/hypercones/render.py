"""Deterministic SVG rendering of planar cross-sections of the ball.

The drawing shows the unit circle of the chosen section plane, every cone
section as a filled polygon and every metric ball as an ellipse, both
traced in closed form, and every event's ball image as a small marker.
Identical scene + plane + version produce identical bytes: floats are
formatted to fixed precision, objects are drawn in sorted name order, and
no environment data (time, paths, locale) enters the output.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .cones import BallCone, Hyperball
from .errors import SceneError
from .minkowski import in_light_cone
from .scene import Scene
from .spherical import orthonormal_frame

_SIZE = 600.0
_SCALE = _SIZE / 2.4  # ball of radius 1 inside a 2.4-wide view
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#bcbd22"]
_ARC_POINTS = 64  # vertices spread over each boundary arc of a section


def parse_plane(spec: str) -> tuple[int, float]:
    """Parse a section-plane spec like ``z=0`` or ``x=-0.25``."""
    m = re.fullmatch(r"\s*([xyz])\s*=\s*([-+0-9.eE]+)\s*", spec)
    if not m:
        raise SceneError(f"plane spec must look like 'z=0', got {spec!r}")
    axis = "xyz".index(m.group(1))
    try:
        offset = float(m.group(2))
    except ValueError:
        raise SceneError(f"bad plane offset in {spec!r}") from None
    if abs(offset) >= 1.0:
        raise SceneError("plane offset must lie strictly inside the ball")
    return axis, offset


def _plane_frame(axis: int, offset: float):
    basis = np.eye(3)
    return offset * basis[axis], basis[(axis + 1) % 3], basis[(axis + 2) % 3]


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _to_px(u: float, v: float) -> tuple[str, str]:
    return (_fmt(_SIZE / 2 + _SCALE * u), _fmt(_SIZE / 2 - _SCALE * v))


def _polygon(points_uv, color: str, filled: bool) -> str:
    coords = " ".join(",".join(_to_px(u, v)) for u, v in points_uv)
    return (f'<polygon points="{coords}" fill="{color if filled else "none"}" '
            f'fill-opacity="{"0.35" if filled else "0.0"}" stroke="{color}" '
            f'stroke-width="1.5"/>')


def _arc(alpha: float, beta: float, gamma: float) -> tuple | None:
    """Where alpha + beta cos t + gamma sin t >= 0: None when nowhere, else
    (lo, hi), with hi - lo = 2 pi on the whole circle. The sum is
    alpha + R cos(t - phi), R = hypot(beta, gamma): phi -+ acos(-alpha/R)."""
    reach = math.hypot(beta, gamma)
    if alpha >= reach:
        return 0.0, 2.0 * math.pi
    if -alpha > reach:
        return None
    phi, half = math.atan2(gamma, beta), math.acos(-alpha / reach)
    return phi - half, phi + half


def _circle(t) -> np.ndarray:
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _spread(curve, arc: tuple, n: int) -> list:
    """n points of a plane curve (parameters -> rows) over an arc, its
    ends included unless it is the whole circle, spaced so that the chords
    stray about equally from the curve: evenly in sqrt(turn * length)
    summed along a chain of 8n chords."""
    lo, hi = arc
    fine = np.linspace(lo, hi, 8 * n + 1)
    steps = np.diff(curve(fine), axis=0)
    turn = np.abs(np.gradient(np.unwrap(np.arctan2(steps[:, 1],
                                                   steps[:, 0]))))
    run = np.cumsum(np.sqrt(np.r_[0.0, turn * np.hypot(*steps.T)]))
    at = np.linspace(0.0, run[-1], n, endpoint=hi - lo < 2.0 * math.pi)
    return [tuple(p) for p in curve(np.interp(at, run, fine)).tolist()]


def _cone_section(cone: BallCone, origin: np.ndarray, e1: np.ndarray,
                  e2: np.ndarray) -> list | None:
    """Boundary polygon of the cone section, or None if the plane misses.

    Geodesics of the projective model are chords, so the closed cone is
    the union of the segments from its apex to its cap. The section's
    boundary is then two arcs (_arc), joined where the base circle crosses
    the plane: the crossings of the generators from the apex to the base
    circle whose end lies across the plane from the apex, one division
    each, and the plane's circle on the sphere inside the closed cap. An
    apex in the plane is a corner joined to both ends of the sphere arc.
    """
    normal = np.cross(e1, e2)
    offset = float(normal @ origin)
    apex, n = cone.apex.v, cone.base.axis.v
    f1, f2 = orthonormal_frame(n)
    cos_half, sin_half = cone.exit_scalars[7], math.sin(cone.psi)
    radius = math.sqrt(1.0 - offset * offset)
    height = float(normal @ apex) - offset
    # the rim's height above the plane, times the apex's, is at most 0
    lateral = None if height == 0.0 else _arc(*(-height * np.array([
        cos_half * (n @ normal) - offset, sin_half * (f1 @ normal),
        sin_half * (f2 @ normal)])).tolist())
    dome = _arc(offset * float(n @ normal) - cos_half,
                radius * float(n @ e1), radius * float(n @ e2))

    def generators(t):
        rim = cos_half * n + sin_half * (_circle(t) @ np.array([f1, f2]))
        lam = height / (height - rim @ normal + offset)
        p = apex + lam[:, None] * (rim - apex) - origin
        return np.stack([p @ e1, p @ e2], axis=1)

    cut = lateral and _spread(generators, lateral, _ARC_POINTS)
    cap = dome and _spread(lambda t: radius * _circle(t), dome, _ARC_POINTS)
    if height == 0.0 and cap:
        p = apex - origin
        return [(float(p @ e1), float(p @ e2))] + cap
    if not (cut and cap) or lateral[1] - lateral[0] >= 2.0 * math.pi:
        return cut or cap
    if dome[1] - dome[0] >= 2.0 * math.pi:
        return cap
    # the sphere arc runs from the generators' last crossing to their first
    if math.dist(cap[-1], cut[-1]) < math.dist(cap[0], cut[-1]):
        cap.reverse()
    return cut + cap[1:-1]


def _ball_section(ball: Hyperball, origin: np.ndarray, e1: np.ndarray,
                  e2: np.ndarray) -> list | None:
    """Boundary of a metric ball's section, or None if the plane misses.

    As cosh d(u, c) = (1 - u.c) / sqrt((1 - |u|^2)(1 - |c|^2)), the ball of
    radius rho = radius/tau about c is the quadric (1 - u.c)^2 <= k (1 -
    |u|^2), k = cosh^2 rho (1 - |c|^2). At u = origin + w, with m = 1 -
    origin.c, d the in-plane part of c and r the plane circle's radius, it
    is the ellipse about m d / (k + |d|^2) with semi-axes sqrt(k L / (k +
    |d|^2)) along d and sqrt(L) across, L = r^2 - m^2 / (k + |d|^2).
    """
    c = ball.center.v
    normal = np.cross(e1, e2)
    offset = float(normal @ origin)
    try:
        k = math.cosh(ball.radius / ball.shell.tau) ** 2 * (1.0 - float(c @ c))
    except OverflowError:  # the ball fills the sphere to the floats
        return _spread(lambda t: math.sqrt(1.0 - offset * offset)
                       * _circle(t), (0.0, 2.0 * math.pi), _ARC_POINTS)
    m = 1.0 - offset * float(normal @ c)
    d = np.array([float(e1 @ c), float(e2 @ c)])
    dd = float(d @ d)
    level = 1.0 - offset * offset - m * m / (k + dd)
    if level <= 0.0:
        return None
    along = d / math.sqrt(dd) if dd > 0.0 else np.array([1.0, 0.0])
    axes = np.array([math.sqrt(k * level / (k + dd)) * along,
                     math.sqrt(level) * np.array([-along[1], along[0]])])
    return _spread(lambda t: m / (k + dd) * d + _circle(t) @ axes,
                   (0.0, 2.0 * math.pi), _ARC_POINTS)


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

    sections = ([(name, _cone_section(scene.cones[name], origin, e1, e2),
                  True) for name in sorted(scene.cones)]
                + [(name, _ball_section(scene.balls[name], origin, e1, e2),
                    False) for name in sorted(scene.balls)])
    for i, (name, pts, filled) in enumerate(sections):
        color = _PALETTE[i % len(_PALETTE)]
        if pts is None:
            continue
        parts.append(_polygon(pts, color, filled))
        ax, ay = _to_px(*_label_anchor(pts))
        parts.append(f'<text x="{ax}" y="{ay}" font-family="monospace" '
                     f'font-size="14" fill="{color}">{name}</text>')

    for name in sorted(scene.events):
        ev = scene.events[name]
        if not in_light_cone(ev):
            continue  # no ball image
        u = ev.xs / ev.x0
        if abs(float(u[axis]) - offset) > 0.05:
            continue
        px, py = _to_px(float(u @ e1), float(u @ e2))
        parts.append(f'<circle cx="{px}" cy="{py}" r="4" fill="black"/>')
        parts.append(f'<text x="{px}" y="{py}" dx="6" dy="-6" '
                     'font-family="monospace" font-size="14" '
                     f'fill="black">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _label_anchor(points) -> tuple[float, float]:
    u, v = zip(*points)
    return sum(u) / len(u), sum(v) / len(v)


def render_to_file(scene: Scene, plane_spec: str, out_path: str) -> None:
    text = render(scene, plane_spec)
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as bad:
        raise SceneError(f"cannot write drawing: {bad}") from None
