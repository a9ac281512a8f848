"""Cones in the projective ball and their certified predicates.

A cone is the interior of the convex hull of an apex point together with a
closed spherical cap region on the boundary sphere: equivalently, the union
of the open chords from the apex to the points of the open cap. Membership
reduces to an exit-point test (follow the ray from the apex and ask where it
leaves the sphere), containment of one cone in another reduces to cap
inclusion plus apex membership, and disjointness is decided by GJK on the
closed hulls. Both disjointness predicates, cone against cone and cone
against a metric ball's hull, share one certificate for each answer: a
separating plane whose margin is read from the support values of both
bodies (_separation), or a common point found by one mechanism, GJK again
on the bodies shrunk to the points deeper than a level, which are bodies
of the same kind, doubling the level from GJK's own common point while the
shrunk bodies meet (_shrunk_hull_witness).

Lorentz maps act on cones exactly: the apex by the ball action and the cap
by its covector image (``cap_image``). Each cone caches its apex frame, the
boost that moves its apex to the origin together with the image cap; the
opposite cone, the shell-metric distances and the shared-apex tests all
work in that frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ball_model import (BallPoint, Cap, Hyperboloid, SphereDirection,
                         ball_action_many, cap_image, lorentz_ball_action,
                         ray_exits, shadow_radius, sphere_action)
from .config import DEFAULT_TOLERANCES, Tolerances
from .convex import ConeHullSupport, Ellipsoid, GJKResult, \
    gjk_distance, hyperball_ellipsoid
from .errors import DegenerateGeometry
from .minkowski import FourVector, LorentzTransform
from .spherical import angle_between, orthonormal_frame, rotate_toward

__all__ = [
    "BallCone", "Hypercone", "Hyperball", "contains_point", "cone_leq",
    "LeqResult", "disjoint", "DisjointResult", "opposite", "enclosing_cone",
    "hyperball_in_cone", "InclusionResult", "in_causal_completion",
    "map_cone", "point_margin",
]


def apex_boost(p: np.ndarray) -> LorentzTransform:
    """Boost whose ball action moves the ball point p to the origin."""
    a = float(np.linalg.norm(p))
    if a < 1e-14:
        return LorentzTransform.identity()
    return LorentzTransform.boost(p / a, -math.atanh(a))


@dataclass(frozen=True)
class BallCone:
    """Open cone spanned from an apex over a spherical cap region.

    Validity requires the apex to sit strictly on the cap-free side of the
    base-circle plane; that single inequality is equivalent to the cone
    being convex and pointed (after moving the apex to the ball center the
    cap subtends less than a right angle).
    """

    apex: BallPoint
    base: Cap

    def __post_init__(self):
        slack = DEFAULT_TOLERANCES.pointedness
        if float(self.base.axis.v @ self.apex.v) >= self.base.cos_half - slack:
            raise ValueError(
                "apex must lie strictly below the base-circle plane")

    # -- raw geometry helpers ------------------------------------------

    @cached_property
    def exit_scalars(self) -> tuple[float, ...]:
        """The apex, 1 - |apex|^2, the cap axis and cos psi as plain floats
        for the one-point exit kernel (margin)."""
        ax, ay, az = self.apex.v.tolist()
        return (ax, ay, az, 1.0 - (ax * ax + ay * ay + az * az),
                *self.base.axis.v.tolist(), self.base.cos_half)

    def margin(self, p) -> float:
        """Cos-space margin of one point p (three floats): the cosine of the
        angle from the cap axis to where the ray from the apex through p
        leaves the sphere, less cos psi, and 0.0 at the apex.

        It is the matching row of interior_margins, to the bit: ray_exits
        and _margins do the same operations in the same order on columns.
        Plain floats throughout: at one point per call, array dispatch would
        cost more than the arithmetic.
        """
        ax, ay, az, room, nx, ny, nz, cos_half = self.exit_scalars
        x, y, z = p
        dx, dy, dz = x - ax, y - ay, z - az
        dd = dx * dx + dy * dy + dz * dz
        if dd < 1e-28:
            return 0.0
        ad = dx * ax + dy * ay + dz * az
        disc = math.sqrt(ad * ad + dd * room)
        # positive quadratic root, in the cancellation-free arrangement
        t = room / (ad + disc) if ad > 0.0 else (disc - ad) / dd
        ex, ey, ez = ax + t * dx, ay + t * dy, az + t * dz
        norm = math.sqrt(ex * ex + ey * ey + ez * ez)
        return ex / norm * nx + ey / norm * ny + ez / norm * nz - cos_half

    def _margins(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        exits, degenerate = ray_exits(self.apex.v, pts)
        nx, ny, nz, cos_half = self.exit_scalars[4:]
        margins = (exits[:, 0] * nx + exits[:, 1] * ny + exits[:, 2] * nz
                   - cos_half)
        return np.where(degenerate, 0.0, margins), degenerate

    def interior_margins(self, pts: np.ndarray) -> np.ndarray:
        """Cos-space margin of each row: positive strictly inside the open
        cone, negative outside the closed hull, ~0 on the boundary."""
        return self._margins(pts)[0]

    def contains_many(self, pts: np.ndarray, *, slack: float = 0.0,
                      closed: bool = False) -> np.ndarray:
        m, degenerate = self._margins(pts)
        if closed:
            return (m >= -slack) | degenerate
        return m > slack

    def centroid(self) -> BallPoint:
        """Midpoint of the chord from the apex toward the cap center; always
        strictly interior."""
        return BallPoint(0.5 * (self.apex.v + self.base.axis.v))

    def lateral_points(self, n_theta: int, s_values: np.ndarray) -> np.ndarray:
        """Grid on the ruled boundary surface, apex (s=0) to circle (s=1)."""
        ring = self.base.boundary_points(n_theta)
        a = self.apex.v
        pts = a + s_values[:, None, None] * (ring[None, :, :] - a)
        return pts.reshape(-1, 3)

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random interior points (not uniform, but covering the cone)."""
        z = self.base.cos_half + (1.0 - self.base.cos_half) * rng.random(n)
        phi = 2.0 * math.pi * rng.random(n)
        e1, e2 = orthonormal_frame(self.base.axis.v)
        rad = np.sqrt(1.0 - z * z)
        dirs = (z[:, None] * self.base.axis.v
                + rad[:, None] * (np.outer(np.cos(phi), e1)
                                  + np.outer(np.sin(phi), e2)))
        s = rng.random(n) ** 0.5
        return self.apex.v + s[:, None] * (dirs - self.apex.v)

    @cached_property
    def support_body(self) -> ConeHullSupport:
        """Support map of the closed hull, for GJK; built once per cone."""
        return ConeHullSupport(self.apex.v, self.base.axis.v,
                               self.base.half_angle)

    @cached_property
    def apex_frame(self) -> tuple[LorentzTransform, Cap]:
        """Boost whose ball action moves the apex to the origin, with the
        image of the cap under it; computed once per cone."""
        frame = apex_boost(self.apex.v)
        return frame, cap_image(frame, self.base)

    @cached_property
    def apex_frame_scalars(self) -> tuple[float, ...]:
        """The apex frame as plain floats for the scalar membership kernel:
        the 16 matrix entries row by row, then the image cap axis n' and
        half-angle psi'."""
        frame, cap = self.apex_frame
        return (*frame.matrix.ravel().tolist(), *cap.axis.v.tolist(),
                cap.half_angle)


@dataclass(frozen=True)
class Hypercone:
    """Causal completion region spanned by a ball cone on a time shell."""

    shell: Hyperboloid
    cone: BallCone


@dataclass(frozen=True)
class Hyperball:
    """Closed metric ball of a shell, encoded in ball coordinates."""

    shell: Hyperboloid
    center: BallPoint
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("hyperball radius must be positive")

    def ellipsoid(self) -> Ellipsoid:
        return hyperball_ellipsoid(self.center.v, self.radius, self.shell.tau)


def contains_point(cone: BallCone, u: BallPoint) -> bool:
    """Strict membership of a ball point in the open cone.

    The ray from the apex through u exits the sphere somewhere; u is inside
    exactly when that exit lies in the open cap region, that is when its
    margin (BallCone.margin, on plain floats) is positive. Boundary points
    (including the apex itself) return False.
    """
    return cone.margin(u.v.tolist()) > 0.0


_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _circle_minimum(f, seeds: int, centres=(),
                    floor: float = -math.inf) -> float:
    """Least value of a function of an angle: `seeds` equally spaced
    angles, then golden-section search, to 1e-12 rad, on the bracket of
    neighbouring seeds around the best one, around every other strict
    local minimum among them, and around each of the given centres. The
    least seed value is returned unrefined when it is at or below
    `floor`."""
    width = 2.0 * math.pi / seeds
    values = [f(i * width) for i in range(seeds)]
    found = min(values)
    if found <= floor:
        return found
    best = values.index(found)
    brackets = [((i - 1) * width, (i + 1) * width)
                for i, v in enumerate(values)
                if i == best or values[i - 1] > v < values[(i + 1) % seeds]]
    brackets += [(c - width, c + width) for c in centres]
    for lo, hi in brackets:
        x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        f1, f2 = f(x1), f(x2)
        while hi - lo > 1e-12:
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = f(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = f(x2)
        found = min(found, f1, f2)
    return found


def _lateral_distance(cone: BallCone, p: np.ndarray, seeds: int = 64) -> float:
    """Euclidean distance from p to the ruled lateral surface: the nearest
    of the segments from the apex to the base-circle points, over the circle
    angle (_circle_minimum)."""
    n, psi, a = cone.base.axis.v, cone.base.half_angle, cone.apex.v
    e1, e2 = orthonormal_frame(n)
    # apex to the base circle's centre, the circle's radius vectors, and
    # apex to p
    ux, uy, uz = (math.cos(psi) * n - a).tolist()
    e1x, e1y, e1z = (math.sin(psi) * e1).tolist()
    e2x, e2y, e2z = (math.sin(psi) * e2).tolist()
    qx, qy, qz = (p - a).tolist()

    def dist(theta: float) -> float:
        # to the segment from the apex to the base-circle point at theta
        c, s = math.cos(theta), math.sin(theta)
        dx = ux + c * e1x + s * e2x
        dy = uy + c * e1y + s * e2y
        dz = uz + c * e1z + s * e2z
        t = (qx * dx + qy * dy + qz * dz) / (dx * dx + dy * dy + dz * dz)
        t = min(max(t, 0.0), 1.0)
        rx, ry, rz = qx - t * dx, qy - t * dy, qz - t * dz
        return math.sqrt(rx * rx + ry * ry + rz * rz)

    return _circle_minimum(dist, seeds)


def _cap_face_distance(cone: BallCone, p: np.ndarray) -> float:
    n = cone.base.axis.v
    norm = float(np.linalg.norm(p))
    if norm > 0.0 and float(p @ n) / norm >= cone.base.cos_half:
        return abs(1.0 - norm)
    # otherwise the nearest cap-face point is on the base circle
    c0 = cone.base.cos_half * n
    v = p - c0
    par = float(v @ n)
    perp = v - par * n
    return math.hypot(par, float(np.linalg.norm(perp))
                      - math.sin(cone.base.half_angle))


def point_margin(cone: BallCone, p: np.ndarray) -> float:
    """Signed Euclidean distance from p to the cone boundary.

    Positive inside the open cone, negative outside the closed hull. The
    boundary consists of the ruled lateral surface (apex to base circle)
    and the spherical cap face.
    """
    dist = min(_lateral_distance(cone, p), _cap_face_distance(cone, p))
    return dist if cone.margin(p.tolist()) > 0.0 else -dist


@dataclass(frozen=True)
class LeqResult:
    """Outcome of a containment test between two cones."""

    holds: bool
    cap_margin: float     # radians of cap-inclusion slack
    apex_margin: float    # cos-space closed-membership margin of the apex

    def __bool__(self) -> bool:
        return self.holds


def cone_leq(inner: BallCone, outer: BallCone,
             tol: Tolerances = DEFAULT_TOLERANCES) -> LeqResult:
    """Closed containment inner <= outer (a partial order on cones).

    The closed hull of a cone is generated by its apex and its cap region,
    and the sphere trace of the outer hull is exactly the outer cap, so the
    test is: inner cap included in outer cap, and inner apex in the outer
    closed hull. Both parts are exact up to the configured slacks.
    """
    gamma = angle_between(inner.base.axis.v, outer.base.axis.v)
    cap_margin = outer.base.half_angle - inner.base.half_angle - gamma
    apex = inner.apex.v.tolist()
    apex_margin = (0.0 if math.dist(apex, outer.apex.v.tolist()) < 1e-15
                   else outer.margin(apex))
    holds = (cap_margin >= -tol.cap_angle_slack
             and apex_margin >= -tol.containment_slack)
    return LeqResult(holds, cap_margin, apex_margin)


@dataclass(frozen=True)
class DisjointResult:
    """Outcome of a disjointness test, with its witness."""

    disjoint: bool
    margin: float
    plane: tuple[np.ndarray, float] | None
    common_point: np.ndarray | None

    def __bool__(self) -> bool:
        return self.disjoint


def _plane_from_points(q0, q1, q2) -> tuple[np.ndarray, float]:
    w = np.cross(q1 - q0, q2 - q0)
    w /= np.linalg.norm(w)
    return w, float(w @ q0)


def _cap_min_value(cone: BallCone, w: np.ndarray) -> float:
    """min of w.x over the closed cap region of the cone."""
    return float(w @ cone.support_body.cap_support(-w))


def _common_apex_disjoint(k1: BallCone, k2: BallCone,
                          tol: Tolerances) -> DisjointResult:
    frame, c1 = k1.apex_frame
    c2 = cap_image(frame, k2.base)
    gamma = angle_between(c1.axis.v, c2.axis.v)
    gap = gamma - c1.half_angle - c2.half_angle
    if abs(gap) <= tol.degenerate_window:
        raise DegenerateGeometry(
            "cones with a shared apex are angularly tangent; perturb inputs")
    inv = frame.inverse()
    if gap > 0.0:
        # plane through the apex separating the two direction sectors
        beta = 0.5 * ((math.pi - gamma) + (c2.half_angle - c1.half_angle))
        h = rotate_toward(c1.axis.v, -c2.axis.v, beta)
        e1 = rotate_toward(h, c1.axis.v, 0.5 * math.pi)
        e2 = np.cross(h, e1)
        q = sphere_action(inv, np.array([e1, e2]))
        w, c = _plane_from_points(k1.apex.v, q[0], q[1])
        m1 = _cap_min_value(k1, w) - c
        if m1 < 0.0:
            w, c = -w, -c
            m1 = _cap_min_value(k1, w) - c
        m2 = c - k2.support_body.cap_support(w) @ w
        margin = min(m1, m2)
        if margin <= tol.degenerate_window:
            raise DegenerateGeometry(
                "separating plane margin through the shared apex collapsed")
        return DisjointResult(True, float(margin), (w, c), None)
    # overlapping sectors: exhibit a direction interior to both caps
    alpha = 0.5 * (gamma + c1.half_angle - c2.half_angle)
    alpha = min(max(alpha, 0.0), gamma)
    mid = rotate_toward(c1.axis.v, c2.axis.v, alpha)
    p = ball_action_many(inv, 0.5 * mid[None, :])[0]
    q = p.tolist()
    depth = min(k1.margin(q), k2.margin(q))
    if depth <= tol.degenerate_window:
        raise DegenerateGeometry("shared-apex overlap is tangent; perturb")
    return DisjointResult(False, float(-depth), None, p)


# Depth of a point in a body: a cone's cos-space interior margin, or an
# ellipsoid's 1 - |s| for the point m + M s. The points of depth at least t
# form a body of the same kind: the hull of the apex and the cap shrunk to
# cos psi' = cos psi + t, or the ellipsoid scaled by 1 - t about its centre.

def _depth(body: BallCone | Ellipsoid, p: np.ndarray) -> float:
    if isinstance(body, Ellipsoid):
        return float(body.depths(p[None, :])[0])
    return body.margin(p.tolist())


def _common_depth(b1: BallCone | Ellipsoid, b2: BallCone | Ellipsoid,
                  p: np.ndarray) -> float:
    """Depth of p in both bodies: the smaller of its two depths, and -inf
    for |p| >= 1 (a cap point, not a ball point)."""
    if float(p @ p) >= 1.0:
        return -math.inf
    return min(_depth(b1, p), _depth(b2, p))


def _shrunk(body: BallCone | Ellipsoid, t: float
            ) -> ConeHullSupport | Ellipsoid | None:
    """Closed hull of the points of depth at least t, or None if empty."""
    if isinstance(body, Ellipsoid):
        return body.scaled(1.0 - t) if t < 1.0 else None
    c = body.base.cos_half + t
    if c >= 1.0:
        return None
    return ConeHullSupport(body.apex.v, body.base.axis.v, math.acos(c))


# doublings of the depth level, then bisections of its last bracket
_SHRINK_STEPS = 64


def _shrunk_hull_witness(b1: BallCone | Ellipsoid, b2: BallCone | Ellipsoid,
                         window: float, seeds
                         ) -> tuple[np.ndarray | None, float]:
    """A common point of two bodies and its depth (_common_depth): above the
    window unless the bodies hold no such point, and then at least half the
    depth of the deepest common point.

    The seeds, common points the caller already holds (GJK's), are measured
    first. Every shrunk cone hull keeps its apex, at depth 0, and GJK may
    return it as the common point, so an apex that lies deeper than the
    window in the other body is tested next. Toward the apex, the depth of
    the points on its axis chord tends to the smaller of the apex's depth in
    the other body and 1 - cos psi; halving the step until a point reaches
    half of that yields a witness. Then GJK decides whether the two bodies
    shrunk to depth t meet, with t = window at first, or twice the deepest
    witness so far when that lies deeper than the window. While they meet,
    t doubles, starting from the deepest witness so far and so past the
    depth of every apex, keeping the deepest common point GJK returns, each
    depth measured again, until they separate; the depth found is then at
    least half the deepest. Only whether the shrunk hulls meet matters, so
    GJK stops at its first separating axis (decision_only). A common point
    GJK returns on the shrunk boundary can measure just under the window,
    so the last bracket of t is then bisected.
    """
    best, best_depth = None, -math.inf
    for p in seeds:
        d = _common_depth(b1, b2, p)
        if d > best_depth:
            best, best_depth = p, d
    for body, other in ((b1, b2), (b2, b1)):
        if not isinstance(body, BallCone):
            continue
        limit = min(_depth(other, body.apex.v), 1.0 - body.base.cos_half)
        if limit <= window:
            continue
        step = body.base.axis.v - body.apex.v
        s, d = 0.5, -math.inf
        while s > 1e-15 and d <= max(window, 0.5 * limit):
            p = body.apex.v + s * step
            d = _common_depth(b1, b2, p)
            if d > best_depth:
                best, best_depth = p, d
            s *= 0.5
    t, lo, hi = window, None, None
    if best_depth > window:
        t, lo = 2.0 * best_depth, best_depth
    for _ in range(_SHRINK_STEPS):
        h1, h2 = _shrunk(b1, t), _shrunk(b2, t)
        p = (None if h1 is None or h2 is None
             else gjk_distance(h1, h2, decision_only=True).common_point)
        if p is None:
            hi = t
        else:
            lo = t
            d = _common_depth(b1, b2, p)
            if d > best_depth:
                best, best_depth = p, d
        if hi is None:
            t = 2.0 * max(t, best_depth)
        elif lo is None or best_depth > window:
            break
        else:
            t = 0.5 * (lo + hi)
    return best, best_depth


def _separation(body_a, body_b, result: GJKResult,
                tol: Tolerances) -> DisjointResult:
    """Separating plane of two bodies that GJK found apart, with the first
    body on its positive side.

    The plane passes through the midpoint of GJK's closest points, normal
    to the segment between them. Its margin is the smaller of the two
    offsets of the bodies' support values from it, so it holds for the
    whole of both bodies, not only for GJK's points; a margin inside the
    window raises DegenerateGeometry.
    """
    w = result.point_b - result.point_a
    w /= np.linalg.norm(w)
    c = float(w @ (0.5 * (result.point_a + result.point_b)))
    m1 = c - float(w @ np.array(body_a.support_xyz(*w.tolist())))
    m2 = float(w @ np.array(body_b.support_xyz(*(-w).tolist()))) - c
    margin = min(m1, m2)
    if margin <= tol.degenerate_window:
        raise DegenerateGeometry("separation margin inside the window")
    return DisjointResult(True, float(margin), (-w, -c), None)


def _overlap(b1: BallCone | Ellipsoid, b2: BallCone | Ellipsoid, seeds,
             tol: Tolerances) -> DisjointResult:
    """The witness of two bodies whose hulls GJK found in contact:
    _shrunk_hull_witness from the given seeds, with margin minus its depth;
    contact inside the window raises DegenerateGeometry."""
    point, depth = _shrunk_hull_witness(b1, b2, tol.degenerate_window, seeds)
    if depth <= tol.degenerate_window:
        raise DegenerateGeometry(
            "hulls touch within the degenerate window; perturb inputs")
    return DisjointResult(False, float(-depth), None, point)


def disjoint(k1: BallCone, k2: BallCone,
             tol: Tolerances = DEFAULT_TOLERANCES) -> DisjointResult:
    """Whether two open cones have empty intersection.

    On True the witness is a separating plane (unit normal w, offset c) with
    the first cone on the w.x > c side; its margin is certified against the
    closed hulls by support values (_separation). On False the witness is a
    common interior point, and the margin minus its depth, the smaller of
    its cos-space depths in the two cones. When GJK finds the hulls in
    contact, one mechanism decides (_shrunk_hull_witness): starting from
    GJK's common point, or the midpoint of its closest points, GJK decides
    again on the cones shrunk to the points of depth above a level (each
    the hull of its apex and a narrower cap), doubling the level while they
    meet, so the witness lies within a factor 2 of the deepest common
    point. Shrunk hulls separated at the window mean contact inside the
    window, which raises DegenerateGeometry, as does a separation margin
    inside it. Cones sharing an apex are handled by an exact angular
    comparison (their closures always meet at the apex, which open
    disjointness permits).
    """
    if math.dist(k1.apex.v.tolist(), k2.apex.v.tolist()) <= 1e-12:
        return _common_apex_disjoint(k1, k2, tol)
    result = gjk_distance(k1.support_body, k2.support_body)
    if result.distance > tol.degenerate_window:
        return _separation(k1.support_body, k2.support_body, result, tol)
    seed = (result.common_point if result.common_point is not None
            else 0.5 * (result.point_a + result.point_b))
    return _overlap(k1, k2, (seed,), tol)


def opposite(cone: BallCone) -> BallCone:
    """Cone of the rays opposite to a cone's rays, across its apex.

    It is the image of the cone under the point reflection at the apex. In
    the apex frame the apex is the origin and that reflection is the
    antipodal map, so the opposite cap there is the frame cap with its axis
    negated; the inverse frame carries it back exactly. Applying the
    construction twice returns the input.
    """
    frame, cap = cone.apex_frame
    flipped = Cap(SphereDirection(-cap.axis.v), cap.half_angle)
    return BallCone(cone.apex, cap_image(frame.inverse(), flipped))


def _covering_cap(caps: list[Cap], pad: float,
                  tol: Tolerances) -> Cap | None:
    """Smallest-ish cap containing the given caps, padded; None when the
    required half-angle leaves the valid range."""
    axis = caps[0].axis.v
    half = caps[0].half_angle
    for cap in caps[1:]:
        gamma = angle_between(axis, cap.axis.v)
        if gamma + cap.half_angle <= half:
            continue
        if gamma + half <= cap.half_angle:
            axis, half = cap.axis.v, cap.half_angle
            continue
        new_half = 0.5 * (gamma + half + cap.half_angle)
        axis = rotate_toward(axis, cap.axis.v, new_half - half)
        half = new_half
    half += pad
    if half >= math.pi - tol.cap_limit:
        return None
    return Cap(SphereDirection.normalized(axis), half)


_APEX_DEPTH_LADDER = (0.5, 0.75, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6,
                      1.0 - 1e-8)


def enclosing_cone(k1: BallCone, k2: BallCone,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> BallCone | None:
    """Smallest-effort common upper bound of two cones, or None.

    Covers both caps by one padded cap and walks the apex down the ray
    opposite the covering axis until both containments certify; gives up
    (returns None) when the covering cap would exceed the valid range or no
    ladder depth works.
    """
    if cone_leq(k1, k2, tol):
        return k2
    if cone_leq(k2, k1, tol):
        return k1
    for pad in (0.02, 0.1, 0.25):
        cover = _covering_cap([k1.base, k2.base], pad, tol)
        if cover is None:
            return None
        for rho in _APEX_DEPTH_LADDER:
            apex = BallPoint(-rho * cover.axis.v)
            if float(cover.axis.v @ apex.v) >= cover.cos_half:
                continue
            candidate = BallCone(apex, cover)
            if cone_leq(k1, candidate, tol) and cone_leq(k2, candidate, tol):
                return candidate
    return None


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    margin: float  # shell-metric clearance of the ball from the boundary

    def __bool__(self) -> bool:
        return self.holds


def _frame_clearance(cone: BallCone, c, tau: float) -> tuple[float, bool]:
    """Shell distance from the ball point c (three floats) to the cone's
    lateral boundary, and whether c lies in the open cone.

    The cone's apex frame sends the apex to the origin and the cone to
    every point whose direction lies within psi' of the image cap axis n'.
    A point at distance r and angle theta from n' is nearest to the
    boundary ray in its own plane through n', at angle |theta - psi'| from
    it; the right-angled triangle relation sinh a = sinh c sin A (Beardon,
    The Geometry of Discrete Groups, ch. 7) gives the distance, and from a
    right angle on the apex itself is the nearest boundary point. The point
    is inside exactly when theta < psi'. Plain floats throughout: at one
    point per call, array dispatch would cost more than the arithmetic.
    """
    (m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23,
     m30, m31, m32, m33, nx, ny, nz, psi) = cone.apex_frame_scalars
    x, y, z = c
    den = m00 + m01 * x + m02 * y + m03 * z
    px = (m10 + m11 * x + m12 * y + m13 * z) / den
    py = (m20 + m21 * x + m22 * y + m23 * z) / den
    pz = (m30 + m31 * x + m32 * y + m33 * z) / den
    norm = math.sqrt(px * px + py * py + pz * pz)
    if norm == 0.0:
        return 0.0, False
    px, py, pz = px / norm, py / norm, pz / norm
    sx, sy, sz = py * nz - pz * ny, pz * nx - px * nz, px * ny - py * nx
    theta = math.atan2(math.sqrt(sx * sx + sy * sy + sz * sz),
                       px * nx + py * ny + pz * nz)
    r = math.atanh(norm)
    gap = abs(theta - psi)
    if gap >= 0.5 * math.pi:
        return tau * r, theta < psi
    return tau * math.asinh(math.sinh(r) * math.sin(gap)), theta < psi


def _min_boundary_distance(cone: BallCone, center: BallPoint,
                           tau: float) -> float:
    """Minimum shell distance from a ball point to the cone's lateral
    boundary (the cap face sits at infinite distance), in closed form in
    the apex frame (see _frame_clearance)."""
    return _frame_clearance(cone, center.v.tolist(), tau)[0]


def _plane_margin(inner: BallCone, outer: BallCone, tau: float,
                  shift=(0.0, 0.0, 0.0, 0.0), seeds: int = 16,
                  floor: float = -math.inf) -> float:
    """Least value, over the events X = tau y + t' with y a point of
    `inner` on the shell and t' the translation `shift` seen in inner's
    apex frame, and over the tangent planes of `outer`, of

        (-<X, M> - (<X, X> - tau^2) / (2 tau)) / tau,

    which is positive exactly when the causal shadow of X lies on the
    inner side of the plane; -inf when some event's shadow crosses it
    without bound. With no shift this is the least sinh-distance from
    inner to outer's boundary (_cone_clearance).

    In inner's apex frame, inner is the union of the geodesic rays from
    e0 = (1, 0, 0, 0) toward the ideal points c of its cap (n, psi). At
    azimuth phi the unit spacelike covector M is outer's apex-frame
    normal (0, sin psi' n' - cos psi' e_phi) carried into inner's frame,
    and -<Y, M> is sinh of the signed distance of a shell point Y/tau to
    that plane (Ratcliffe, Foundations of Hyperbolic Manifolds, section
    3.2). X with sigma^2 = <X, X> >= tau^2 (every shifted shell point
    qualifies) has a shadow ball of radius rho, cosh rho = (sigma^2 +
    tau^2) / (2 sigma tau), so sigma sinh rho = (sigma^2 - tau^2) / (2 tau),
    and the ball lies on the inner side exactly when -<X, M> exceeds that.
    Along the ray y = (cosh s, sinh s c) the quantity is linear in y:
    A cosh s + B(c) sinh s - kappa with N = M + t'/tau, A = -N0,
    B(c) = c.Ns and kappa = (<t', M> + <t', t'> / (2 tau)) / tau. Over
    the cap B is least at the cap point nearest -Ns, -reach with reach =
    |Ns| when -Ns lies in the cap, else |Ns| cos(gamma - psi) with gamma
    its angle to n. With p = A - reach the least value over s >= 0 is
    -inf if p < 0, A if reach <= 0, else sqrt(p (2A - p)); the test of
    p comes first, since with kappa subtracted a finite value for p < 0
    would accept escaping events. The least value over phi runs on
    _circle_minimum, which returns the least seed value unrefined when it
    is at or below `floor`.

    That least value need not be unimodal in phi: it takes its smallest
    value at the shifted apex (s = 0, least at the azimuth below) or far
    out along a ray, where a cap nearly touching outer's cap gives a
    narrow dip at about the azimuth of inner's cap axis in outer's apex
    frame. The search therefore also refines around those two azimuths.
    Plain floats throughout, as in _frame_clearance.
    """
    frame_k, cap_k = inner.apex_frame
    frame_r, cap_r = outer.apex_frame
    carry = (frame_k @ frame_r.inverse()).matrix[:, 1:]
    e1, e2 = orthonormal_frame(cap_r.axis.v)
    psi = cap_r.half_angle
    # M at azimuth phi is a + cos(phi) b + sin(phi) d
    a = carry @ (math.sin(psi) * cap_r.axis.v)
    b = carry @ (-math.cos(psi) * e1)
    d = carry @ (-math.cos(psi) * e2)
    t = frame_k.matrix @ np.asarray(shift, dtype=float)
    # <t, .> as a row: kappa at phi is ka + cos(phi) kb + sin(phi) kd
    t_row = np.array([t[0], -t[1], -t[2], -t[3]]) / tau
    ka = float(t_row @ a + t_row @ t / (2.0 * tau))
    kb, kd = float(t_row @ b), float(t_row @ d)
    a0, ax, ay, az = (a + t / tau).tolist()
    b0, bx, by, bz = b.tolist()
    d0, dx, dy, dz = d.tolist()
    nx, ny, nz = cap_k.axis.v.tolist()
    cos_k, sin_k = cap_k.cos_half, math.sin(cap_k.half_angle)

    def least(phi: float) -> float:
        # least margin of the shifted shadows against the plane at phi
        c, s = math.cos(phi), math.sin(phi)
        alpha = -(a0 + c * b0 + s * d0)
        mx, my, mz = ax + c * bx + s * dx, ay + c * by + s * dy, \
            az + c * bz + s * dz
        size = math.sqrt(mx * mx + my * my + mz * mz)
        toward = -(mx * nx + my * ny + mz * nz)  # |Ns| cos gamma
        if toward >= size * cos_k:
            reach = size
        else:
            sx, sy, sz = my * nz - mz * ny, mz * nx - mx * nz, \
                mx * ny - my * nx
            reach = (toward * cos_k
                     + math.sqrt(sx * sx + sy * sy + sz * sz) * sin_k)
        p = alpha - reach
        if p < 0.0:
            return -math.inf
        kappa = ka + c * kb + s * kd
        if reach <= 0.0:
            return alpha - kappa
        return math.sqrt(p * (2.0 * alpha - p)) - kappa

    def centres():
        # drawn only when the seeds pass `floor`
        yield math.atan2(d0 + kd, b0 + kb)
        axis = cap_image(frame_r, inner.base).axis.v  # in outer's frame
        yield math.atan2(float(axis @ e2), float(axis @ e1))

    return _circle_minimum(least, seeds, centres(), floor)


def _cone_clearance(inner: BallCone, outer: BallCone, tau: float,
                    seeds: int = 16) -> float:
    """Least shell distance from a point of `inner` to the lateral boundary
    of `outer`: tau asinh of the unshifted _plane_margin. It is at most 0
    when a point of `inner` lies outside `outer`, and -inf when a ray of
    `inner` ends outside it."""
    return tau * math.asinh(_plane_margin(inner, outer, tau, seeds=seeds))


def hyperball_in_cone(ball: Hyperball, cone: BallCone,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> InclusionResult:
    """Whether a closed metric ball lies inside the open cone.

    The ball is inside exactly when its center is inside and the center's
    shell distance to the lateral boundary exceeds the radius; both are
    read in closed form in the cone's apex frame (_frame_clearance). The
    margin is that distance minus the radius, negated (distance plus
    radius) for an outside center. A distance within the degenerate window
    of the radius raises DegenerateGeometry.
    """
    boundary, inside = _frame_clearance(cone, ball.center.v.tolist(),
                                        ball.shell.tau)
    margin = boundary - ball.radius if inside else -(boundary + ball.radius)
    if abs(boundary - ball.radius) <= tol.degenerate_window:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    return InclusionResult(inside and boundary > ball.radius, float(margin))


def in_causal_completion(x: FourVector, region: Hypercone,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Whether a forward-cone event belongs to the causal completion of the
    region a cone spans on the shell.

    The event's causal shadow on the shell is the metric ball about
    u = x_s / x0 whose radius is the shadow radius of sqrt(x.x) on tau; the
    event is in the completion exactly when that ball fits inside the cone,
    which the apex-frame closed form (_frame_clearance) decides on plain
    floats. Events on the light cone boundary (zero Minkowski square) are
    never inside. An event that is not a finite point of the closed forward
    cone raises ValueError; a shadow radius within the degenerate window of
    the boundary distance raises DegenerateGeometry.
    """
    a = (x.components if isinstance(x, FourVector)
         else np.asarray(x, dtype=float).reshape(4))
    x0, x1, x2, x3 = a.tolist()
    rr = x1 * x1 + x2 * x2 + x3 * x3
    square = x0 * x0 - rr
    if (x0 < math.sqrt(rr) - tol.linear_identity or x0 <= 0.0
            or not math.isfinite(square)):
        raise ValueError("event must lie in the closed forward cone")
    if square <= tol.linear_identity:
        return False
    u = (x1 / x0, x2 / x0, x3 / x0)
    if not math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) < 1.0:
        raise ValueError("ball point must satisfy |u| < 1")
    tau = region.shell.tau
    radius = shadow_radius(math.sqrt(square), tau, tol)
    if radius <= 1e-15 * tau:
        return contains_point(region.cone, BallPoint(u))
    boundary, inside = _frame_clearance(region.cone, u, tau)
    if abs(boundary - radius) <= tol.degenerate_window:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    return inside and boundary > radius


def map_cone(transform: LorentzTransform, cone: BallCone) -> BallCone:
    """Image of a cone under the ball action of a Lorentz transform."""
    return BallCone(lorentz_ball_action(transform, cone.apex),
                    cap_image(transform, cone.base))


def cone_hyperball_disjoint(cone: BallCone, ball: Hyperball | Ellipsoid,
                            tol: Tolerances = DEFAULT_TOLERANCES
                            ) -> DisjointResult:
    """Disjointness of a cone hull from a metric ball's Euclidean hull,
    with the contract of `disjoint`.

    GJK on the two hulls gives a separating plane, certified by support
    values as in `disjoint` (_separation): its margin is the smaller
    offset of the two bodies from the plane, about half GJK's distance. On
    contact, the deeper of GJK's common point and the ellipsoid's centre
    seeds the shrunk-hull decision (_shrunk_hull_witness) on the cone and
    the ellipsoid, the ellipsoid's depth being 1 - |s| for its point
    m + M s; the margin is minus the witness's smaller depth in the two,
    within a factor 2 of the deepest common point. A separation margin or
    a contact inside the window raises DegenerateGeometry.
    """
    ell = ball.ellipsoid() if isinstance(ball, Hyperball) else ball
    result = gjk_distance(cone.support_body, ell)
    if result.distance > tol.degenerate_window:
        return _separation(cone.support_body, ell, result, tol)
    seeds = (ell.center,) if result.common_point is None \
        else (result.common_point, ell.center)
    return _overlap(cone, ell, seeds, tol)
