"""Cones in the projective ball and their certified predicates.

A cone is the interior of the convex hull of an apex point together with a
closed spherical cap region on the boundary sphere: equivalently, the union
of the open chords from the apex to the points of the open cap. Membership
reduces to an exit-point test (follow the ray from the apex and ask where it
leaves the sphere), containment of one cone in another reduces to cap
inclusion plus apex membership.

Disjointness is decided in closed form in an apex frame. Against a cone
(`disjoint`) the margin is an angle in the first cone's apex frame and
the certificate a plane through its apex; on contact the same test on the
cones shrunk to a cos-depth level, bisected on the level, gives a common
point within a factor 2 of the deepest. Against a metric ball
(`cone_hyperball_disjoint`) the margin is a shell distance and the
certificate the plane bisecting the common perpendicular. A point's
margin (`point_margin`) is likewise its shell distance to the lateral
boundary, in closed form, signed by membership.

Lorentz maps act on cones exactly through ball_model's float frame
kernels: the apex by the ball action, the cap by its covector image. Each
cone caches its apex frame (apex_matrix) with the image cap; the opposite
cone, the shell-metric distances, the contact tests and the shared-apex
tests all work in that frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .ball_model import (BallPoint, Cap, Hyperboloid, SphereDirection,
                         _act, _cap_seen, _inverse, apex_matrix, cap_image,
                         lorentz_ball_action, ray_exits, shadow_radius)
from .config import DEFAULT_TOLERANCES
from .errors import DegenerateGeometry
from .minkowski import FourVector, LorentzTransform
from .spherical import (angle, angle_between, cross, dot, orthonormal_frame,
                        perpendicular, rotate_toward, turn, unit)

__all__ = [
    "BallCone", "Hypercone", "Hyperball", "contains_point", "cone_leq",
    "LeqResult", "disjoint", "DisjointResult", "opposite", "enclosing_cone",
    "hyperball_in_cone", "InclusionResult", "in_causal_completion",
    "map_cone", "point_margin",
]


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
    def apex_frame(self) -> tuple[LorentzTransform, Cap]:
        """Boost whose ball action moves the apex to the origin, with the
        image of the cap under it: apex_frame_scalars as objects."""
        s = self.apex_frame_scalars
        return (LorentzTransform(np.reshape(s[:16], (4, 4))),
                Cap(SphereDirection(s[16:19]), s[19]))

    @cached_property
    def apex_frame_scalars(self) -> tuple[float, ...]:
        """The apex frame on plain floats for the one-point kernels: the 16
        entries, row by row, of the boost that moves the apex to the origin
        (ball_model.apex_matrix), then the image cap axis and half-angle."""
        m = apex_matrix(*self.exit_scalars[:3])
        n, c, s = _cap_seen(m, self.exit_scalars[4:7], self.base.cos_half,
                            math.sin(self.base.half_angle))
        return (*m, *n, math.atan2(s, c))


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
        if not 0.0 < self.radius < math.inf:
            raise ValueError("hyperball radius must be positive and finite")


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


def point_margin(cone: BallCone, p: np.ndarray) -> float:
    """Signed shell distance from the ball point p to the cone's lateral
    boundary, in the metric of the unit shell (tau = 1).

    Positive inside the open cone, negative outside it; read in closed
    form in the cone's apex frame (_frame_clearance), so it is invariant
    under Lorentz maps. The cap face sits at infinite distance.
    """
    dist, inside = _frame_clearance(cone, p.tolist(), 1.0)
    return dist if inside else -dist


@dataclass(frozen=True)
class LeqResult:
    """Outcome of a containment test between two cones."""

    holds: bool
    cap_margin: float     # radians of cap-inclusion slack
    apex_margin: float    # cos-space closed-membership margin of the apex

    def __bool__(self) -> bool:
        return self.holds


def cone_leq(inner: BallCone, outer: BallCone) -> LeqResult:
    """Closed containment inner <= outer (a partial order on cones).

    The closed hull of a cone is generated by its apex and its cap region,
    and the sphere trace of the outer hull is exactly the outer cap, so the
    test is: inner cap included in outer cap, and inner apex in the outer
    closed hull. Both parts are exact up to the fixed slacks.
    """
    gamma = angle_between(inner.base.axis.v, outer.base.axis.v)
    cap_margin = outer.base.half_angle - inner.base.half_angle - gamma
    apex = inner.apex.v.tolist()
    apex_margin = (0.0 if math.dist(apex, outer.apex.v.tolist()) < 1e-15
                   else outer.margin(apex))
    holds = (cap_margin >= -DEFAULT_TOLERANCES.cap_angle_slack
             and apex_margin >= -DEFAULT_TOLERANCES.containment_slack)
    return LeqResult(holds, cap_margin, apex_margin)


@dataclass(frozen=True)
class DisjointResult:
    """Outcome of a disjointness test, with its witness: a common point,
    or a separating plane that `separation` builds when first read."""

    disjoint: bool
    margin: float
    common_point: np.ndarray | None = None
    separation: Callable[[], tuple] | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.disjoint

    @cached_property
    def plane(self) -> tuple[np.ndarray, float] | None:
        """Unit normal w and offset c of the separating plane, or None."""
        return None if self.separation is None else self.separation()


# The contact kernel runs on plain floats, as _frame_clearance does: the
# vector helpers are spherical's and the frame kernels ball_model's.

def _plane(m, n) -> tuple[np.ndarray, float]:
    """The plane {Z : <Z, N> = 0} of the frame m carried back to the ball:
    unit normal w and offset c, with <Z, N> < 0 on the side w.x > c."""
    i = _inverse(m)
    n0, nx, ny, nz = (i[k] * n[0] + i[k + 1] * n[1] + i[k + 2] * n[2]
                      + i[k + 3] * n[3] for k in (0, 4, 8, 12))
    size = math.sqrt(nx * nx + ny * ny + nz * nz)
    return np.array([nx, ny, nz]) / size, n0 / size


def _hull_gap(n1, psi1: float, q, n2, c2: float, s2: float):
    """Angle from the cap (n1, psi1) to S, less psi1, and the point of S
    nearest n1 (n1 itself inside S). S, the radial projection of the hull
    of the point q (None for the origin) and the cap (n2, c2, s2), is the
    spherical hull of Q = q/|q| and the cap (Ratcliffe, Foundations of
    Hyperbolic Manifolds, 2.1): for Q outside the cap, delta from n2, it
    adds the sector at Q edged by the arcs tangent to the cap, half-angle
    beta and radius l, sin beta = sin psi2 / sin delta and cos l =
    cos delta / cos psi2 (Napier's rules; beta = pi/2 and l = pi once the
    origin is on the hull). Outside S the nearest point lies on the cap,
    or on an edge at its foot or Q.
    """
    psi2 = math.atan2(s2, c2)
    gap = angle(n1, n2) - psi2
    if gap <= 0.0:
        return -psi1, n1
    x = turn(n2, n1, psi2)
    if q is None:
        return gap - psi1, x
    # n1 in the frame of Q, u toward n2 and v toward n1's nearer edge
    big_q = unit(q)
    u = turn(big_q, n2, 0.5 * math.pi)
    sin_d, cos_d = dot(n2, u), dot(n2, big_q)
    if math.atan2(sin_d, cos_d) <= psi2:  # Q in the cap: S is the cap
        return gap - psi1, x
    if sin_d <= 0.0:  # -Q is n2: the origin lies in the hull
        return -psi1, n1
    root = math.sqrt(max(0.0, (sin_d - s2) * (sin_d + s2)))
    sb, cb = min(1.0, s2 / sin_d), root / sin_d
    reach = math.atan2(root, cos_d) if c2 > 0.0 else math.pi
    v = cross(big_q, u)
    if dot(n1, v) < 0.0:
        v = [-a for a in v]
    pq, pu, pv = dot(n1, big_q), dot(n1, u), dot(n1, v)
    po, pe = cb * pv - sb * pu, cb * pu + sb * pv  # off and along the edge
    rho = math.atan2(math.hypot(pu, pv), pq)
    if po <= 0.0 and rho <= reach:
        return -psi1, n1
    foot = math.atan2(pe, pq)
    edge = rho if foot < 0.0 else math.atan2(abs(po), math.hypot(pe, pq))
    if foot <= reach and edge < gap:  # the foot is pq Q + pe e
        gap, x = edge, (big_q if foot < 0.0 else unit(
            [pq * a + pe * (cb * b + sb * c) for a, b, c in zip(big_q, u, v)]))
    return gap - psi1, x


def _caps(k1: BallCone, k2: BallCone, t: float, m):
    """The caps (n1, psi1) and (n2, cos psi2, sin psi2) of the cones shrunk
    to cos psi + t, their points of cos-depth above t, in k1's apex frame
    m; None when one is empty."""
    caps = []
    for cone in (k1, k2):
        c = cone.base.cos_half + t
        if c >= 1.0:
            return None
        caps.append(_cap_seen(m, cone.exit_scalars[4:7], c,
                              math.sqrt((1.0 - c) * (1.0 + c))))
    return caps[0][0], math.atan2(caps[0][2], caps[0][1]), *caps[1]


def _line_entry(cone: BallCone, d) -> float:
    """Least r > -1 with r d in the cone's closed hull, for a unit d inside
    its open cap. With A, B, U and W of _chord_middle for the apex and cap,
    g(r) = r A - B - |r U - W| >= 0 there; g is concave and g(1) > 0, so
    the line meets the hull in [r0, 1) for r0 the root of g below 1: a root
    of |r U - W|^2 - (r A - B)^2 = qa r^2 - 2 qb r + qc on its side r A >=
    B, or -1 when g has none."""
    ax, ay, az, _, nx, ny, nz, c = cone.exit_scalars
    dx, dy, dz = d
    a, b = dx * nx + dy * ny + dz * nz, ax * nx + ay * ny + az * nz
    qd, qq, e = ax * dx + ay * dy + az * dz, ax * ax + ay * ay + az * az, c - b
    qa = a * a * qq + 2.0 * a * e * qd + e * e - a * a
    qb, qc = c * (a * qq + e * qd) - a * b, c * c * qq - b * b
    # a line through the apex gives a double root, found to about the
    # square root of the rounding: clamp the discriminant at 0
    big = qb + math.copysign(math.sqrt(max(qb * qb - qa * qc, 0.0)), qb)
    roots = [u / v for u, v in ((big, qa), (qc, big)) if v != 0.0]
    return max([r for r in roots if r < 1.0 and r * a - b >= -1e-12]
               + [-1.0])


def _chord_middle(d, q, n, c: float) -> float | None:
    """Middle r of the longest stretch of the ray {r d : 0 < r < 1} in the
    open hull of the point q and the cap (n, c = cos psi), or None: r d is
    inside when its ray from q crosses the plane x.n = c inside the ball,
    |r U - W| < r A - B with A = d.n, B = q.n, U = A q + (c - B) d and
    W = c q; stretches end at 0, 1, B/A and where the sides are equal."""
    dn, qn = dot(d, n), dot(q, n)
    u = [dn * a + (c - qn) * b for a, b in zip(q, d)]
    w = [c * a for a in q]
    qa, qb = dot(u, u) - dn * dn, dot(u, w) - dn * qn
    qc = dot(w, w) - qn * qn
    cuts = [0.0, 1.0] + ([qn / dn] if dn != 0.0 else [])
    disc = qb * qb - qa * qc
    if disc >= 0.0:
        big = qb + math.copysign(math.sqrt(disc), qb)
        cuts += [a / b for a, b in ((big, qa), (qc, big)) if b != 0.0]
    cuts = sorted(r for r in cuts if 0.0 <= r <= 1.0)
    best, middle = 0.0, None
    for lo, hi in zip(cuts, cuts[1:]):
        r = 0.5 * (lo + hi)
        y = [r * a - b for a, b in zip(u, w)]
        if hi - lo > best and math.sqrt(dot(y, y)) < r * dn - qn:
            best, middle = hi - lo, r
    return middle


def _overlap(k1: BallCone, k2: BallCone, m, q, inner: float,
             window: float) -> DisjointResult:
    """Common point of two meeting cones within a factor 2 of the deepest:
    the cones shrunk to cos-depth t (_caps) meet, when k1's apex lies
    deeper than t in k2 (`inner`) or their gap is negative, for t below
    the deepest common depth, which bisecting log t between the window and
    1 - cos psi brackets within a factor 1.5. The witness is the middle of
    the chord through k2 of the ray along n1 or x turned into S."""
    def meets(t):  # the caps at level t and, unless inner > t, the gap
        caps = _caps(k1, k2, t, m)
        if caps is None or inner > t:
            return None if caps is None else (caps, None)
        hit = _hull_gap(caps[0], caps[1], q, *caps[2:])
        return (caps, hit) if hit[0] < 0.0 else None

    lo, hi = window, min(1.0 - k1.base.cos_half, 1.0 - k2.base.cos_half)
    found, depth = meets(lo) if lo < hi else None, -math.inf
    while found is not None and hi > 1.5 * lo:
        mid = math.sqrt(lo * hi)
        hit = meets(mid)
        lo, hi, found = (lo, mid, found) if hit is None else (mid, hi, hit)
    if found is not None:
        (n1, psi1, n2, c2, s2), hit = found
        d = n1 if hit is None else turn(
            hit[1], n2, min(-0.5 * hit[0], 0.5 * angle(hit[1], n2)))
        r = _chord_middle(d, q or (0.0, 0.0, 0.0), n2, c2)
        if r is not None:
            p = _act(_inverse(m), [r * a for a in d])
            if dot(p, p) < 1.0:
                depth = min(k1.margin(p), k2.margin(p))
    if depth <= window:
        raise DegenerateGeometry(
            "cones meet only within the degenerate window; perturb inputs")
    return DisjointResult(False, -depth, np.array(p))


def disjoint(k1: BallCone, k2: BallCone) -> DisjointResult:
    """Whether two open cones have empty intersection.

    In k1's apex frame k1 is the open sector over its image cap (n1, psi1)
    and k2 projects onto S, the spherical hull of its apex's direction and
    its image cap (_hull_gap; the cap alone for a shared apex). They meet
    when k1's apex lies in k2, and otherwise exactly when dist(n1, S) <
    psi1. When apart, the margin is dist(n1, S) - psi1 in radians of k1's
    apex frame, which Lorentz maps keep, and the witness a plane (unit
    normal w, offset c) through k1's apex with k1 on its w.x > c side,
    built when first read. When they meet, the witness is a common point
    within a factor 2 of the deepest and the margin minus its cos-depth,
    its lesser cos-space margin (_overlap). A margin inside the window
    raises DegenerateGeometry.
    """
    window = DEFAULT_TOLERANCES.degenerate_window
    m = k1.apex_frame_scalars[:16]
    a1, a2 = k1.exit_scalars[:3], k2.exit_scalars[:3]
    q, inner = None, -math.inf
    if math.dist(a1, a2) > 1e-12:
        q, inner = _act(m, a2), k2.margin(a1)
    if inner <= 0.0:
        # k1's own image cap is the tail of its cached frame
        n1, psi1 = k1.apex_frame_scalars[16:19], k1.apex_frame_scalars[19]
        n2, c2, s2 = _cap_seen(m, k2.exit_scalars[4:7], k2.base.cos_half,
                               math.sin(k2.base.half_angle))
        gap, x = _hull_gap(n1, psi1, q, n2, c2, s2)
        if gap > window:
            def separation():
                # the great circle normal to the arc n1 x, midway between
                # the cap and x (or n1's equator) or at x, whichever clears
                # more: the cap by the arc less psi1, S by its generators'
                # least depth
                gens = [(n2, math.atan2(s2, c2))] + (
                    [] if q is None else [(unit(q), 0.0)])
                best, side = -math.inf, None
                for arc in (min(0.5 * gap + psi1, 0.5 * math.pi), gap + psi1):
                    w = (n1 if arc >= 0.5 * math.pi  # k1 lies on w.P > 0
                         else turn(n1, x, arc - 0.5 * math.pi))
                    clear = min(arc - psi1, *(
                        math.asin(max(-1.0, min(1.0, -dot(w, g)))) - r
                        for g, r in gens))
                    if clear > best:
                        best, side = clear, w
                return _plane(m, (0.0, *side))
            return DisjointResult(True, gap, separation=separation)
        if gap >= -window:
            raise DegenerateGeometry(
                "cones touch within the degenerate window; perturb inputs")
    return _overlap(k1, k2, m, q, inner, window)


def opposite(cone: BallCone) -> BallCone:
    """Cone of the rays opposite to a cone's rays, across its apex.

    It is the image of the cone under the point reflection at the apex. In
    the apex frame the apex is the origin and that reflection is the
    antipodal map, so the opposite cap there is the frame cap with its axis
    negated; the inverse frame carries it back exactly. Applying the
    construction twice returns the input.
    """
    *m, nx, ny, nz, psi = cone.apex_frame_scalars
    n, c, s = _cap_seen(_inverse(m), (-nx, -ny, -nz), math.cos(psi),
                        math.sin(psi))
    return BallCone(cone.apex, Cap(SphereDirection(n), math.atan2(s, c)))


def _covering_cap(caps: list[Cap], pad: float) -> Cap | None:
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
    if half >= math.pi - DEFAULT_TOLERANCES.cap_limit:
        return None
    return Cap(SphereDirection.normalized(axis), half)


_APEX_DEPTH_LADDER = (0.5, 0.75, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6,
                      1.0 - 1e-8)


def enclosing_cone(k1: BallCone, k2: BallCone) -> BallCone | None:
    """Smallest-effort common upper bound of two cones, or None.

    Covers both caps by one padded cap and walks the apex down the ray
    opposite the covering axis until both containments certify; gives up
    (returns None) when the covering cap would exceed the valid range or no
    ladder depth works.
    """
    if cone_leq(k1, k2):
        return k2
    if cone_leq(k2, k1):
        return k1
    for pad in (0.02, 0.1, 0.25):
        cover = _covering_cap([k1.base, k2.base], pad)
        if cover is None:
            return None
        for rho in _APEX_DEPTH_LADDER:
            apex = BallPoint(-rho * cover.axis.v)
            if float(cover.axis.v @ apex.v) >= cover.cos_half:
                continue
            candidate = BallCone(apex, cover)
            if cone_leq(k1, candidate) and cone_leq(k2, candidate):
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
    is inside exactly when theta < psi'. A point whose image rounds to
    |p'| >= 1 has no finite distance and raises DegenerateGeometry. Plain
    floats throughout: at one point per call, array dispatch would cost
    more than the arithmetic.
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
    if norm >= 1.0:
        raise DegenerateGeometry(
            "point rounds onto the sphere in the cone's apex frame")
    px, py, pz = px / norm, py / norm, pz / norm
    sx, sy, sz = py * nz - pz * ny, pz * nx - px * nz, px * ny - py * nx
    theta = math.atan2(math.sqrt(sx * sx + sy * sy + sz * sz),
                       px * nx + py * ny + pz * nz)
    r = math.atanh(norm)
    gap = abs(theta - psi)
    if gap >= 0.5 * math.pi:
        return tau * r, theta < psi
    return tau * math.asinh(math.sinh(r) * math.sin(gap)), theta < psi


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
    would accept escaping events.

    At s = 0 the quantity is A - kappa and no branch exceeds it, so the
    least s = 0 term over phi, -(N0 + kappa) at the first centre below,
    bounds the least value from above; this apex bound is returned at
    once when at or below `floor`. Otherwise _circle_minimum runs over
    phi and returns its least seed value unrefined when at or below
    `floor`. A return at or below `floor` is thus an upper bound only.

    That least value need not be unimodal in phi: it takes its smallest
    value at the shifted apex (s = 0, least at the azimuth below) or far
    out along a ray, where a cap nearly touching outer's cap gives a
    narrow dip at about the azimuth of inner's cap axis in outer's apex
    frame. The search therefore also refines around those two azimuths.
    Plain floats throughout, as in _frame_clearance: both frames are read
    from the cones' apex_frame_scalars.
    """
    *m_k, nx, ny, nz, psi_k = inner.apex_frame_scalars
    *m_r, psi = outer.apex_frame_scalars
    n_r, inv = m_r[16:], _inverse(m_r)
    # columns 1-3 of m_k eta m_r^T eta, row by row
    carry = [[m_k[i] * inv[j] + m_k[i + 1] * inv[j + 4]
              + m_k[i + 2] * inv[j + 8] + m_k[i + 3] * inv[j + 12]
              for j in (1, 2, 3)] for i in (0, 4, 8, 12)]
    e1 = perpendicular(n_r)
    e2 = cross(n_r, e1)
    # M at azimuth phi is a + cos(phi) b + sin(phi) d
    a, b, d = ([r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in carry]
               for v in ([math.sin(psi) * x for x in n_r],
                         [-math.cos(psi) * x for x in e1],
                         [-math.cos(psi) * x for x in e2]))
    s0, s1, s2, s3 = (float(x) for x in shift)
    t = [m_k[i] * s0 + m_k[i + 1] * s1 + m_k[i + 2] * s2 + m_k[i + 3] * s3
         for i in (0, 4, 8, 12)]
    # <t, .> as a row: kappa at phi is ka + cos(phi) kb + sin(phi) kd
    ka, kt, kb, kd = (t[0] / tau * v[0] - t[1] / tau * v[1]
                      - t[2] / tau * v[2] - t[3] / tau * v[3]
                      for v in (a, t, b, d))
    ka += kt / (2.0 * tau)
    a0, ax, ay, az = (x + y / tau for x, y in zip(a, t))
    b0, bx, by, bz = b
    d0, dx, dy, dz = d
    apex = -(a0 + ka) - math.hypot(b0 + kb, d0 + kd)
    if apex <= floor:
        return apex
    cos_k, sin_k = math.cos(psi_k), math.sin(psi_k)

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
        axis = _cap_seen(m_r, inner.exit_scalars[4:7], inner.base.cos_half,
                         math.sin(inner.base.half_angle))[0]
        yield math.atan2(dot(axis, e2), dot(axis, e1))

    return _circle_minimum(least, seeds, centres(), floor)


def _cone_clearance(inner: BallCone, outer: BallCone, tau: float,
                    seeds: int = 16) -> float:
    """Least shell distance from a point of `inner` to the lateral boundary
    of `outer`: tau asinh of the unshifted _plane_margin. It is at most 0
    when a point of `inner` lies outside `outer`, and -inf when a ray of
    `inner` ends outside it."""
    return tau * math.asinh(_plane_margin(inner, outer, tau, seeds=seeds))


def hyperball_in_cone(ball: Hyperball, cone: BallCone) -> InclusionResult:
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
    if abs(boundary - ball.radius) <= DEFAULT_TOLERANCES.degenerate_window:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    return InclusionResult(inside and boundary > ball.radius, float(margin))


def in_causal_completion(x: FourVector, region: Hypercone) -> bool:
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
    eps = DEFAULT_TOLERANCES.linear_identity
    if x0 < math.sqrt(rr) - eps or x0 <= 0.0 or not math.isfinite(square):
        raise ValueError("event must lie in the closed forward cone")
    if square <= eps:
        return False
    u = (x1 / x0, x2 / x0, x3 / x0)
    if not math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) < 1.0:
        raise ValueError("ball point must satisfy |u| < 1")
    tau = region.shell.tau
    radius = shadow_radius(math.sqrt(square), tau)
    if radius <= 1e-15 * tau:
        return contains_point(region.cone, BallPoint(u))
    boundary, inside = _frame_clearance(region.cone, u, tau)
    if abs(boundary - radius) <= DEFAULT_TOLERANCES.degenerate_window:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    return inside and boundary > radius


def map_cone(transform: LorentzTransform, cone: BallCone) -> BallCone:
    """Image of a cone under the ball action of a Lorentz transform."""
    return BallCone(lorentz_ball_action(transform, cone.apex),
                    cap_image(transform, cone.base))


def cone_hyperball_disjoint(cone: BallCone,
                            ball: Hyperball) -> DisjointResult:
    """Disjointness of a cone from a closed metric ball, with the contract
    of `disjoint` and its margin in shell distance.

    They are disjoint exactly when the ball's centre C lies outside the
    cone and its shell distance D to the boundary (_frame_clearance)
    exceeds the radius R; the margin is D - R, or -(D + R) for C inside.
    In the apex frame the cone point X nearest C is the foot (C.b) b on the
    nearest boundary ray b, or the apex. The certificate is the plane
    {Z : <Z, X - Y> = 0} for the ball point Y nearest X, normal to the
    geodesic CX at (D + R)/2, which each body clears by (D - R)/2, built
    when first read. The witness steps from X (C when inside) toward n'/2
    by half the overlap, bounded in the shell metric by 1/(1 - |z|^2)
    times the Euclidean step.
    """
    tau, radius = ball.shell.tau, ball.radius
    dist, inside = _frame_clearance(cone, ball.center.v.tolist(), tau)
    margin = -(dist + radius) if inside else dist - radius
    if abs(margin) <= DEFAULT_TOLERANCES.degenerate_window:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    *m, nx, ny, nz, psi = cone.apex_frame_scalars
    n = (nx, ny, nz)
    c = _act(m, ball.center.v.tolist())
    start, ahead = c, [-a for a in c]
    if not inside:
        start = (0.0, 0.0, 0.0)
        if angle(c, n) - psi < 0.5 * math.pi:
            b = turn(n, c, psi)
            start = [dot(c, b) * a for a in b]
            ahead = [-a for a in turn(n, c, psi + 0.5 * math.pi)]
    if margin > 0.0:
        def separation():
            # the unit tangent at C toward X: the lift's derivative along
            # ahead, carried (D + R)/2 along the geodesic from C
            room, za = 1.0 - dot(c, c), dot(c, ahead)
            t = [za, *(room * a + za * b for a, b in zip(ahead, c))]
            size = math.sqrt(t[1] ** 2 + t[2] ** 2 + t[3] ** 2 - t[0] ** 2)
            s, g = 0.5 * (dist + radius) / tau, 1.0 / math.sqrt(room)
            return _plane(m, [math.sinh(s) * g * a + math.cosh(s) * b / size
                              for a, b in zip((1.0, *c), t)])
        return DisjointResult(True, margin, separation=separation)
    way = [0.5 * a - b for a, b in zip(n, start)]
    length = math.sqrt(dot(way, way)) or 1.0
    step = min((1.0 - max(dot(start, start), 0.25)) * 0.5 * (
        radius - (0.0 if inside else dist)) / tau, 0.5 * length) / length
    p = _act(_inverse(m), [a + step * b for a, b in zip(start, way)])
    return DisjointResult(False, margin, np.array(p))
