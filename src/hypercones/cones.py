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
cones shrunk to a cos-depth level gives a ray whose stretch in the second
hull (`_chord`, the one line-in-hull solver) holds a common point within a
factor 2 of the deepest. The level search starts from the lens depth of
the two caps, a closed-form lower bound on the deepest common depth, since
points near the sphere in both caps lie in both cones at their caps'
depths, and settles in two tests when that bound is tight, in one for a
shared apex, where it is exact. Against a metric ball
(`cone_hyperball_disjoint`) the margin is a shell distance and the
certificate the plane bisecting the common perpendicular.

Point margins (`point_margin`), ball inclusion (`hyperball_in_cone`,
`cone_hyperball_disjoint`) and completion membership
(`in_causal_completion`) share one lateral-distance kernel, `_lead`: for
a point lifted to an event x of Minkowski square s^2, L = s sinh d, with
d the shell distance to the lateral boundary and L > 0 inside, read in
the cone's apex frame with no divide and no angle. Each cone caches the
covector triple `_lead` reads (`lead_rows`): three rows of its apex
frame, along the image cap axis and two unit vectors across it.

A cone is its float record: `exit_scalars` (apex, 1 - |apex|^2, cap
axis, cos psi) and the half-angle `psi`, where every kernel reads it; its
BallPoint apex and Cap base are built on first read. `_cone` checks plain
floats and wraps them (`BallCone._of`), and Lorentz maps act through it
exactly (`_map`, on a 16-float matrix, which `map_cone` wraps): the apex
by the ball action, the cap by its covector image. Each cone caches its
apex frame (apex_matrix) with the image cap (`apex_frame_scalars`),
where the opposite cone, the shell-metric distances and the contact tests
work. Frame products go through minkowski's `_apply` and `_compose` and
ball_model's `_cap_seen`; only `_lead` keeps its own, three four-term dot
products with `lead_rows`.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ball_model import (BallPoint, Cap, Hyperboloid, SphereDirection,
                         _act, _cap_check, _cap_seen, _in_ball, apex_matrix,
                         ball_distance, ray_exits)
from .config import DEFAULT_TOLERANCES
from .errors import DegenerateGeometry
from .minkowski import (FourVector, LorentzTransform, _apply, _compose,
                        _inverse)
from .spherical import (angle, cross, dot, orthonormal_frame, perpendicular,
                        turn, unit)

__all__ = [
    "BallCone", "Hypercone", "Hyperball", "contains_point", "cone_leq",
    "LeqResult", "disjoint", "DisjointResult", "opposite", "enclosing_cone",
    "hyperball_in_cone", "InclusionResult", "in_causal_completion",
    "map_cone", "point_margin",
]

# the thresholds of config, read once
_WINDOW = DEFAULT_TOLERANCES.degenerate_window
_LINEAR = DEFAULT_TOLERANCES.linear_identity
_CAP_LIMIT = DEFAULT_TOLERANCES.cap_limit
_POINTEDNESS = DEFAULT_TOLERANCES.pointedness  # a cone's apex slack


class _cached:
    """A value computed on its first read and kept in the instance's
    __dict__, as functools.cached_property keeps it, with no lock: a
    non-data descriptor, so every later read finds the stored value
    first. (On Python 3.11 cached_property takes a class-wide lock on each
    first read.)"""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, init=False)
class BallCone:
    """Open cone spanned from an apex over a spherical cap region.

    Validity requires the apex to sit strictly on the cap-free side of the
    base-circle plane; that single inequality is equivalent to the cone
    being convex and pointed (after moving the apex to the ball center the
    cap subtends less than a right angle). It is its record (exit_scalars,
    psi); BallCone(apex, base) keeps the objects it is given.
    """

    exit_scalars: tuple[float, ...]
    psi: float
    __hash__ = None  # unhashable, as its apex and base are

    def __init__(self, apex: BallPoint, base: Cap):
        fields = vars(self)  # one item write each, past the frozen guard
        fields["exit_scalars"] = _pointed(apex._t, base.axis._t,
                                          math.cos(base.half_angle))
        fields["psi"], fields["apex"], fields["base"] = (base.half_angle,
                                                         apex, base)

    @classmethod
    def _of(cls, record: tuple[float, ...], psi: float) -> "BallCone":
        """The cone of a record that _pointed has checked."""
        cone = object.__new__(cls)
        fields = vars(cone)
        fields["exit_scalars"], fields["psi"] = record, psi
        return cone

    @_cached
    def apex(self) -> BallPoint:
        return BallPoint._of(self.exit_scalars[:3])

    @_cached
    def base(self) -> Cap:
        return Cap(SphereDirection._of(self.exit_scalars[4:7]), self.psi)

    # -- raw geometry helpers ------------------------------------------

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
        c = self.exit_scalars[7]
        z = c + (1.0 - c) * rng.random(n)
        phi = 2.0 * math.pi * rng.random(n)
        e1, e2 = orthonormal_frame(self.base.axis.v)
        rad = np.sqrt(1.0 - z * z)
        dirs = (z[:, None] * self.base.axis.v
                + rad[:, None] * (np.outer(np.cos(phi), e1)
                                  + np.outer(np.sin(phi), e2)))
        s = rng.random(n) ** 0.5
        return self.apex.v + s[:, None] * (dirs - self.apex.v)

    @_cached
    def apex_frame(self) -> tuple[LorentzTransform, Cap]:
        """Boost whose ball action moves the apex to the origin, with the
        image of the cap under it: apex_frame_scalars as objects, bit for
        bit, each wrapped by its type's _of. The boost is a closed form
        with no check to repeat; Cap checks the axis."""
        s = self.apex_frame_scalars
        return (LorentzTransform._of(s[:16]),
                Cap(SphereDirection._of(s[16:19]), s[19]))

    @_cached
    def apex_frame_scalars(self) -> tuple[float, ...]:
        """The apex frame on plain floats for the one-point kernels: the 16
        entries, row by row, of the boost that moves the apex to the origin
        (ball_model.apex_matrix), then the image cap axis and half-angle,
        then the cos and sin of that half-angle as _cap_seen returns them
        (22 floats)."""
        m = apex_matrix(*self.exit_scalars[:3])
        n, c, s = _cap_seen(m, self.exit_scalars[4:7], self.exit_scalars[7],
                            math.sin(self.psi))
        return (*m, *n, math.atan2(s, c), c, s)

    @_cached
    def lead_rows(self) -> tuple[float, ...]:
        """_lead's covector triple on plain floats: the rows v^T M of the
        spatial part M of the apex frame for v = n', e1 and e2, with n' the
        image cap axis, e1 = perpendicular(n') and e2 = n' x e1, then cos
        psi' and sin psi' (14 floats). M's rows are apex_matrix's closed
        form, so v^T M = (-g v.a, v + h (v.a) a) for the apex a, with g
        the frame's time entry and h = g^2 / (g + 1)."""
        ax, ay, az = self.exit_scalars[:3]
        f = self.apex_frame_scalars
        g, n = f[0], f[16:19]
        h = g * g / (g + 1.0)
        e1 = perpendicular(n)
        (nx, ny, nz), (px, py, pz), (qx, qy, qz) = n, e1, cross(n, e1)
        dn, dp, dq = (nx * ax + ny * ay + nz * az, px * ax + py * ay + pz * az,
                      qx * ax + qy * ay + qz * az)
        kn, kp, kq = h * dn, h * dp, h * dq
        return (-g * dn, nx + kn * ax, ny + kn * ay, nz + kn * az,
                -g * dp, px + kp * ax, py + kp * ay, pz + kp * az,
                -g * dq, qx + kq * ax, qy + kq * ay, qz + kq * az,
                f[20], f[21])


def _pointed(apex, axis, c: float) -> tuple[float, ...]:
    """BallCone's pointedness check, then its exit_scalars, on floats."""
    (ax, ay, az), (nx, ny, nz) = apex, axis
    if nx * ax + ny * ay + nz * az >= c - _POINTEDNESS:
        raise ValueError("apex must lie strictly below the base-circle plane")
    return ax, ay, az, 1.0 - (ax * ax + ay * ay + az * az), nx, ny, nz, c


def _cone(apex, axis, psi: float) -> BallCone:
    """BallCone(BallPoint(apex), Cap(SphereDirection(axis), psi)) on plain
    floats, checks, order and messages alike, with the axis as given, not
    divided by its numpy norm, and no BallPoint, SphereDirection or Cap."""
    apex = _in_ball(apex)
    _cap_check(axis, psi)
    return BallCone._of(_pointed(apex, axis, math.cos(psi)), psi)


def _map(m, cone: BallCone) -> BallCone:
    """Image of a cone under the Lorentz matrix m: _act and _cap_seen."""
    a = cone.exit_scalars
    n, c, s = _cap_seen(m, a[4:7], a[7], math.sin(cone.psi))
    return _cone(_act(m, a[:3]), n, math.atan2(s, c))


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
    return cone.margin(u._t) > 0.0


def point_margin(cone: BallCone, p: np.ndarray) -> float:
    """Signed shell distance from the ball point p to the cone's lateral
    boundary, in the metric of the unit shell (tau = 1).

    Positive inside the open cone, negative outside it; read in closed
    form in the cone's apex frame (_frame_clearance), so it is invariant
    under Lorentz maps. The cap face sits at infinite distance.
    """
    dist, inside = _frame_clearance(cone, p.tolist(), 1.0)
    return dist if inside else -dist


@dataclass(frozen=True, init=False)
class LeqResult:
    """Outcome of a containment test between two cones."""

    holds: bool
    cap_margin: float     # radians of cap-inclusion slack
    apex_margin: float    # cos-space closed-membership margin of the apex

    def __init__(self, holds: bool, cap_margin: float, apex_margin: float):
        fields = vars(self)  # as BallCone's, with no object.__setattr__
        fields["holds"], fields["cap_margin"], fields["apex_margin"] = (
            holds, cap_margin, apex_margin)

    def __bool__(self) -> bool:
        return self.holds


def cone_leq(inner: BallCone, outer: BallCone) -> LeqResult:
    """Closed containment inner <= outer (a partial order on cones).

    The closed hull of a cone is generated by its apex and its cap region,
    and the sphere trace of the outer hull is exactly the outer cap, so the
    test is: inner cap included in outer cap, and inner apex in the outer
    closed hull, both exact up to the degenerate window (_leq).
    """
    return LeqResult(*_leq(inner, outer))


def _leq(inner: BallCone, outer: BallCone) -> tuple[bool, float, float]:
    """cone_leq's holds and margins, on the cones' records: the cap margin
    psi_outer - psi_inner - angle(n_inner, n_outer), with spherical's angle
    written out operation for operation on the unpacked records, and the
    apex margin outer.margin(apex_inner)."""
    ax, ay, az, _, mx, my, mz, _ = inner.exit_scalars
    _, _, _, _, nx, ny, nz, _ = outer.exit_scalars
    cx, cy, cz = my * nz - mz * ny, mz * nx - mx * nz, mx * ny - my * nx
    cap = outer.psi - inner.psi - math.atan2(
        math.sqrt(cx * cx + cy * cy + cz * cz), mx * nx + my * ny + mz * nz)
    apex = outer.margin((ax, ay, az))
    return cap >= -_WINDOW and apex >= -_WINDOW, cap, apex


@dataclass(frozen=True, init=False)
class DisjointResult:
    """Outcome of a disjointness test, with its witness: a common point,
    or a separating plane that `separation` builds when first read."""

    disjoint: bool
    margin: float
    common_point: np.ndarray | None = None
    separation: Callable[[], tuple] | None = field(default=None, repr=False)

    def __init__(self, disjoint, margin, common_point=None, separation=None):
        fields = vars(self)  # as LeqResult's
        fields["disjoint"], fields["margin"] = disjoint, margin
        fields["common_point"], fields["separation"] = common_point, separation

    def __bool__(self) -> bool:
        return self.disjoint

    @_cached
    def plane(self) -> tuple[np.ndarray, float] | None:
        """Unit normal w and offset c of the separating plane, or None."""
        return None if self.separation is None else self.separation()


# The contact kernel runs on plain floats, as _frame_clearance does: the
# vector helpers are spherical's and the frame kernels ball_model's.

def _plane(m, n) -> tuple[np.ndarray, float]:
    """The plane {Z : <Z, N> = 0} of the frame m carried back to the ball:
    unit normal w and offset c, with <Z, N> < 0 on the side w.x > c. The
    inverse frame carries the covector N as _cap_seen carries a cap's."""
    w, c, _ = _cap_seen(_inverse(m), n[1:], n[0], 0.0)
    return np.array(w), c


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
    # n1 in the frame of Q, u toward n2 and v toward n1's nearer edge;
    # spherical's unit, dot and cross written out, operation for operation
    (ax, ay, az), (nx, ny, nz), (mx, my, mz) = q, n2, n1
    size = math.sqrt(ax * ax + ay * ay + az * az)
    qx, qy, qz = big_q = ax / size, ay / size, az / size
    ux, uy, uz = u = turn(big_q, n2, 0.5 * math.pi)
    sin_d, cos_d = nx * ux + ny * uy + nz * uz, nx * qx + ny * qy + nz * qz
    if math.atan2(sin_d, cos_d) <= psi2:  # Q in the cap: S is the cap
        return gap - psi1, x
    if sin_d <= 0.0:  # -Q is n2: the origin lies in the hull
        return -psi1, n1
    root = math.sqrt(max(0.0, (sin_d - s2) * (sin_d + s2)))
    sb, cb = min(1.0, s2 / sin_d), root / sin_d
    reach = math.atan2(root, cos_d) if c2 > 0.0 else math.pi
    vx, vy, vz = qy * uz - qz * uy, qz * ux - qx * uz, qx * uy - qy * ux
    if mx * vx + my * vy + mz * vz < 0.0:
        vx, vy, vz = -vx, -vy, -vz
    pq, pu, pv = (mx * qx + my * qy + mz * qz, mx * ux + my * uy + mz * uz,
                  mx * vx + my * vy + mz * vz)
    po, pe = cb * pv - sb * pu, cb * pu + sb * pv  # off and along the edge
    rho = math.atan2(math.hypot(pu, pv), pq)
    if po <= 0.0 and rho <= reach:
        return -psi1, n1
    foot = math.atan2(pe, pq)
    edge = rho if foot < 0.0 else math.atan2(abs(po), math.hypot(pe, pq))
    if foot <= reach and edge < gap:  # the foot is pq Q + pe e
        gap, x = edge, (big_q if foot < 0.0 else unit((
            pq * qx + pe * (cb * ux + sb * vx),
            pq * qy + pe * (cb * uy + sb * vy),
            pq * qz + pe * (cb * uz + sb * vz))))
    return gap - psi1, x


def _caps(k1: BallCone, k2: BallCone, t: float, m):
    """The caps (n1, psi1) and (n2, cos psi2, sin psi2) of the cones shrunk
    to cos psi + t, their points of cos-depth above t, in k1's apex frame
    m; None when one is empty."""
    caps = []
    for cone in (k1, k2):
        c = cone.exit_scalars[7] + t
        if c >= 1.0:
            return None
        caps.append(_cap_seen(m, cone.exit_scalars[4:7], c,
                              math.sqrt((1.0 - c) * (1.0 + c))))
    return caps[0][0], math.atan2(caps[0][2], caps[0][1]), *caps[1]


def _chord(q, n, c: float, d) -> tuple[float, float]:
    """Ends lo, hi of the stretch of the line {r d : -1 < r < 1}, d unit,
    in the closed hull of the point q and the cap (n, c = cos psi); lo > hi
    when it misses. r d is inside when its ray from q meets the plane
    x.n = c in the ball, g(r) = r A - B - |r U - W| >= 0 for A = d.n,
    B = q.n, U = A q + (c - B) d and W = c q. g is concave, and the ends in
    the ball are roots of |r U - W|^2 - (r A - B)^2 on its side r A >= B,
    taken in t = r - q.d: with w = q - (q.d) d, the apex's offset from the
    line, it is qa t^2 - 2 qb t + qc, and qb and qc vanish with w, so a
    line through or near the apex meets the hull there to the rounding of
    w, not to its square root as the double root in r. For d in the open
    cap the stretch runs to 1 from the largest root below 1, or -1, with
    no side test, which rounding fails at a flat cone's near-double root:
    r A - B = (x - q).n >= 0 on the closed hull, x = r d, so a root with
    r A < B is on the far nappe, off the hull, below the entry. For -d
    alone, it is the mirror image; else it lies between the roots on the
    exact side, clipped to the ball, and is empty for a negative
    discriminant."""
    (qx, qy, qz), (nx, ny, nz), (dx, dy, dz) = q, n, d
    a, along = dx * nx + dy * ny + dz * nz, qx * dx + qy * dy + qz * dz
    if a <= c < -a:  # -d alone in the open cap: the line along -d, exactly
        return -1.0, -_chord(q, n, c, (-dx, -dy, -dz))[0]
    # once more, so that w keeps no rounding left along d, which qa =
    # -sin^2 psi would divide for a line through the apex
    along += ((qx - along * dx) * dx + (qy - along * dy) * dy
              + (qz - along * dz) * dz)
    wx, wy, wz = qx - along * dx, qy - along * dy, qz - along * dz
    wn, ww = wx * nx + wy * ny + wz * nz, wx * wx + wy * wy + wz * wz
    e, f = c - wn, along * a - c
    qa = e * e + a * a * ww - a * a
    qb = e * along * wn - a * f * ww - a * wn
    qc = (along * along - 1.0) * wn * wn + f * f * ww
    disc = qb * qb - qa * qc
    big = qb + math.copysign(math.sqrt(max(disc, 0.0)), qb)
    # a loop: two comprehensions cost more than the arithmetic
    inside, ends = a > c, []
    top = 1.0 if inside else math.inf
    for u, v in ((big, qa), (qc, big)):
        if v != 0.0:
            t = u / v
            if (inside or t * a - wn >= 0.0) and along + t < top:
                ends.append(along + t)
    if inside:
        return max(ends + [-1.0]), 1.0
    if disc < 0.0 or not ends:
        return 1.0, -1.0
    return max(min(ends), -1.0), min(max(ends), 1.0)


def _line_entry(cone: BallCone, d) -> float:
    """Least r > -1 with r d in the cone's closed hull, for a unit d inside
    its open cap: the lower end of its chord (_chord)."""
    s = cone.exit_scalars
    return _chord(s[:3], s[4:7], s[7], d)[0]


def _lens_depth(k1: BallCone, k2: BallCone) -> float:
    """Deepest level at which the two ball-frame caps, shrunk to cos psi +
    t, still overlap: the largest over unit d of min(d.n1 - cos psi1,
    d.n2 - cos psi2), negative when the caps are apart. The two terms fall
    and rise along the arc from n1 to n2, where the maximum lies, so it is
    at their crossing, theta from n1 with sin(theta - gamma/2) =
    (cos psi2 - cos psi1) / (2 sin(gamma/2)), clamped to the arc."""
    n1, c1 = k1.exit_scalars[4:7], k1.exit_scalars[7]
    n2, c2 = k2.exit_scalars[4:7], k2.exit_scalars[7]
    gamma = angle(n1, n2)
    chord, rise = 2.0 * math.sin(0.5 * gamma), c2 - c1
    theta = (gamma if rise >= chord else 0.0 if rise <= -chord
             else min(max(0.5 * gamma + math.asin(rise / chord), 0.0), gamma))
    return min(math.cos(theta) - c1, math.cos(gamma - theta) - c2)


def _overlap(k1: BallCone, k2: BallCone, m, q,
             inner: float) -> DisjointResult:
    """Common point of two meeting cones within a factor 2 of the deepest:
    the cones shrunk to cos-depth t (_caps) meet, when k1's apex lies
    deeper than t in k2 (`inner`) or their gap is negative, for t below
    the deepest common depth D, which a search on log t brackets within a
    factor 1.5. The lens depth of the ball-frame caps (_lens_depth)
    bounds D below, since points r d with r -> 1 lie in both cones at
    cos-depths tending to d.n - cos psi of each cap (and equals D for a
    shared apex). So the search tests the level of that bound divided by
    1.2, then 1.5 times that level, then bisects up to 1 - cos psi;
    without the bound beyond the window, or should rounding deny it, it
    bisects from the window. For a shared apex a seed that succeeds ends
    the search: it brackets D within 1.5, and the next level, 1.25 D, lies
    past D. The witness is the middle of the stretch of the ray along n1,
    or x turned into S, in k2's hull (_chord)."""
    def meets(t):  # the caps at level t and, unless inner > t, the gap
        caps = _caps(k1, k2, t, m)
        if caps is None or inner > t:
            return None if caps is None else (caps, None)
        hit = _hull_gap(caps[0], caps[1], q, *caps[2:])
        return (caps, hit) if hit[0] < 0.0 else None

    lo, hi = _WINDOW, min(1.0 - k1.exit_scalars[7], 1.0 - k2.exit_scalars[7])
    seed = _lens_depth(k1, k2) / 1.2
    found = meets(seed) if lo < seed < hi else None
    if found is None:
        found, mid = meets(lo) if lo < hi else None, math.sqrt(lo * hi)
    else:
        lo, mid = seed, 1.5 * seed
        if q is None:  # the seed is D / 1.2, so the level mid misses
            hi = mid
    depth = -math.inf
    while found is not None and hi > 1.5 * lo:
        hit = meets(mid)
        lo, hi, found = (lo, mid, found) if hit is None else (mid, hi, hit)
        mid = math.sqrt(lo * hi)
    if found is not None:
        (n1, psi1, n2, c2, s2), hit = found
        d = n1 if hit is None else turn(
            hit[1], n2, min(-0.5 * hit[0], 0.5 * angle(hit[1], n2)))
        lo, hi = _chord(q or (0.0, 0.0, 0.0), n2, c2, d)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        p = _act(_inverse(m), [0.5 * (lo + hi) * a for a in d])
        if lo < hi and dot(p, p) < 1.0:
            depth = min(k1.margin(p), k2.margin(p))
    if depth <= _WINDOW:
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
    its lesser cos-space margin (_overlap): a search on the level of the
    shrunk cones, started from the caps' lens depth, a lower bound on the
    deepest common depth because points near the sphere in both caps lie
    in both cones at their caps' depths. A margin inside the window
    raises DegenerateGeometry.

    The apexes are shared only when their floats are equal. Distinct
    apexes within the window of each other in the shell metric, which
    Lorentz maps keep, raise DegenerateGeometry; the shell distance is
    formed only when their Euclidean distance, its lower bound, is within
    the window too.
    """
    m = k1.apex_frame_scalars[:16]
    a1, a2 = k1.exit_scalars[:3], k2.exit_scalars[:3]
    q, inner = None, -math.inf
    if a1 != a2:
        if (math.dist(a1, a2) <= _WINDOW and ball_distance(
                k1.apex, k2.apex, Hyperboloid(1.0)) <= _WINDOW):
            raise DegenerateGeometry(
                "apexes coincide within the degenerate window; perturb "
                "inputs")
        q, inner = _act(m, a2), k2.margin(a1)
    if inner <= 0.0:
        # k1's own image cap is the tail of its cached frame
        n1, psi1 = k1.apex_frame_scalars[16:19], k1.apex_frame_scalars[19]
        n2, c2, s2 = _cap_seen(m, k2.exit_scalars[4:7], k2.exit_scalars[7],
                               math.sin(k2.psi))
        gap, x = _hull_gap(n1, psi1, q, n2, c2, s2)
        if gap > _WINDOW:
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
        if gap >= -_WINDOW:
            raise DegenerateGeometry(
                "cones touch within the degenerate window; perturb inputs")
    return _overlap(k1, k2, m, q, inner)


def opposite(cone: BallCone) -> BallCone:
    """Cone of the rays opposite to a cone's rays, across its apex.

    It is the image of the cone under the point reflection at the apex. In
    the apex frame the apex is the origin and that reflection is the
    antipodal map, so the opposite cap there is the frame cap with its axis
    negated, which the inverse frame carries back exactly onto the input's
    apex object. Twice it returns the input.
    """
    *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    n, c, s = _cap_seen(_inverse(m), (-nx, -ny, -nz), math.cos(psi),
                        math.sin(psi))
    return BallCone(cone.apex, Cap(SphereDirection._of(n), math.atan2(s, c)))


def _covering_cap(cones) -> tuple | None:
    """Cap (axis, half-angle) containing the caps of the given cones, in
    order, folding each into the least cap holding it and the cover so
    far: the least cover of two caps, not always of more. None when the
    half-angle leaves the valid range. Each record is unpacked once, and
    spherical's angle is written out operation for operation; a cap that
    grows the cover turns its axis by spherical's turn."""
    _, _, _, _, x, y, z, _ = cones[0].exit_scalars
    half = cones[0].psi
    for k in cones[1:]:
        _, _, _, _, nx, ny, nz, _ = k.exit_scalars
        psi = k.psi
        cx, cy, cz = y * nz - z * ny, z * nx - x * nz, x * ny - y * nx
        gamma = math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                           x * nx + y * ny + z * nz)
        if gamma + psi <= half:
            continue
        if gamma + half <= psi:
            x, y, z, half = nx, ny, nz, psi
            continue
        new_half = 0.5 * (gamma + half + psi)
        x, y, z = turn((x, y, z), (nx, ny, nz), new_half - half)
        half = new_half
    if half >= math.pi - _CAP_LIMIT:
        return None
    return unit((x, y, z)), half


# how far below its base-circle plane a built cone's apex must sit
_CLEARANCE = 10.0 * _POINTEDNESS


def _cap_fits(psi: float, height: float) -> bool:
    """Whether a cap of half-angle psi stays clear of the covering limit
    and an apex at `height` along its axis sits clearly below its
    base-circle plane: the one pointedness rule of every built cone."""
    return (psi < math.pi - _CAP_LIMIT
            and height < math.cos(psi) - _CLEARANCE)


def _enclosure(cones, distinct=None) -> BallCone | None:
    """Cone about the axis n of the covering cap (_covering_cap) of the
    cones' caps, folded in order, holding their caps in its cap and their
    apexes in its closed hull, or None past the covering limit; the maxima
    run over `distinct` (default: cones). Its half-angle psi is 0.05 past
    the caps' widest angle from n and the angles 2 atan2(|a_p|, 1 + a.n),
    a_p the part of an apex a across n, at which rays from -n through the
    apexes leave the sphere. Its apex -rho n holds one below the base
    plane once |a_p| (cos psi + rho) <= sin psi (a.n + rho); rho is
    halfway to 1 from the largest such depth and the pointedness floor
    _CLEARANCE - cos psi.

    Each record is unpacked once, and spherical's dot and angle are written
    out operation for operation, as are the maxima: built-in max keeps an
    entry only when it is greater than the one kept so far, and so do the
    comparisons here, in the same order.
    """
    cover = _covering_cap(cones)
    if cover is None:
        return None
    n, need, apexes = cover[0], 0.0, []
    nx, ny, nz = n
    for k in distinct or cones:
        ax, ay, az, _, mx, my, mz, _ = k.exit_scalars
        along = ax * nx + ay * ny + az * nz
        ox, oy, oz = ax - along * nx, ay - along * ny, az - along * nz
        across = math.sqrt(ox * ox + oy * oy + oz * oz)
        cx, cy, cz = ny * mz - nz * my, nz * mx - nx * mz, nx * my - ny * mx
        wide = math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                          nx * mx + ny * my + nz * mz) + k.psi
        if wide > need:
            need = wide
        wide = 2.0 * math.atan2(across, 1.0 + along)
        if wide > need:
            need = wide
        apexes.append((along, across))
    psi = 0.05 + need
    if psi >= math.pi - _CAP_LIMIT:
        return None
    c, s = math.cos(psi), math.sin(psi)
    depth = _CLEARANCE - c
    for along, across in apexes:
        if along < c:
            low = (c * across - s * along) / (s - across)
            if low > depth:
                depth = low
    rho = 0.5 * (1.0 + depth)
    return _cone([-rho * x for x in n], n, psi)


def enclosing_cone(k1: BallCone, k2: BallCone) -> BallCone | None:
    """A common upper bound of two cones: one input when it contains the
    other, else the hull enclosure of both caps and apexes (_enclosure)
    when cone_leq certifies both inside it; None when no covering cap fits
    or the certificate fails."""
    if cone_leq(k1, k2):
        return k2
    if cone_leq(k2, k1):
        return k1
    region = _enclosure([k1, k2])
    held = region is not None and cone_leq(k1, region) and cone_leq(k2, region)
    return region if held else None


@dataclass(frozen=True, init=False)
class InclusionResult:
    holds: bool
    margin: float  # shell-metric clearance of the ball from the boundary

    def __init__(self, holds: bool, margin: float):
        fields = vars(self)  # as LeqResult's
        fields["holds"], fields["margin"] = holds, margin

    def __bool__(self) -> bool:
        return self.holds


# relative rounding slack of _plane_margin's bounds and of
# in_causal_completion's window prefilter, and the floor that 1 - |c|^2
# must pass for _frame_clearance
_ROUNDING = 2.0 ** -47
_WINDOW_FILTER = _WINDOW * _WINDOW * (1.0 + _ROUNDING)  # its squared window
# in_causal_completion tests the ball point only where |x_s|^2 passes this
# share of x0^2
_LIGHT_BAND = 1.0 - 1e-6


def _lead(cone: BallCone, x0: float, x1: float, x2: float,
          x3: float) -> float:
    """L = s sinh d for the event x = (x0, x1, x2, x3) of Minkowski square
    s^2 > 0, signed by membership: d is the distance, in the unit shell,
    from the shell point on x's ray to the cone's lateral boundary, and L >
    0 exactly when that point lies in the open cone.

    In the cone's apex frame M, which sends the apex
    to the origin and the cap to (n', psi'), let y be the spatial part of
    Mx. M keeps x.x, so the shell point's image is the ball point y / z0 =
    tanh(r) y / |y|, at distance r from the apex with sinh r = |y| / s.
    Let theta be the angle from n' to y: the point is inside exactly when
    theta < psi'. Its nearest boundary point lies on the boundary ray in
    its own plane through n', at angle |theta - psi'|, and the
    right-angled triangle relation sinh a = sinh c sin A (Beardon, The
    Geometry of Discrete Groups, ch. 7) gives sinh d = sinh r sin|theta -
    psi'|; from a right angle on the apex is nearest and d = r. So

        L = sin psi' (y.n') - cos psi' |y x n'| = |y| sin(psi' - theta),

    taken as |y| with that sign once |theta - psi'| >= pi/2 (once cos
    psi' (y.n') + sin psi' |y x n'| <= 0). With (n', e1, e2) orthonormal,
    y.n' = (n'^T M) x and |y x n'| = sqrt(p^2 + q^2) for p = (e1^T M) x
    and q = (e2^T M) x: three four-term dot products with the cone's
    covector triple (lead_rows) and one 2-D norm, with no divide and no
    angle. The apex itself, y = 0, gives -0.0: outside, at distance 0.
    """
    (n0, n1, n2, n3, p0, p1, p2, p3, q0, q1, q2, q3,
     cos_psi, sin_psi) = cone.lead_rows
    along = n0 * x0 + n1 * x1 + n2 * x2 + n3 * x3
    p = p0 * x0 + p1 * x1 + p2 * x2 + p3 * x3
    q = q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3
    across = math.sqrt(p * p + q * q)
    lead = sin_psi * along - cos_psi * across
    if cos_psi * along + sin_psi * across <= 0.0:  # the apex is nearest
        size = math.sqrt(along * along + p * p + q * q)
        lead = size if lead > 0.0 else -size
    return lead


def _frame_clearance(cone: BallCone, c, tau: float) -> tuple[float, bool]:
    """Shell distance from the ball point c (three floats) to the cone's
    lateral boundary, and whether c lies in the open cone.

    The lift (1, c) has Minkowski square s^2 = 1 - |c|^2, so the distance
    is tau asinh(|L| / s) and c is inside exactly when L > 0 (_lead). A
    point with s^2 <= _ROUNDING lies within rounding of the sphere, where
    the distance has no accurate value, and raises DegenerateGeometry.
    Plain floats throughout: at one point per call, array dispatch would
    cost more than the arithmetic.
    """
    x, y, z = c
    square = 1.0 - (x * x + y * y + z * z)
    if not square > _ROUNDING:
        raise DegenerateGeometry(
            "point rounds onto the sphere in the cone's apex frame")
    lead = _lead(cone, 1.0, x, y, z)
    return tau * math.asinh(abs(lead) / math.sqrt(square)), lead > 0.0


_SPLITS = 400  # arcs one _plane_margin call splits before it gives up


def _azimuth_terms(terms, c: float, s: float) -> tuple:
    """alpha, toward, perp and kappa of _plane_margin at the point (c, s)
    of the plane of (cos phi, sin phi), from its coefficients `terms`:
    alpha, kappa and the covector part m are affine in (c, s), and toward
    = -m.n and perp = |m x n| are the parts of -m along inner's cap axis
    n and across it."""
    (a0, ax, ay, az, b0, bx, by, bz, d0, dx, dy, dz, ka, kb, kd,
     nx, ny, nz) = terms
    mx, my, mz = ax + c * bx + s * dx, ay + c * by + s * dy, \
        az + c * bz + s * dz
    sx, sy, sz = my * nz - mz * ny, mz * nx - mx * nz, mx * ny - my * nx
    return (-(a0 + c * b0 + s * d0), -(mx * nx + my * ny + mz * nz),
            math.sqrt(sx * sx + sy * sy + sz * sz), ka + c * kb + s * kd)


def _reach(toward: float, perp: float, cos_k: float, sin_k: float) -> float:
    """Largest -m.c over the points c of the cap (n, psi_k), for -m with
    the parts toward and perp along n and across it: |m| when -m lies in
    the cap, else |m| cos(gamma - psi_k) with gamma its angle to n. It is
    the largest of toward cos t + perp sin t over t in [0, psi_k], so it
    rises with perp and is convex in toward."""
    size = math.hypot(toward, perp)
    if toward >= size * cos_k:
        return size
    return toward * cos_k + perp * sin_k


def _arc_range(a: float, b: float, d: float, lo: float,
               hi: float) -> tuple[float, float]:
    """Least and largest of a + b cos x + d sin x over lo <= x <= hi, for
    hi - lo < 2 pi: at an end, or a -+ hypot(b, d) where the arc holds
    the angle of (-b, -d) or of (b, d)."""
    ends = (a + b * math.cos(lo) + d * math.sin(lo),
            a + b * math.cos(hi) + d * math.sin(hi))
    h, top = 0.5 * (hi - lo), math.atan2(d, b) - 0.5 * (lo + hi)
    size = math.hypot(b, d)
    return (a - size if abs(math.remainder(top + math.pi, 2.0 * math.pi)) <= h
            else min(ends),
            a + size if abs(math.remainder(top, 2.0 * math.pi)) <= h
            else max(ends))


def _arc_terms(terms, cos_k: float, sin_k: float, lo: float,
               hi: float) -> tuple[float, float, float]:
    """The least alpha, largest reach and largest kappa of _plane_margin
    over lo <= phi <= hi, from the ranges of its terms: alpha, kappa and
    toward are a + b cos phi + d sin phi (_arc_range), perp^2 = |m x
    n|^2 = w0 + w1 cos phi + w2 sin phi + w3 cos 2 phi + w4 sin 2 phi is
    at most w0 plus the largest of each frequency, and reach is largest
    at an end of toward's range, being convex in it, and at the largest
    perp. w0 is raised by _ROUNDING times the squared size of m's
    coefficients, which covers its rounding."""
    (a0, ax, ay, az, b0, bx, by, bz, d0, dx, dy, dz, ka, kb, kd,
     nx, ny, nz) = terms
    n, rows = (nx, ny, nz), ((ax, ay, az), (bx, by, bz), (dx, dy, dz))
    big_a, big_b, big_d = (cross(v, n) for v in rows)
    bb, dd = dot(big_b, big_b), dot(big_d, big_d)
    size = sum(abs(x) for v in rows for x in v)
    w = (dot(big_a, big_a) + 0.5 * (bb + dd) + _ROUNDING * size * size
         + _arc_range(0.0, 2.0 * dot(big_a, big_b), 2.0 * dot(big_a, big_d),
                      lo, hi)[1]
         + _arc_range(0.0, 0.5 * (bb - dd), dot(big_b, big_d), 2.0 * lo,
                      2.0 * hi)[1])
    perp = math.sqrt(max(0.0, w))
    reach = max(_reach(t, perp, cos_k, sin_k) for t in _arc_range(
        *(-dot(v, n) for v in rows), lo, hi))
    return (_arc_range(-a0, -b0, -d0, lo, hi)[0], reach,
            _arc_range(ka, kb, kd, lo, hi)[1])


def _least(alpha: float, reach: float, kappa: float) -> float:
    """Least margin of the shifted shadows along inner's rays against one
    plane of _plane_margin, from that plane's terms: -inf when reach
    exceeds alpha, else the least of alpha cosh s - reach sinh s over s
    >= 0, less kappa. It rises with alpha and falls with reach."""
    p = alpha - reach
    if p < 0.0:
        return -math.inf
    if reach <= 0.0:
        return alpha - kappa
    return math.sqrt(p * (2.0 * alpha - p)) - kappa


def _plane_terms(inner: BallCone, outer: BallCone, tau: float,
                 shift) -> tuple[tuple, float]:
    """The terms of _plane_margin over the azimuth phi, in inner's apex
    frame, and inner's apex-frame half-angle psi_k: the 18 floats (a0,
    ax, ay, az, b0, bx, by, bz, d0, dx, dy, dz, ka, kb, kd, nx, ny, nz)
    with N = a + cos(phi) b + sin(phi) d, alpha = -N0, m = Ns and kappa =
    ka + cos(phi) kb + sin(phi) kd, and (nx, ny, nz) inner's apex-frame
    cap axis."""
    *m_k, nx, ny, nz, psi_k, _, _ = inner.apex_frame_scalars
    *m_r, psi, _, _ = outer.apex_frame_scalars
    n_r = m_r[16:]
    carry = _compose(m_k, _inverse(m_r))  # m_k eta m_r^T eta
    e1 = perpendicular(n_r)
    e2 = cross(n_r, e1)
    # M at azimuth phi is a + cos(phi) b + sin(phi) d
    a, b, d = (_apply(carry, (0.0, *v))
               for v in ([math.sin(psi) * x for x in n_r],
                         [-math.cos(psi) * x for x in e1],
                         [-math.cos(psi) * x for x in e2]))
    t = _apply(m_k, [float(x) for x in shift])
    # <t, .> as a row: kappa at phi is ka + cos(phi) kb + sin(phi) kd
    ka, kt, kb, kd = (t[0] / tau * v[0] - t[1] / tau * v[1]
                      - t[2] / tau * v[2] - t[3] / tau * v[3]
                      for v in (a, t, b, d))
    ka += kt / (2.0 * tau)
    a0, ax, ay, az = (x + y / tau for x, y in zip(a, t))
    return (a0, ax, ay, az, *b, *d, ka, kb, kd, nx, ny, nz), psi_k


def _plane_margin(inner: BallCone, outer: BallCone, tau: float,
                  shift=(0.0, 0.0, 0.0, 0.0), *, floor: float) -> bool:
    """Whether the least value, over the events X = tau y + t' with y a
    point of `inner` on the shell and t' the translation `shift` seen in
    inner's apex frame, and over the tangent planes of `outer`, of

        (-<X, M> - (<X, X> - tau^2) / (2 tau)) / tau

    is proved to lie above `floor`. The value is positive exactly when the
    causal shadow of X lies on the inner side of the plane, and -inf when
    some event's shadow crosses it without bound; with no shift, tau
    asinh of the least value is the least shell distance from inner to
    outer's boundary.

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
    A cosh s + B(c) sinh s - kappa with N = M + t'/tau, alpha = A = -N0,
    B(c) = c.Ns and kappa = (<t', M> + <t', t'> / (2 tau)) / tau. Over
    the cap B is least at the cap point nearest -Ns, -reach (_reach).
    With p = A - reach the least value over s >= 0 is -inf if p < 0, A
    if reach <= 0, else sqrt(p (2A - p)), less kappa (_least); the test
    of p comes first, since with kappa subtracted a finite value for
    p < 0 would accept escaping events.

    At s = 0 the quantity is A - kappa and no branch exceeds it, so the
    least s = 0 term over phi, -(N0 + kappa) at the azimuth of the
    in-plane part of N + kappa, bounds the least value from above; this
    apex bound rejects at once when at or below `floor`.

    The least value over phi is then bounded below by branch and bound
    over arcs of phi (Moore, Kearfott and Cloud, Introduction to Interval
    Analysis, SIAM 2009), with two bounds per arc:
    - Vertices. M, and with it alpha, kappa and Ns, is affine in (cos phi,
      sin phi), and for each s >= 0 and cap point c the quantity above
      is affine in them too. So the least value, extended to the plane of
      (cos phi, sin phi) by the same formulas (_azimuth_terms), is
      concave there. An arc of half-width h <= pi/4 lies in the triangle
      of its two ends and the tangent point (cos mid, sin mid) / cos h,
      and a concave function is least over a triangle at a vertex. This
      bound closes as h^2 where the least value curves, and costs only
      the tangent point, as arcs share their ends.
    - Ranges. _least rises with alpha and falls with reach and kappa, so
      it is bounded below by its value at the least alpha and the
      largest reach and kappa over the arc (_arc_terms). This bound
      closes at once where those terms hardly depend on phi, as for an
      outer cone axial in inner's apex frame, where the vertex bound lags
      by h^2 times the value's slope off the circle. It is taken only
      where the vertex bound does not clear `floor`.
    Each bound is taken with alpha lowered and reach and kappa raised by
    _ROUNDING times the sizes of their coefficients, and lowered by
    _ROUNDING times its size and kappa's. That covers the rounding of the
    points and of the terms, a few units in the last place of those sizes
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).

    The four quarter arcs start from (+-1, 0) and (0, +-1), whose exact
    values are taken first. The arc of lowest bound is split at its
    midpoint, whose exact value is taken first and rejects when at or
    below `floor`, until every bound lies above `floor`, which accepts.
    After _SPLITS splits the call rejects unless its last split cleared
    `floor`. Plain floats throughout, as in _frame_clearance: both frames
    are read from the cones' apex_frame_scalars.
    """
    terms, psi_k = _plane_terms(inner, outer, tau, shift)
    a0, ax, ay, az, b0, bx, by, bz, d0, dx, dy, dz, ka, kb, kd = terms[:15]
    if -(a0 + ka) - math.hypot(b0 + kb, d0 + kd) <= floor:
        return False
    cos_k, sin_k = math.cos(psi_k), math.sin(psi_k)
    # the sizes of the coefficients of alpha, m and kappa
    sa = abs(a0) + abs(b0) + abs(d0)
    sm = sum(map(abs, (ax, ay, az, bx, by, bz, dx, dy, dz)))
    sk = abs(ka) + abs(kb) + abs(kd)

    def low(alpha: float, reach: float, kappa: float) -> float:
        # below _least wherever the terms are no lower, higher and higher
        v = _least(alpha - _ROUNDING * sa, reach + _ROUNDING * sm,
                   kappa + _ROUNDING * sk)
        return v - _ROUNDING * (abs(v) + 2.0 * abs(kappa) + sk)

    def vertex(c: float, s: float) -> tuple[float, float]:
        # the value at (c, s) and a bound below it
        alpha, toward, perp, kappa = _azimuth_terms(terms, c, s)
        reach = _reach(toward, perp, cos_k, sin_k)
        return _least(alpha, reach, kappa), low(alpha, reach, kappa)

    def arc(lo: float, hi: float, end_lo: tuple, end_hi: tuple) -> tuple:
        # the arc's bound, the wider arc first among equal bounds, its ends
        mid, grow = 0.5 * (lo + hi), 1.0 / math.cos(0.5 * (hi - lo))
        bound = min(end_lo[1], end_hi[1],
                    vertex(grow * math.cos(mid), grow * math.sin(mid))[1])
        if bound <= floor:
            bound = max(bound, low(*_arc_terms(terms, cos_k, sin_k, lo, hi)))
        return bound, lo - hi, lo, hi, end_lo, end_hi

    ends = [vertex(c, s)
            for c, s in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))]
    if min(end[0] for end in ends) <= floor:
        return False
    quarter = 0.5 * math.pi
    arcs = [arc(k * quarter, (k + 1) * quarter, ends[k], ends[(k + 1) % 4])
            for k in range(4)]
    heapq.heapify(arcs)
    for _ in range(_SPLITS):
        bound, _, lo, hi, end_lo, end_hi = arcs[0]
        if bound > floor:
            return True
        mid = 0.5 * (lo + hi)
        end = vertex(math.cos(mid), math.sin(mid))
        if end[0] <= floor:
            return False
        heapq.heapreplace(arcs, arc(lo, mid, end_lo, end))
        heapq.heappush(arcs, arc(mid, hi, end, end_hi))
    return arcs[0][0] > floor


def hyperball_in_cone(ball: Hyperball, cone: BallCone) -> InclusionResult:
    """Whether a closed metric ball lies inside the open cone.

    The ball is inside exactly when its center is inside and the center's
    shell distance to the lateral boundary exceeds the radius; both are
    read in closed form in the cone's apex frame (_frame_clearance). The
    margin is that distance minus the radius, negated (distance plus
    radius) for an outside center. A distance within the degenerate window
    of the radius raises DegenerateGeometry.
    """
    boundary, inside = _frame_clearance(cone, ball.center._t, ball.shell.tau)
    margin = boundary - ball.radius if inside else -(boundary + ball.radius)
    if abs(boundary - ball.radius) <= _WINDOW:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    return InclusionResult(inside and boundary > ball.radius, float(margin))


def in_causal_completion(x: FourVector, region: Hypercone) -> bool:
    """Whether a forward-cone event belongs to the causal completion of the
    region a cone spans on the shell: one polynomial sign on the event.

    The event's causal shadow on the shell tau is the metric ball about the
    shell point on its ray, of radius rho = tau |ln(s / tau)| for s =
    sqrt(x.x). The event is in the completion exactly when that ball lies
    in the cone: when its centre is inside and the centre's distance tau d
    to the lateral boundary exceeds rho. Both are read off the event:

    - L = s sinh d, signed by membership of the centre (_lead, in the
      cone's apex frame).
    - cosh(rho / tau) = (s / tau + tau / s) / 2, so sinh(rho / tau) =
      |s^2 - tau^2| / (2 s tau) = R / s with R = |x.x - tau^2| / (2 tau).

    sinh is increasing and R >= 0, so the event is a member exactly when L
    > R: that puts the centre inside (L > 0) and gives s sinh d > s
    sinh(rho / tau). Where R / s <= 1e-15 (s = tau to rounding) the
    shadow vanishes and the answer is the sign of L, with no window.
    Otherwise a margin tau |asinh(|L| / s) - asinh(R / s)| within the
    degenerate window raises DegenerateGeometry. asinh'(t) = 1 / sqrt(1 +
    t^2) falls with t, so that margin is at least tau ||L| - R| / sqrt(s^2
    + max(|L|, R)^2): the asinh pair is evaluated only where this bound,
    compared squared and widened by _ROUNDING for its own rounding, does
    not clear the window, and a generic event costs square roots alone.

    Events on the light cone boundary (zero Minkowski square) are never
    inside. An event that is not a finite point of the closed forward
    cone, or whose ball point u = x_s / x0 rounds onto the sphere, raises
    ValueError. The forward-cone test runs only off the fast path 1e-12 <
    x.x < inf and x0 > 0, where it cannot fire: there fl(x0^2) > |x_s|^2
    as computed, x0^2 neither overflows nor underflows, and sqrt(fl(x0^2))
    = x0 in binary round-to-nearest (S. Boldo, Taking the square root of
    the square of a floating-point number, 2015), so sqrt(|x_s|^2) -
    1e-12 rounds to at most x0. A NaN anywhere fails the fast path and
    takes the full test. The ball point test runs only where |x_s|^2 > (1
    - 1e-6) x0^2 as computed (_LIGHT_BAND). Below the band, with x0^2 >
    1e-12 so that no underflow matters, three roundings of |x_s|^2, two
    of the bound and five of |u|^2, each by at most 2^-53, leave the
    computed |u|^2 under (1 - 1e-6)(1 + 2^-49) < 1 - 9e-7, and its root
    below 1.
    """
    if isinstance(x, FourVector):
        x0, x1, x2, x3 = x._x0, x._x1, x._x2, x._x3
    else:
        x0, x1, x2, x3 = np.asarray(x, dtype=float).reshape(4).tolist()
    rr = x1 * x1 + x2 * x2 + x3 * x3
    tt = x0 * x0
    square = tt - rr
    if not (_LINEAR < square < math.inf and x0 > 0.0):
        if (x0 < math.sqrt(rr) - _LINEAR or x0 <= 0.0
                or not math.isfinite(square)):
            raise ValueError("event must lie in the closed forward cone")
        if square <= _LINEAR:
            return False
    if rr > _LIGHT_BAND * tt:
        u1, u2, u3 = x1 / x0, x2 / x0, x3 / x0
        if not math.sqrt(u1 * u1 + u2 * u2 + u3 * u3) < 1.0:
            raise ValueError("ball point must satisfy |u| < 1")
    lead = _lead(region.cone, x0, x1, x2, x3)
    tau = region.shell.tau
    reach = abs(square - tau * tau) / (2.0 * tau)
    if reach * reach <= 1e-30 * square:
        return lead > 0.0
    size = abs(lead)
    gap = tau * (size - reach)
    top = size if size > reach else reach
    if gap * gap <= _WINDOW_FILTER * (square + top * top):
        sigma = math.sqrt(square)
        if (tau * abs(math.asinh(size / sigma) - math.asinh(reach / sigma))
                <= _WINDOW):
            raise DegenerateGeometry(
                "ball touches the cone boundary within the window")
    return lead > reach


def map_cone(transform: LorentzTransform, cone: BallCone) -> BallCone:
    """Image of a cone under the ball action of a Lorentz transform (_map)."""
    return _map(transform._f, cone)


def _foot(cone: BallCone, center, inside: bool) -> tuple:
    """The apex frame m and cap axis n of cone_hyperball_disjoint's
    overlap branch, and X (C when inside), the cone point nearest C."""
    *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    n = (nx, ny, nz)
    start = c = _act(m, center)
    if not inside:
        start = (0.0, 0.0, 0.0)
        if angle(c, n) - psi < 0.5 * math.pi:
            b = turn(n, c, psi)
            start = [dot(c, b) * a for a in b]
    return m, n, start


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
    when first read: the disjoint branch forms only the margin, and C's
    image in the apex frame, X and the plane wait for that read. The
    witness steps from X (C when inside) toward n'/2 by half the overlap,
    bounded in the shell metric by 1/(1 - |z|^2) times the Euclidean step.

    Domain: the plane needs C's apex-frame image c inside the sphere in
    floats. For a centre within rounding of the sphere 1 - |c|^2 can round
    to 0 or below, though the answer and margin stand; reading the plane
    then raises DegenerateGeometry.
    """
    tau, radius, center = ball.shell.tau, ball.radius, ball.center._t
    dist, inside = _frame_clearance(cone, center, tau)
    margin = -(dist + radius) if inside else dist - radius
    if abs(margin) <= _WINDOW:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    if margin > 0.0:
        def separation():
            # the unit tangent at C toward X: the lift's derivative along
            # ahead, away from the nearest boundary ray or toward the
            # apex, carried (D + R)/2 along the geodesic from C
            *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
            n, c = (nx, ny, nz), _act(m, center)
            ahead = [-a for a in (turn(n, c, psi + 0.5 * math.pi)
                                  if angle(c, n) - psi < 0.5 * math.pi
                                  else c)]
            room, za = 1.0 - dot(c, c), dot(c, ahead)
            if room <= 0.0:
                raise DegenerateGeometry(
                    "ball centre rounds onto the sphere in the cone's apex "
                    "frame; no separating plane in floats")
            t = [za, *(room * a + za * b for a, b in zip(ahead, c))]
            size = math.sqrt(t[1] ** 2 + t[2] ** 2 + t[3] ** 2 - t[0] ** 2)
            s, g = 0.5 * (dist + radius) / tau, 1.0 / math.sqrt(room)
            return _plane(m, [math.sinh(s) * g * a + math.cosh(s) * b / size
                              for a, b in zip((1.0, *c), t)])
        return DisjointResult(True, margin, separation=separation)
    m, n, start = _foot(cone, center, inside)
    way = [0.5 * a - b for a, b in zip(n, start)]
    length = math.sqrt(dot(way, way)) or 1.0
    step = min((1.0 - max(dot(start, start), 0.25)) * 0.5 * (
        radius - (0.0 if inside else dist)) / tau, 0.5 * length) / length
    p = _act(_inverse(m), [a + step * b for a, b in zip(start, way)])
    return DisjointResult(False, margin, np.array(p))
