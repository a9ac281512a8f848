"""Support maps of the convex bodies in the projective ball, and GJK.

Two body types: the closed hull of a cone (apex joined to a spherical cap
region) and the ellipsoid realizing a metric ball of a shell in the
projective model. No library function calls this module: the predicates of
``hypercones.cones`` decide contact by closed forms in a cone's apex frame,
and ``render`` cuts a metric ball's quadric. GJK on the Euclidean hulls and
the ellipsoids stay as an independent oracle for the tests.

GJK runs on plain float triples: each body has one support map on floats
(``support_xyz``), and the simplex step is closed form: the closest point of
a segment, of a triangle from the signed areas of the origin's projection,
and of a tetrahedron from signed volumes (Ericson, Real-Time Collision
Detection, 2004, ch. 5). At one query per call, numpy dispatch on 3-vectors
would cost more than the arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spherical import perpendicular

__all__ = ["ConeHullSupport", "Ellipsoid", "hyperball_ellipsoid",
           "gjk_distance", "GJKResult"]

# GJK stops when the duality gap is below this share of |v|^2, and reports
# contact when |v| or the final distance is below it
_TOL = 1e-12
_MAX_ITER = 200
# a tetrahedron is flat when |det| <= _FLAT * |ab| |ac| |ad|
_FLAT = 1e-10


def _xyz(w) -> list[float]:
    return np.asarray(w, dtype=float).reshape(3).tolist()


class ConeHullSupport:
    """Support map of hull({apex} u cap region) for a cone in the ball."""

    __slots__ = ("apex", "axis", "cos_half", "sin_half")

    def __init__(self, apex, axis, half_angle: float):
        self.apex = tuple(_xyz(apex))
        self.axis = tuple(_xyz(axis))
        self.cos_half = math.cos(half_angle)
        self.sin_half = math.sin(half_angle)

    def cap_support_xyz(self, wx: float, wy: float,
                        wz: float) -> tuple[float, float, float]:
        """Farthest point of the closed cap region in direction w."""
        nx, ny, nz = self.axis
        norm = math.sqrt(wx * wx + wy * wy + wz * wz)
        if norm == 0.0:
            return self.axis
        par = wx * nx + wy * ny + wz * nz
        if par >= norm * self.cos_half:
            return wx / norm, wy / norm, wz / norm
        px, py, pz = wx - par * nx, wy - par * ny, wz - par * nz
        # for w near -n that remainder is mostly rounding, with a part
        # along n; projecting once more keeps the circle point on the sphere
        back = px * nx + py * ny + pz * nz
        px, py, pz = px - back * nx, py - back * ny, pz - back * nz
        pn = math.sqrt(px * px + py * py + pz * pz)
        c, s = self.cos_half, self.sin_half
        if pn <= 1e-12 * norm:
            # w anti-parallel to axis: every circle point ties
            px, py, pz = perpendicular(self.axis)
            pn = 1.0
        return (c * nx + s * (px / pn), c * ny + s * (py / pn),
                c * nz + s * (pz / pn))

    def support_xyz(self, wx: float, wy: float,
                    wz: float) -> tuple[float, float, float]:
        cx, cy, cz = self.cap_support_xyz(wx, wy, wz)
        ax, ay, az = self.apex
        if wx * ax + wy * ay + wz * az >= wx * cx + wy * cy + wz * cz:
            return self.apex
        return cx, cy, cz

    def cap_support(self, w) -> np.ndarray:
        return np.array(self.cap_support_xyz(*_xyz(w)))

    def support(self, w) -> np.ndarray:
        return np.array(self.support_xyz(*_xyz(w)))


class Ellipsoid:
    """Spheroid m + M s (|s| <= 1) with symmetry axis and two semi-axes."""

    __slots__ = ("center", "axis", "a_par", "a_perp", "_c", "_n")

    def __init__(self, center, axis, a_par: float, a_perp: float):
        self.center = np.asarray(center, dtype=float).reshape(3)
        axis = np.asarray(axis, dtype=float).reshape(3)
        self.axis = axis / np.linalg.norm(axis)
        self.a_par = float(a_par)
        self.a_perp = float(a_perp)
        self._c = tuple(self.center.tolist())
        self._n = tuple(self.axis.tolist())

    def _apply(self, v: np.ndarray, par_scale: float,
               perp_scale: float) -> np.ndarray:
        par = (v @ self.axis)
        if v.ndim == 1:
            return (par_scale * par * self.axis
                    + perp_scale * (v - par * self.axis))
        return (par_scale * par[:, None] * self.axis
                + perp_scale * (v - par[:, None] * self.axis))

    def support_xyz(self, wx: float, wy: float,
                    wz: float) -> tuple[float, float, float]:
        nx, ny, nz = self._n
        ap, aq = self.a_par, self.a_perp
        par = wx * nx + wy * ny + wz * nz
        mx = ap * par * nx + aq * (wx - par * nx)
        my = ap * par * ny + aq * (wy - par * ny)
        mz = ap * par * nz + aq * (wz - par * nz)
        n = math.sqrt(mx * mx + my * my + mz * mz)
        if n == 0.0:
            return self._c
        mx, my, mz = mx / n, my / n, mz / n
        par = mx * nx + my * ny + mz * nz
        cx, cy, cz = self._c
        return (cx + (ap * par * nx + aq * (mx - par * nx)),
                cy + (ap * par * ny + aq * (my - par * ny)),
                cz + (ap * par * nz + aq * (mz - par * nz)))

    def boundary_points(self, dirs: np.ndarray) -> np.ndarray:
        """Images of unit rows on the ellipsoid surface."""
        return self.center + self._apply(np.atleast_2d(dirs),
                                         self.a_par, self.a_perp)

    def _radii(self, pts: np.ndarray) -> np.ndarray:
        """|s| of each row m + M s: below 1 inside, 1 on the surface."""
        d = np.atleast_2d(pts) - self.center
        return np.linalg.norm(self._apply(d, 1.0 / self.a_par,
                                          1.0 / self.a_perp), axis=1)

    def contains(self, pts: np.ndarray, slack: float = 0.0) -> np.ndarray:
        return self._radii(pts) <= 1.0 + slack


def hyperball_ellipsoid(center: np.ndarray, radius: float,
                        tau: float) -> Ellipsoid:
    """Euclidean realization of the metric ball around a ball point.

    In the projective model the metric ball of shell radius `radius` about a
    point at Euclidean distance a from the origin is a spheroid: boosting the
    centered ball of Euclidean radius r0 = tanh(radius/tau) out to a shifts
    its Euclidean center inward of the metric center and flattens it along
    the radial axis.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    a = float(np.linalg.norm(center))
    r0 = math.tanh(radius / tau)
    if a == 0.0:
        return Ellipsoid(np.zeros(3), np.array([0.0, 0.0, 1.0]), r0, r0)
    ch = 1.0 / math.sqrt(1.0 - a * a)
    sh = a * ch
    d = 1.0 / (ch * ch - sh * sh * r0 * r0)
    axis = center / a
    e_center = sh * ch * (1.0 - r0 * r0) * d
    return Ellipsoid(e_center * axis, axis, r0 * d, r0 * math.sqrt(d))


@dataclass(frozen=True)
class GJKResult:
    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    common_point: np.ndarray | None


_Simplex = tuple[tuple[float, float, float], list[float], list[int]]


def _segment(pts, i: int, j: int) -> _Simplex:
    """Closest point of the segment pts[i] pts[j] to the origin."""
    a, b = pts[i], pts[j]
    ax, ay, az = a
    dx, dy, dz = b[0] - ax, b[1] - ay, b[2] - az
    t = -(ax * dx + ay * dy + az * dz)
    if t <= 0.0:
        return a, [1.0], [i]
    dd = dx * dx + dy * dy + dz * dz
    if t >= dd:
        return b, [1.0], [j]
    t /= dd
    return (ax + t * dx, ay + t * dy, az + t * dz), [1.0 - t, t], [i, j]


def _triangle(pts, i: int, j: int, k: int) -> _Simplex:
    """Closest point of the triangle pts[i] pts[j] pts[k] to the origin.

    The origin's projection on the plane has barycentrics from signed
    areas (cross products against the normal n = ab x ac, which keep their
    accuracy on thin triangles). Inside the triangle it is the answer;
    otherwise the answer lies on an edge whose opposite barycentric is
    negative, and a collinear triangle tries all three edges.
    """
    a = pts[i]
    ax, ay, az = a
    b, c = pts[j], pts[k]
    abx, aby, abz = b[0] - ax, b[1] - ay, b[2] - az
    acx, acy, acz = c[0] - ax, c[1] - ay, c[2] - az
    nx, ny, nz = aby * acz - abz * acy, abz * acx - abx * acz, \
        abx * acy - aby * acx
    nn = nx * nx + ny * ny + nz * nz
    if nn == 0.0:
        return _best((_segment(pts, i, j), _segment(pts, i, k),
                      _segment(pts, j, k)))
    # -a = s ab + t ac + (a multiple of n), so s = -n.(a x ac) / nn and
    # t = -n.(ab x a) / nn
    s = -(nx * (ay * acz - az * acy) + ny * (az * acx - ax * acz)
          + nz * (ax * acy - ay * acx)) / nn
    t = -(nx * (aby * az - abz * ay) + ny * (abz * ax - abx * az)
          + nz * (abx * ay - aby * ax)) / nn
    r = 1.0 - s - t
    if s >= 0.0 and t >= 0.0 and r >= 0.0:
        return ((ax + s * abx + t * acx, ay + s * aby + t * acy,
                 az + s * abz + t * acz), [r, s, t], [i, j, k])
    edges = []
    if t < 0.0:
        edges.append(_segment(pts, i, j))
    if s < 0.0:
        edges.append(_segment(pts, i, k))
    if r < 0.0:
        edges.append(_segment(pts, j, k))
    return _best(edges)


def _best(candidates) -> _Simplex:
    """The candidate closest to the origin (the first on a tie)."""
    best, best_nn = None, math.inf
    for cand in candidates:
        x, y, z = cand[0]
        nn = x * x + y * y + z * z
        if nn < best_nn:
            best, best_nn = cand, nn
    return best


def _tetrahedron(pts) -> _Simplex:
    """Closest point of the tetrahedron to the origin by signed volumes.

    The origin is inside when the tetrahedron is not flat and all four
    barycentrics are nonnegative; otherwise the closest point lies on a
    face. A nearly flat tetrahedron has barycentrics dominated by rounding,
    so it is always answered by its best face.
    """
    (ax, ay, az), b, c, d = pts
    abx, aby, abz = b[0] - ax, b[1] - ay, b[2] - az
    acx, acy, acz = c[0] - ax, c[1] - ay, c[2] - az
    adx, ady, adz = d[0] - ax, d[1] - ay, d[2] - az
    # ac x ad, ad x ab, ab x ac
    ux, uy, uz = acy * adz - acz * ady, acz * adx - acx * adz, \
        acx * ady - acy * adx
    vx, vy, vz = ady * abz - adz * aby, adz * abx - adx * abz, \
        adx * aby - ady * abx
    wx, wy, wz = aby * acz - abz * acy, abz * acx - abx * acz, \
        abx * acy - aby * acx
    det = abx * ux + aby * uy + abz * uz
    size = ((abx * abx + aby * aby + abz * abz)
            * (acx * acx + acy * acy + acz * acz)
            * (adx * adx + ady * ady + adz * adz))
    if det * det > _FLAT * _FLAT * size:
        # Cramer's rule for a + lb ab + lc ac + ld ad = 0
        lb = -(ax * ux + ay * uy + az * uz) / det
        lc = -(ax * vx + ay * vy + az * vz) / det
        ld = -(ax * wx + ay * wy + az * wz) / det
        la = 1.0 - lb - lc - ld
        if la >= 0.0 and lb >= 0.0 and lc >= 0.0 and ld >= 0.0:
            return (0.0, 0.0, 0.0), [la, lb, lc, ld], [0, 1, 2, 3]
    return _best((_triangle(pts, 0, 1, 2), _triangle(pts, 0, 1, 3),
                  _triangle(pts, 0, 2, 3), _triangle(pts, 1, 2, 3)))


def _closest_on_simplex(pts) -> _Simplex:
    """Closest point of conv(pts) to the origin, for one to four float
    triples: the point, its barycentrics, and the indices of the points
    that carry them (the smallest face holding it)."""
    n = len(pts)
    if n == 1:
        return pts[0], [1.0], [0]
    if n == 2:
        return _segment(pts, 0, 1)
    if n == 3:
        return _triangle(pts, 0, 1, 2)
    return _tetrahedron(pts)


def _combine(lam, pts) -> np.ndarray:
    x = y = z = 0.0
    for l, (px, py, pz) in zip(lam, pts):
        x += l * px
        y += l * py
        z += l * pz
    return np.array([x, y, z])


def gjk_distance(body_a, body_b) -> GJKResult:
    """Distance between two convex bodies given by float support maps.

    Returns closest points on each body; when the bodies overlap the
    returned distance is 0.0 and common_point carries a shared point
    reconstructed from the terminal simplex barycentrics. The iteration
    stops when the duality gap |v|^2 - v.w falls below a fixed share of
    |v|^2, so it keeps converging however small the distance is (Gilbert,
    Johnson and Keerthi, 1988; Ericson, Real-Time Collision Detection,
    2004, ch. 9).
    """
    sup_a, sup_b = body_a.support_xyz, body_b.support_xyz
    a0 = sup_a(0.0, 0.0, 0.0)
    b0 = sup_b(0.0, 0.0, 0.0)
    dx, dy, dz = b0[0] - a0[0], b0[1] - a0[1], b0[2] - a0[2]
    if dx == 0.0 and dy == 0.0 and dz == 0.0:
        dx = 1.0
    pa = sup_a(-dx, -dy, -dz)
    pb = sup_b(dx, dy, dz)
    v = (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2])
    ws, pas, pbs = [v], [pa], [pb]
    lam = [1.0]
    for _ in range(_MAX_ITER):
        vx, vy, vz = v
        vv = vx * vx + vy * vy + vz * vz
        size = math.sqrt(vv)
        if size <= _TOL:
            common = _combine(lam, pas)
            return GJKResult(0.0, common, common, common)
        pa = sup_a(-vx, -vy, -vz)
        pb = sup_b(vx, vy, vz)
        wx, wy, wz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
        vw = vx * wx + vy * wy + vz * wz
        # duality gap |v|^2 - v.w bounds the remaining improvement
        if vv - vw <= _TOL * vv:
            break
        if any((wx - sx) ** 2 + (wy - sy) ** 2 + (wz - sz) ** 2 <= 1e-30
               for sx, sy, sz in ws):
            break
        ws_next = ws + [(wx, wy, wz)]
        v_next, lam_next, keep = _closest_on_simplex(ws_next)
        ux, uy, uz = v_next
        if ux * ux + uy * uy + uz * uz >= vv:
            # no progress: rounding on a degenerate simplex
            break
        v, lam = v_next, lam_next
        pas.append(pa)
        pbs.append(pb)
        ws = [ws_next[i] for i in keep]
        pas = [pas[i] for i in keep]
        pbs = [pbs[i] for i in keep]
    point_a = _combine(lam, pas)
    point_b = _combine(lam, pbs)
    dist = float(np.linalg.norm(point_a - point_b))
    if dist <= _TOL:
        return GJKResult(0.0, point_a, point_b, point_a)
    return GJKResult(dist, point_a, point_b, None)
