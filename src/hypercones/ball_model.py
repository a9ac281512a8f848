"""Projective ball model of the hyperboloid shells inside the light cone.

Points of the shell H_tau = {x : x0 = sqrt(|x_s|^2 + tau^2)} are encoded by
u = x_s / x0, which fills the open unit ball. Chords of the ball are the
geodesics, the boundary sphere collects asymptotic lightlike directions, and
the Lorentz group acts projectively. All distances on a shell carry the tau
prefactor of that shell's induced metric.

The Lorentz frame kernels (_act, _cap_seen, apex_matrix) live here once,
on plain floats with a 4x4 matrix as 16 floats row by row (the group
kernels _apply, _inverse, _compose and _boost live in minkowski);
lorentz_ball_action and cap_image adapt them to the model's objects,
which keep their floats as LorentzTransform does: `_of` wraps three floats
already checked or built in closed form, without checking them again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minkowski import FourVector, LorentzTransform
from .spherical import dot, orthonormal_frame as _orthonormal_frame, unit

__all__ = [
    "Hyperboloid", "BallPoint", "SphereDirection", "Cap",
    "project_to_ball", "lift_from_ball", "hyperboloid_distance",
    "ball_distance", "shadow_radius", "euclidean_radius_of_centered_ball",
    "lorentz_ball_action", "boost_ball_action", "sphere_action",
    "ball_action_many", "homology_through", "ray_exits", "cap_image",
    "apex_matrix",
]


@dataclass(frozen=True)
class Hyperboloid:
    """Time shell at proper time tau > 0 inside the forward cone."""

    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("shell tau must be positive and finite")


class _Triple:
    """Three floats, kept as the tuple `_t`, with the read-only array `v`
    built when first read; equal to a triple of its own class with the same
    values."""

    __slots__ = ("_t", "_a")

    @classmethod
    def _of(cls, floats):
        """A triple over three floats that the caller has already checked or
        built in closed form."""
        obj = object.__new__(cls)
        obj._t, obj._a = tuple(floats), None
        return obj

    @property
    def v(self) -> np.ndarray:
        a = self._a
        if a is None:
            a = np.array(self._t)
            a.flags.writeable = False
            self._a = a
        return a

    def __eq__(self, other) -> bool:
        # elementwise ==, as np.array_equal: a NaN is not equal to itself
        return isinstance(other, type(self)) and all(
            a == b for a, b in zip(self._t, other._t))

    def __repr__(self) -> str:
        return "{}({}, {}, {})".format(type(self).__name__, *self._t)


class BallPoint(_Triple):
    """Point of the open unit ball."""

    __slots__ = ()

    def __init__(self, v):
        x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
        if not x * x + y * y + z * z < 1.0:
            raise ValueError("ball point must satisfy |u| < 1")
        self._t, self._a = (x, y, z), None


class SphereDirection(_Triple):
    """Unit vector marking an asymptotic lightlike direction."""

    __slots__ = ()

    def __init__(self, v):
        v = np.asarray(v, dtype=float).reshape(3)
        n = float(np.linalg.norm(v))
        if not abs(n - 1.0) <= 1e-6:  # NaN fails it too
            raise ValueError("direction must be unit length")
        x, y, z = v.tolist()
        self._t, self._a = (x / n, y / n, z / n), None

    @classmethod
    def normalized(cls, v) -> "SphereDirection":
        v = np.asarray(v, dtype=float).reshape(3)
        n = np.linalg.norm(v)
        if not 0.0 < n < math.inf:
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(v / n)


@dataclass(frozen=True)
class Cap:
    """Spherical cap: directions within half_angle of the axis. It checks
    that the axis is unit to 1e-6, which SphereDirection._of does not."""

    axis: SphereDirection
    half_angle: float

    def __post_init__(self):
        x, y, z = self.axis._t
        if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-6:
            raise ValueError("direction must be unit length")  # NaN too
        if not 0.0 < self.half_angle < math.pi:
            raise ValueError("cap half-angle must lie in (0, pi)")

    @property
    def cos_half(self) -> float:
        return math.cos(self.half_angle)

    def boundary_points(self, n: int) -> np.ndarray:
        """n points evenly spaced on the boundary circle, as an (n, 3) array."""
        e1, e2 = _orthonormal_frame(self.axis.v)
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        ring = (math.sin(self.half_angle)
                * (np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)))
        return math.cos(self.half_angle) * self.axis.v + ring

    def boundary_point(self, theta: float) -> np.ndarray:
        e1, e2 = _orthonormal_frame(self.axis.v)
        return (math.cos(self.half_angle) * self.axis.v
                + math.sin(self.half_angle)
                * (math.cos(theta) * e1 + math.sin(theta) * e2))


def project_to_ball(a: FourVector, shell: Hyperboloid) -> BallPoint:
    """Map a point of the shell to u = a_s / a0."""
    expected = math.sqrt(float(a.xs @ a.xs) + shell.tau ** 2)
    if abs(a.x0 - expected) > 1e-9 * max(1.0, abs(a.x0)):
        raise ValueError("point does not lie on the requested shell")
    return BallPoint(a.xs / a.x0)


def lift_from_ball(u: BallPoint, shell: Hyperboloid) -> FourVector:
    """Inverse of project_to_ball: lift u to the shell."""
    a0 = shell.tau / math.sqrt(1.0 - float(u.v @ u.v))
    return FourVector.from_parts(a0, a0 * u.v)


def hyperboloid_distance(a: FourVector, b: FourVector,
                         shell: Hyperboloid) -> float:
    """Geodesic distance on the shell, d = 2 tau asinh(sqrt(-<a - b, a - b>)
    / (2 tau)): accurate for close points, where acosh of <a, b> cancels."""
    project_to_ball(a, shell)
    project_to_ball(b, shell)
    x0, x1, x2, x3 = (a.components - b.components).tolist()
    chord = math.sqrt(max(0.0, x1 * x1 + x2 * x2 + x3 * x3 - x0 * x0))
    return 2.0 * shell.tau * math.asinh(0.5 * chord / shell.tau)


def ball_distance(u: BallPoint, w: BallPoint, shell: Hyperboloid) -> float:
    """Geodesic distance between ball points in the shell metric, from
    sinh d = sqrt(|u - w|^2 - |u x (u - w)|^2) / sqrt((1 - |u|^2)(1 - |w|^2)),
    which has no acosh to cancel for close points."""
    return float(ball_distance_many(u.v, w.v, shell.tau)[0])


def ball_distance_many(center: np.ndarray, pts: np.ndarray,
                       tau: float) -> np.ndarray:
    """Vectorized shell distance from one ball point to (n, 3) ball points,
    by the sinh form of ball_distance."""
    pts = np.atleast_2d(pts)
    diff = center - pts
    cross = np.cross(center, diff)
    num = np.maximum(np.einsum("ij,ij->i", diff, diff)
                     - np.einsum("ij,ij->i", cross, cross), 0.0)
    den = np.sqrt((1.0 - float(center @ center))
                  * (1.0 - np.einsum("ij,ij->i", pts, pts)))
    return tau * np.arcsinh(np.sqrt(num) / den)


def shadow_radius(sigma: float, tau: float) -> float:
    """Radius (in the shell-tau metric) of the causal shadow that a point on
    shell sigma casts on shell tau: cosh(radius / tau) = (sigma/tau +
    tau/sigma) / 2, so radius = tau |ln(sigma / tau)|, exactly 0 at
    sigma = tau, with no acosh to cancel."""
    if not (0.0 < sigma < math.inf and 0.0 < tau < math.inf):
        raise ValueError("shell parameters must be positive and finite")
    return tau * abs(math.log(sigma / tau))


def euclidean_radius_of_centered_ball(radius: float, tau: float) -> float:
    """Euclidean radius of a metric ball centered at the ball origin."""
    return math.tanh(radius / tau)


def ball_action_many(transform: LorentzTransform,
                     pts: np.ndarray) -> np.ndarray:
    """Projective action on (n, 3) rows of the closed ball."""
    m = transform.matrix
    pts = np.atleast_2d(pts)
    den = m[0, 0] + pts @ m[0, 1:]
    num = m[1:, 0] + pts @ m[1:, 1:].T
    return num / den[:, None]


def lorentz_ball_action(transform: LorentzTransform, u):
    """Apply the projective ball action (_act) to a BallPoint or direction.

    The denominator is bounded below by sqrt(1 + s) - sqrt(s) > 0 with
    s = sum of the squared mixed components, so the action extends
    continuously to the boundary sphere.
    """
    m = transform._f
    if isinstance(u, BallPoint):
        return BallPoint(_act(m, u._t))
    if isinstance(u, SphereDirection):
        return SphereDirection.normalized(_act(m, u._t))
    raise TypeError("expected BallPoint or SphereDirection")


def boost_ball_action(l: SphereDirection, chi: float, u):
    """Ball action of the pure boost along l with rapidity chi.

    Computed directly from the closed form
    ((sinh(chi) + cosh(chi) v.l) l + v_perp) / (cosh(chi) + sinh(chi) v.l);
    it agrees with lorentz_ball_action of the matrix boost and fixes the
    boundary points +-l.
    """
    ch, sh = math.cosh(chi), math.sinh(chi)
    n = l.v

    def act(v: np.ndarray) -> np.ndarray:
        par = float(v @ n)
        perp = v - par * n
        return ((sh + ch * par) * n + perp) / (ch + sh * par)

    if isinstance(u, BallPoint):
        return BallPoint(act(u.v))
    if isinstance(u, SphereDirection):
        return SphereDirection.normalized(act(u.v))
    raise TypeError("expected BallPoint or SphereDirection")


def sphere_action(transform: LorentzTransform,
                  dirs: np.ndarray) -> np.ndarray:
    """Boundary restriction of the ball action on (n, 3) unit rows,
    renormalized onto the sphere."""
    w = ball_action_many(transform, dirs)
    return w / np.linalg.norm(w, axis=1)[:, None]


def homology_through(u0: BallPoint, l: SphereDirection) -> SphereDirection:
    """Second sphere intersection of the line through u0 and l.

    This is the involution that sends the endpoint of a chord through u0 to
    the opposite endpoint; applying it twice returns l. On plain floats.
    """
    d = [b - a for a, b in zip(u0._t, l._t)]
    # the known root s = 1 factors out: the other root is c/a in s
    s2 = (dot(u0._t, u0._t) - 1.0) / dot(d, d)
    return SphereDirection._of(unit([a + s2 * b for a, b in zip(u0._t, d)]))


def homology_through_many(u0: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    d = np.atleast_2d(dirs) - u0
    s2 = (float(u0 @ u0) - 1.0) / np.einsum("ij,ij->i", d, d)
    w = u0 + s2[:, None] * d
    return w / np.linalg.norm(w, axis=1)[:, None]


def ray_exits(apex: np.ndarray, pts: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Where the rays from an interior apex through the rows of pts leave
    the sphere.

    Returns (unit exit rows, mask of rows coinciding with the apex); the
    ray of a masked row is undefined and its exit row is nan. The array
    path of the exit kernel: column by column, with the same elementwise
    operations in the same order as BallCone.margin on one point, so both
    round alike and give the same bits; no reduction goes through BLAS,
    which would reorder or fuse the products.
    """
    pts = np.atleast_2d(pts)
    ax, ay, az = apex.tolist()
    dx, dy, dz = pts[:, 0] - ax, pts[:, 1] - ay, pts[:, 2] - az
    dd = dx * dx + dy * dy + dz * dz
    degenerate = dd < 1e-28
    dd = np.where(degenerate, 1.0, dd)
    ad = dx * ax + dy * ay + dz * az
    room = 1.0 - (ax * ax + ay * ay + az * az)
    disc = np.sqrt(ad * ad + dd * room)
    # positive quadratic root, in the cancellation-free arrangement
    outward = ad > 0.0
    t = (np.where(outward, room, disc - ad)
         / np.where(outward, ad + disc, dd))
    ex, ey, ez = ax + t * dx, ay + t * dy, az + t * dz
    norm = np.sqrt(ex * ex + ey * ey + ez * ez)
    norm = np.where(degenerate, 1.0, norm)
    exits = np.stack([ex / norm, ey / norm, ez / norm], axis=1)
    exits[degenerate] = np.nan
    return exits, degenerate


def fit_cap(points: np.ndarray,
            inside_hint: np.ndarray) -> tuple[Cap, float]:
    """Fit a spherical cap whose boundary passes through unit points.

    The boundary circle of a cap spans a plane; a rank-
    deficient direction of the centered samples recovers the plane normal.
    inside_hint (a unit vector known to lie inside the cap region) picks
    which of the two complementary caps to return. Returns (cap, residual)
    where the residual is the worst angular misfit of the samples. The
    library transforms caps exactly (cap_image); this refit stays as an
    independent oracle for the tests and the self-test.
    """
    pts = np.atleast_2d(points)
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid)
    normal = vt[-1]
    offset = float((pts @ normal).mean())
    if normal @ inside_hint < offset:
        normal, offset = -normal, -offset
    offset = min(1.0, max(-1.0, offset))
    half_angle = math.acos(offset)
    angles = np.arccos(np.clip(pts @ normal, -1.0, 1.0))
    residual = float(np.max(np.abs(angles - half_angle)))
    return Cap(SphereDirection.normalized(normal), half_angle), residual


def cap_image(transform: LorentzTransform, cap: Cap) -> Cap:
    """Image of a cap under a Lorentz map's boundary action, as _map's."""
    n, c, s = _cap_seen(transform._f, cap.axis._t, cap.cos_half,
                        math.sin(cap.half_angle))
    return Cap(SphereDirection._of(n), math.atan2(s, c))


def _act(m, p) -> tuple[float, float, float]:
    """Ball action of the matrix m on the point p."""
    x, y, z = p
    den = m[0] + m[1] * x + m[2] * y + m[3] * z
    return ((m[4] + m[5] * x + m[6] * y + m[7] * z) / den,
            (m[8] + m[9] * x + m[10] * y + m[11] * z) / den,
            (m[12] + m[13] * x + m[14] * y + m[15] * z) / den)


def _cap_seen(m, n, c: float, s: float):
    """Axis, cos and sin of the half-angle of the image under the matrix m
    of the cap about n with cos c and sin s.

    The cap {d : d.n > c} is the set of null rays (1, d) on which the
    spacelike covector k = (-c, n) is positive. The map sends each ray x
    to mx and the covector to k' = eta m eta k, which pairs with mx as k
    pairs with x (Ratcliffe, Foundations of Hyperbolic Manifolds, section
    3.2: hyperplanes of the hyperboloid model). So the image cap has axis
    k'_s / |k'_s| and cos -k'_0 / |k'_s|; since m keeps |k'_s|^2 - k'_0^2
    = s^2, its sin is s / |k'_s|, accurate for thin and wide caps alike.
    """
    x, y, z = n
    k0 = c * m[0] + x * m[1] + y * m[2] + z * m[3]
    k1 = c * m[4] + x * m[5] + y * m[6] + z * m[7]
    k2 = c * m[8] + x * m[9] + y * m[10] + z * m[11]
    k3 = c * m[12] + x * m[13] + y * m[14] + z * m[15]
    size = math.sqrt(k1 * k1 + k2 * k2 + k3 * k3)
    return (k1 / size, k2 / size, k3 / size), k0 / size, s / size


def apex_matrix(x: float, y: float, z: float) -> tuple[float, ...]:
    """The boost along -p that moves the ball point p = (x, y, z) to the
    origin, with Lorentz factor g = 1/sqrt(1 - |p|^2), as 16 floats."""
    g = 1.0 / math.sqrt(1.0 - (x * x + y * y + z * z))
    h = g * g / (g + 1.0)  # (g - 1) / |p|^2
    return (g, -g * x, -g * y, -g * z, -g * x, 1.0 + h * x * x, h * x * y,
            h * x * z, -g * y, h * y * x, 1.0 + h * y * y, h * y * z,
            -g * z, h * z * x, h * z * y, 1.0 + h * z * z)
