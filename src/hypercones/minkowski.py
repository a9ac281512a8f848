"""Minkowski four-vectors and the proper orthochronous Lorentz group.

Signature convention is (+, -, -, -): the pairing of a = (a0, a_s) and
b = (b0, b_s) is a0*b0 - a_s.b_s. The open forward cone V consists of the
x with x0 > |x_s|; the causal semigroup pairs translations from the closure
of V with proper orthochronous Lorentz matrices.

The group kernels (_apply, _inverse, _compose, _boost, _rotation) live
here once, on a 4x4 matrix as 16 floats row by row, which LorentzTransform
keeps (`_f`) as FourVector keeps its four; `_of` wraps 16 floats a caller
has already checked or built in closed form. Every one-vector operation
runs on the floats, |x_s| by hypot, so no result depends on numpy's BLAS.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES

__all__ = [
    "FourVector", "CausalClass", "LorentzTransform", "PoincareElement",
    "minkowski_product", "causal_class", "in_light_cone",
    "decompose_translation", "kappa_split", "lightlike_boost",
    "in_semigroup", "ETA",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_LINEAR = DEFAULT_TOLERANCES.linear_identity
_MATRIX = DEFAULT_TOLERANCES.matrix_identity
# Gram rounding per squared entry size s^2: exact boosts and their products
# with rotations at rapidity 8 to 16 reach 6.3 eps (2,700 seeded draws)
_GRAM_ROUNDING = 16.0 * np.finfo(float).eps


class FourVector:
    """Immutable spacetime vector (x0, x1, x2, x3).

    The four components are kept as plain floats, and the read-only array
    `components` is built when first read: the one-event kernels read the
    floats with no array dispatch. Arithmetic is done on the floats, with
    the bits of numpy's elementwise operations.
    """

    __slots__ = ("_x0", "_x1", "_x2", "_x3", "_a")

    def __init__(self, x0, x1=0.0, x2=0.0, x3=0.0):
        self._x0, self._x1, self._x2, self._x3 = (
            float(x0), float(x1), float(x2), float(x3))
        self._a = None

    @classmethod
    def from_array(cls, arr) -> "FourVector":
        return cls(*np.asarray(arr, dtype=float).reshape(4).tolist())

    @classmethod
    def from_parts(cls, x0: float, xs) -> "FourVector":
        return cls(x0, *np.asarray(xs, dtype=float).reshape(3).tolist())

    @property
    def x0(self) -> float:
        return self._x0

    @property
    def xs(self) -> np.ndarray:
        return self.components[1:]

    @property
    def components(self) -> np.ndarray:
        a = self._a
        if a is None:
            a = np.array([self._x0, self._x1, self._x2, self._x3])
            a.flags.writeable = False
            self._a = a
        return a

    def square(self) -> float:
        """Minkowski square x.x (positive for timelike x)."""
        return minkowski_product(self, self)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self._x0 + other._x0, self._x1 + other._x1,
                          self._x2 + other._x2, self._x3 + other._x3)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self._x0 - other._x0, self._x1 - other._x1,
                          self._x2 - other._x2, self._x3 - other._x3)

    def __neg__(self) -> "FourVector":
        return FourVector(-self._x0, -self._x1, -self._x2, -self._x3)

    def __mul__(self, c: float) -> "FourVector":
        c = float(c)
        return FourVector(self._x0 * c, self._x1 * c, self._x2 * c,
                          self._x3 * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        # elementwise ==, as np.array_equal: a tuple comparison would take
        # a NaN as equal to itself
        return isinstance(other, FourVector) and (
            self._x0 == other._x0 and self._x1 == other._x1
            and self._x2 == other._x2 and self._x3 == other._x3)

    def __repr__(self) -> str:
        return "FourVector({}, {}, {}, {})".format(
            self._x0, self._x1, self._x2, self._x3)


def minkowski_product(a: FourVector, b: FourVector) -> float:
    """Lorentz pairing a0*b0 - a_s.b_s."""
    return a._x0 * b._x0 - (a._x1 * b._x1 + a._x2 * b._x2 + a._x3 * b._x3)


class CausalClass(enum.Enum):
    TIMELIKE_FUTURE = "timelike-future"
    TIMELIKE_PAST = "timelike-past"
    LIGHTLIKE_FUTURE = "lightlike-future"
    LIGHTLIKE_PAST = "lightlike-past"
    SPACELIKE = "spacelike"
    ZERO = "zero"


def causal_class(x: FourVector) -> CausalClass:
    """Classify x by the signs of its Minkowski square and time component."""
    if (abs(x._x0) <= _LINEAR and abs(x._x1) <= _LINEAR
            and abs(x._x2) <= _LINEAR and abs(x._x3) <= _LINEAR):
        return CausalClass.ZERO
    q = x.square()
    if abs(q) <= _LINEAR:
        return (CausalClass.LIGHTLIKE_FUTURE if x.x0 > 0
                else CausalClass.LIGHTLIKE_PAST)
    if q > 0:
        return (CausalClass.TIMELIKE_FUTURE if x.x0 > 0
                else CausalClass.TIMELIKE_PAST)
    return CausalClass.SPACELIKE


def in_light_cone(x: FourVector) -> bool:
    """Strict membership in the open forward cone: x0 > |x_s|."""
    return x._x0 > math.hypot(x._x1, x._x2, x._x3)


class LorentzTransform:
    """Proper orthochronous Lorentz matrix, validated at construction, kept
    as 16 floats row by row (`_f`) with its read-only array `matrix` built
    when first read."""

    __slots__ = ("_f", "_a")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float).reshape(4, 4)
        _check_proper_orthochronous(m)
        m.flags.writeable = False
        self._f, self._a = tuple(m.ravel().tolist()), m

    @classmethod
    def _of(cls, floats) -> "LorentzTransform":
        t = object.__new__(cls)
        t._f, t._a = tuple(floats), None
        return t

    @property
    def matrix(self) -> np.ndarray:
        a = self._a
        if a is None:
            a = np.array(self._f).reshape(4, 4)
            a.flags.writeable = False
            self._a = a
        return a

    @classmethod
    def identity(cls) -> "LorentzTransform":
        return cls._of(float(i % 5 == 0) for i in range(16))

    @classmethod
    def boost(cls, direction, rapidity: float) -> "LorentzTransform":
        """Pure boost along a spatial direction with the given rapidity."""
        n = _direction(direction, "boost direction must be nonzero and finite")
        return cls._of(_boost(n, rapidity))

    @classmethod
    def rotation(cls, axis, angle: float) -> "LorentzTransform":
        """Spatial rotation about an axis (Rodrigues form)."""
        n = _direction(axis, "rotation axis must be nonzero and finite")
        return cls._of(_rotation(n, angle))

    def verify(self) -> bool:
        try:
            _check_proper_orthochronous(self.matrix)
        except ValueError:
            return False
        return True

    def inverse(self) -> "LorentzTransform":
        return LorentzTransform._of(_inverse(self._f))

    def __matmul__(self, other: "LorentzTransform") -> "LorentzTransform":
        return LorentzTransform._of(_compose(self._f, other._f))

    def apply(self, x: FourVector) -> FourVector:
        return FourVector(*_apply(self._f, (x._x0, x._x1, x._x2, x._x3)))

    def __repr__(self) -> str:
        return f"LorentzTransform({self.matrix.tolist()})"


def _apply(m, x) -> tuple[float, float, float, float]:
    """The matrix m applied to the four-vector x, each row summed in
    order."""
    x0, x1, x2, x3 = x
    return (m[0] * x0 + m[1] * x1 + m[2] * x2 + m[3] * x3,
            m[4] * x0 + m[5] * x1 + m[6] * x2 + m[7] * x3,
            m[8] * x0 + m[9] * x1 + m[10] * x2 + m[11] * x3,
            m[12] * x0 + m[13] * x1 + m[14] * x2 + m[15] * x3)


def _inverse(m) -> tuple[float, ...]:
    """Inverse of a Lorentz matrix, eta m^T eta."""
    return (m[0], -m[4], -m[8], -m[12], -m[1], m[5], m[9], m[13],
            -m[2], m[6], m[10], m[14], -m[3], m[7], m[11], m[15])


def _compose(a, b) -> tuple[float, ...]:
    """The matrix product a b."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
    return (a0 * b0 + a1 * b4 + a2 * b8 + a3 * b12,
            a0 * b1 + a1 * b5 + a2 * b9 + a3 * b13,
            a0 * b2 + a1 * b6 + a2 * b10 + a3 * b14,
            a0 * b3 + a1 * b7 + a2 * b11 + a3 * b15,
            a4 * b0 + a5 * b4 + a6 * b8 + a7 * b12,
            a4 * b1 + a5 * b5 + a6 * b9 + a7 * b13,
            a4 * b2 + a5 * b6 + a6 * b10 + a7 * b14,
            a4 * b3 + a5 * b7 + a6 * b11 + a7 * b15,
            a8 * b0 + a9 * b4 + a10 * b8 + a11 * b12,
            a8 * b1 + a9 * b5 + a10 * b9 + a11 * b13,
            a8 * b2 + a9 * b6 + a10 * b10 + a11 * b14,
            a8 * b3 + a9 * b7 + a10 * b11 + a11 * b15,
            a12 * b0 + a13 * b4 + a14 * b8 + a15 * b12,
            a12 * b1 + a13 * b5 + a14 * b9 + a15 * b13,
            a12 * b2 + a13 * b6 + a14 * b10 + a15 * b14,
            a12 * b3 + a13 * b7 + a14 * b11 + a15 * b15)


def _boost(n, chi: float) -> tuple[float, ...]:
    """The boost along the unit n with rapidity chi: cosh chi and sinh chi
    n in the time row and column, the identity plus (cosh chi - 1) n n^T
    in space."""
    ch, sh = math.cosh(chi), math.sinh(chi)
    x, y, z = n
    h = ch - 1.0
    return (ch, sh * x, sh * y, sh * z,
            sh * x, 1.0 + h * (x * x), h * (x * y), h * (x * z),
            sh * y, h * (y * x), 1.0 + h * (y * y), h * (y * z),
            sh * z, h * (z * x), h * (z * y), 1.0 + h * (z * z))


def _rotation(n, angle: float) -> tuple[float, ...]:
    """The rotation by `angle` about the unit n: I + sin K + (1 - cos) K^2
    in space, for the cross-product matrix K of n (Rodrigues)."""
    s, h = math.sin(angle), 1.0 - math.cos(angle)
    x, y, z = n
    xy, xz, yz = h * (x * y), h * (x * z), h * (y * z)
    return (1.0, 0.0, 0.0, 0.0,
            0.0, 1.0 - h * (y * y + z * z), xy - s * z, xz + s * y,
            0.0, xy + s * z, 1.0 - h * (x * x + z * z), yz - s * x,
            0.0, xz - s * y, yz + s * x, 1.0 - h * (x * x + y * y))


def _direction(v, message: str) -> tuple[float, float, float]:
    """The 3-vector v over its norm by hypot, unit where the squares
    overflow or underflow; ValueError(message) unless 0 < norm < inf.
    v is first scaled by the power of two that puts its largest entry in
    [1/2, 1), which is exact and moves no bit of the quotient: hypot of a
    subnormal v rounds onto the subnormal grid, off unit after division."""
    x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
    e = -math.frexp(max(abs(x), abs(y), abs(z)))[1]
    x, y, z = math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e)
    norm = math.hypot(x, y, z)
    if not 0.0 < norm < math.inf:  # NaN fails it too
        raise ValueError(message)
    return x / norm, y / norm, z / norm


def _check_proper_orthochronous(m: np.ndarray) -> None:
    # the Gram test allows the rounding of products of entries of size s,
    # so the group's own maps pass at large rapidity; it fails once that
    # slack reaches 1 (s near 1.7e7, rapidity about 17.3), where det's
    # rounding, which also grows as eps s^2, could flip its sign. Below
    # that det is +-1 to rounding, and its sign decides.
    # Each test is written to fail on NaN, which compares false.
    size = float(np.max(np.abs(m)))
    slack = _MATRIX + _GRAM_ROUNDING * size * size
    gram = m.T @ ETA @ m
    if not np.max(np.abs(gram - ETA)) <= slack < 1.0:
        raise ValueError("matrix does not preserve the Minkowski form")
    if not m[0, 0] >= 1.0 - _MATRIX:
        raise ValueError("matrix is not orthochronous")
    if not np.linalg.det(m) > 0.0:
        raise ValueError("matrix is not proper (det != +1)")


@dataclass(frozen=True)
class PoincareElement:
    """Pair (translation, Lorentz part) acting as x -> L x + t."""

    translation: FourVector
    lorentz: LorentzTransform

    def apply(self, x: FourVector) -> FourVector:
        return self.lorentz.apply(x) + self.translation

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        return PoincareElement(
            self.translation + self.lorentz.apply(other.translation),
            self.lorentz @ other.lorentz)


def in_semigroup(g: PoincareElement) -> bool:
    """Whether g translates into the closed forward cone with a valid
    proper orthochronous Lorentz part."""
    t = g.translation
    closed_future = t._x0 >= math.hypot(t._x1, t._x2, t._x3) - _LINEAR
    return closed_future and g.lorentz.verify()


def decompose_translation(z: FourVector) -> tuple[FourVector, FourVector]:
    """Split an arbitrary translation as z = x - y with x, y in the closed
    forward cone.

    The canonical choice takes x = (|z_s| + max(z0, 0), z_s); the remainder
    y = x - z is then a pure non-negative time translation.
    """
    x0 = math.hypot(z._x1, z._x2, z._x3) + max(z._x0, 0.0)
    x = FourVector(x0, z._x1, z._x2, z._x3)
    y = x - z
    return x, y


def kappa_split(x: FourVector) -> tuple[FourVector, float]:
    """Split x into a future lightlike part plus kappa times (1, 0, 0, 0).

    kappa = x0 - |x_s| measures how far x sits above (or below) the forward
    light cone boundary; the remainder (|x_s|, x_s) is lightlike and future
    pointing (or zero).
    """
    r = math.hypot(x._x1, x._x2, x._x3)
    return FourVector(r, x._x1, x._x2, x._x3), x._x0 - r


def lightlike_boost(l: FourVector, beta: float) -> LorentzTransform:
    """Boost scaling the lightlike ray l = (1, n) by 1/beta.

    The returned transform maps l to l/beta and the reflected ray
    l' = (1, -n) to beta*l'. Requires beta >= 1, so the named ray is
    contracted.
    """
    size = math.hypot(l._x1, l._x2, l._x3)
    if abs(l._x0 - 1.0) > _LINEAR or abs(size - 1.0) > _LINEAR:
        raise ValueError("expected a normalized lightlike ray (1, n), |n| = 1")
    if beta < 1.0:
        raise ValueError("scaling factor must be >= 1")
    # rapidity -log(beta) along n sends e^chi -> 1/beta on the (1, n) ray
    return LorentzTransform.boost((l._x1, l._x2, l._x3), -math.log(beta))
