"""The plain-float kernels against the forms they were unrolled from.

Each kernel below does the same float operations in the same order as its
reference, so every result must match to the bit. Floats are compared as
their packed bytes, so a -0.0 where the reference gives 0.0 fails.
"""

import itertools
import math
import random
import struct

import numpy as np
import pytest

from hypercones.ball_model import (BallPoint, Cap, Hyperboloid,
                                   SphereDirection, _act, _cap_seen, _Triple,
                                   apex_matrix)
from hypercones import cones as cone_module
from hypercones.cones import (_CAP_LIMIT, _CLEARANCE, _LIGHT_BAND,
                              BallCone, DisjointResult, Hyperball, Hypercone,
                              _cone, _covering_cap, _enclosure,
                              _frame_clearance, _hull_gap, _lead, _leq,
                              _line_entry, _map, _plane, _plane_terms,
                              cone_hyperball_disjoint, cone_leq, disjoint,
                              hyperball_in_cone, in_causal_completion,
                              map_cone, opposite)
from hypercones.config import DEFAULT_TOLERANCES
from hypercones.errors import DegenerateGeometry
from hypercones.minkowski import (FourVector, LorentzTransform, _apply,
                                  _boost, _compose, _inverse, _rotation)
from hypercones.spherical import angle, cross, dot, perpendicular, turn, unit
from tests.conftest import random_cone

N = 10_000


def bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


# -- the references: the kernels as they were before they were unrolled


def _reference_unit(a):
    n = math.sqrt(dot(a, a))
    return a[0] / n, a[1] / n, a[2] / n


def _reference_angle(a, b):
    c = cross(a, b)
    return math.atan2(math.sqrt(dot(c, c)), dot(a, b))


def _reference_perpendicular(a):
    j = min(range(3), key=lambda i: abs(a[i]))
    return _reference_unit(cross(a, [float(i == j) for i in range(3)]))


def _reference_turn(a, b, by):
    d = dot(a, b)
    t = (b[0] - d * a[0], b[1] - d * a[1], b[2] - d * a[2])
    t = _reference_unit(t) if dot(t, t) >= 1e-28 else \
        _reference_perpendicular(a)
    c, s = math.cos(by), math.sin(by)
    return c * a[0] + s * t[0], c * a[1] + s * t[1], c * a[2] + s * t[2]


def _reference_compose(a, b):
    return tuple(a[i] * b[j] + a[i + 1] * b[j + 4] + a[i + 2] * b[j + 8]
                 + a[i + 3] * b[j + 12] for i in (0, 4, 8, 12)
                 for j in (0, 1, 2, 3))


def _reference_cap_seen(m, n, c, s):
    k = [c * m[i] + n[0] * m[i + 1] + n[1] * m[i + 2] + n[2] * m[i + 3]
         for i in (0, 4, 8, 12)]
    size = math.sqrt(k[1] * k[1] + k[2] * k[2] + k[3] * k[3])
    return _reference_unit(k[1:]), k[0] / size, s / size


def _reference_cone(apex, axis, psi):
    """The checks of a cone, in order, then its record (exit_scalars,
    psi)."""
    ax, ay, az = apex
    nx, ny, nz = axis
    room = 1.0 - (ax * ax + ay * ay + az * az)
    if not room > 0.0:
        raise ValueError("ball point must satisfy |u| < 1")
    if not abs(math.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) <= 1e-6:
        raise ValueError("direction must be unit length")
    if not 0.0 < psi < math.pi:
        raise ValueError("cap half-angle must lie in (0, pi)")
    scalars = (ax, ay, az, room, nx, ny, nz, math.cos(psi))
    if dot(scalars[4:7], scalars[:3]) >= (
            scalars[7] - DEFAULT_TOLERANCES.pointedness):
        raise ValueError("apex must lie strictly below the base-circle plane")
    return scalars, psi


def _reference_line_entry(cone, d):
    ax, ay, az, _, nx, ny, nz, c = cone.exit_scalars
    dx, dy, dz = d
    a, along = dx * nx + dy * ny + dz * nz, ax * dx + ay * dy + az * dz
    along += ((ax - along * dx) * dx + (ay - along * dy) * dy
              + (az - along * dz) * dz)
    wx, wy, wz = ax - along * dx, ay - along * dy, az - along * dz
    wn, ww = wx * nx + wy * ny + wz * nz, wx * wx + wy * wy + wz * wz
    e, f = c - wn, along * a - c
    qa = e * e + a * a * ww - a * a
    qb = e * along * wn - a * f * ww - a * wn
    qc = (along * along - 1.0) * wn * wn + f * f * ww
    big = qb + math.copysign(math.sqrt(max(qb * qb - qa * qc, 0.0)), qb)
    roots = [u / v for u, v in ((big, qa), (qc, big)) if v != 0.0]
    return max([along + t for t in roots
                if along + t < 1.0 and t * a - wn >= -1e-12] + [-1.0])


# -- seeded inputs, with exact and signed zeros and the edge cases


def _direction(rng):
    """A unit vector: mostly generic, sometimes a signed basis vector or
    one with a zero entry, so that products of zeros carry their sign."""
    r = rng.random()
    if r < 0.1:
        v = [0.0, 0.0, 0.0]
        v[rng.integers(3)] = float(rng.choice([-1.0, 1.0]))
        return [x if rng.random() < 0.5 else -x for x in v]
    v = rng.normal(size=3)
    if r < 0.2:
        v[rng.integers(3)] = float(rng.choice([0.0, -0.0]))
    return (v / np.linalg.norm(v)).tolist()


def _vector(rng):
    """A nonzero 3-vector over magnitudes 1e-150 to 1e150."""
    v = np.array(_direction(rng)) * 10.0 ** rng.uniform(-150.0, 150.0)
    return v.tolist() if np.any(v) else [1.0, 0.0, -0.0]


def _near_sphere(rng):
    """A ball point with 1 - |p| log-uniform in [1e-12, 1e-2], or the
    origin and points on a coordinate axis."""
    if rng.random() < 0.05:
        return [0.0, -0.0, 0.0]
    r = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
    return [r * x for x in _direction(rng)]


def _matrix(rng):
    """16 floats of a Lorentz matrix: a rotation after a boost (rapidity
    up to 3, axes sometimes on a basis vector), its inverse, or an apex
    frame near the sphere."""
    r = rng.random()
    if r < 0.2:
        return list(apex_matrix(*_near_sphere(rng)))
    m = (LorentzTransform.rotation(_direction(rng), rng.uniform(-3.0, 3.0))
         @ LorentzTransform.boost(_direction(rng), rng.uniform(-3.0, 3.0)))
    m = m.matrix.ravel().tolist()
    return list(_inverse(m)) if r < 0.6 else m


def test_unit_keeps_the_bits():
    rng = np.random.default_rng(340)
    for _ in range(N):
        a = _vector(rng)
        assert bits(unit(a)) == bits(_reference_unit(a))


def test_angle_keeps_the_bits():
    rng = np.random.default_rng(341)
    for k in range(N):
        a = _direction(rng)
        if k % 4 == 0:  # near a and near -a, and a itself
            b = [x + 10.0 ** rng.uniform(-17.0, -8.0) * rng.normal()
                 for x in a]
            b = [float(rng.choice([-1.0, 1.0])) * x for x in b]
        elif k % 4 == 1:
            b = list(a)
        else:
            b = _direction(rng)
        assert bits([angle(a, b)]) == bits([_reference_angle(a, b)])


def _tied_vector(rng):
    """A 3-vector with two or three entries equal in size, some of them
    signed zeros or +-1, in a random order."""
    a = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)]))
    b = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)]))
    v = [a, a, b] if rng.random() < 0.8 else [a, a, a]
    v = [x if rng.random() < 0.5 else -x for x in v]
    return [v[i] for i in rng.permutation(3)]


def test_perpendicular_keeps_the_bits():
    rng = np.random.default_rng(343)
    for k in range(N):
        a = _tied_vector(rng) if k % 2 else _direction(rng)
        if not any(a):
            continue
        assert bits(perpendicular(a)) == bits(_reference_perpendicular(a))


def test_turn_keeps_the_bits_and_its_fallback():
    rng = np.random.default_rng(342)
    fallbacks = 0
    for k in range(N):
        a = _direction(rng)
        if k % 3 == 0:
            # b within 1e-14 of +-a: turned on an arbitrary great circle
            sign = float(rng.choice([-1.0, 1.0]))
            b = [sign * x + 10.0 ** rng.uniform(-18.0, -14.0) * rng.normal()
                 for x in a]
        else:
            b = _direction(rng)
        by = rng.uniform(-4.0, 4.0)
        d = dot(a, b)
        t = [y - d * x for x, y in zip(a, b)]
        fallbacks += dot(t, t) < 1e-28
        assert bits(turn(a, b, by)) == bits(_reference_turn(a, b, by))
    assert fallbacks >= N // 10


def test_compose_keeps_the_bits():
    rng = np.random.default_rng(343)
    for k in range(N):
        if k % 5 == 0:  # arbitrary floats, zeros of both signs among them
            a, b = (np.where(rng.random(16) < 0.2, rng.choice([0.0, -0.0]),
                             rng.normal(size=16)).tolist() for _ in range(2))
        else:
            a, b = _matrix(rng), _matrix(rng)
        assert bits(_compose(a, b)) == bits(_reference_compose(a, b))


def test_cap_seen_keeps_the_bits():
    rng = np.random.default_rng(344)
    for _ in range(N):
        m, n = _matrix(rng), _direction(rng)
        psi = rng.uniform(1e-6, math.pi - 1e-6)
        c, s = math.cos(psi), math.sin(psi)
        got_n, got_c, got_s = _cap_seen(m, n, c, s)
        ref_n, ref_c, ref_s = _reference_cap_seen(m, n, c, s)
        assert bits([*got_n, got_c, got_s]) == bits([*ref_n, ref_c, ref_s])


def _cone_input(rng, k):
    """Apex, axis and half-angle: valid cones (apexes out to 1e-12 from
    the sphere), and every kind that _cone refuses."""
    axis, psi = _direction(rng), rng.uniform(0.01, 3.1)
    apex = _near_sphere(rng) if k % 3 == 0 else (
        rng.uniform(0.0, 0.9) * np.array(_direction(rng))).tolist()
    kind = k % 10
    if kind == 4:  # outside the ball, or not a number
        apex = [float(rng.choice([1.0, 2.0, math.nan])), 0.0, 0.0]
    elif kind == 5:  # off unit length by more or less than 1e-6
        axis = [x * (1.0 + float(rng.choice([-1.0, 1.0]))
                     * 10.0 ** rng.uniform(-7.0, -5.0)) for x in axis]
    elif kind == 6:
        psi = float(rng.choice([0.0, -0.5, math.pi, 4.0, math.nan]))
    elif kind == 7:  # the apex about the base-circle plane, by 1e-9
        h = math.cos(psi) + rng.uniform(-1e-9, 1e-9)
        apex = [h * x for x in axis] if abs(h) < 1.0 else apex
    return apex, axis, psi


def _failure(fn, *args):
    try:
        return fn(*args), None
    except ValueError as err:
        return None, str(err)


def _same_record(cone, ref) -> None:
    """The cone's record is the reference record (exit_scalars, psi) to the
    bit, and so are the apex, axis and half-angle it builds on first
    read, whose arrays are read-only."""
    scalars, psi = ref
    assert bits([*cone.exit_scalars, cone.psi]) == bits([*scalars, psi])
    apex, axis = cone.apex.v, cone.base.axis.v
    assert bits([*apex, *axis, cone.base.half_angle]) == bits(
        [*scalars[:3], *scalars[4:7], psi])
    assert not (apex.flags.writeable or axis.flags.writeable)


def _public_cone(apex, axis, psi):
    """The public constructor over the floats as given: BallPoint checks
    the apex, and Cap the unnormalized axis and psi."""
    return BallCone(BallPoint(apex), Cap(SphereDirection._of(axis), psi))


def test_cone_keeps_the_bits_checks_and_messages():
    """_cone and the public constructor give the reference record, or its
    refusal, on 10,000 seeded inputs; _cone builds no object until its
    apex or base is read."""
    rng = np.random.default_rng(345)
    messages = set()
    for k in range(N):
        apex, axis, psi = _cone_input(rng, k)
        ref, ref_err = _failure(_reference_cone, apex, axis, psi)
        got, err = _failure(_cone, apex, axis, psi)
        public, public_err = _failure(_public_cone, apex, axis, psi)
        assert err == public_err == ref_err
        if err is not None:
            messages.add(err)
            continue
        assert list(vars(got)) == ["exit_scalars", "psi"]
        for cone in (got, public):
            _same_record(cone, ref)
    assert messages == {
        "ball point must satisfy |u| < 1", "direction must be unit length",
        "cap half-angle must lie in (0, pi)",
        "apex must lie strictly below the base-circle plane"}


@pytest.mark.parametrize("height, raises", [
    (math.cos(0.4) - 2e-10, False), (math.cos(0.4) - 1e-10, True),
    (math.cos(0.4), True)])
def test_public_and_float_cones_share_the_pointedness_rule(height, raises):
    args = ((0.0, 0.0, height), (0.0, 0.0, 1.0), 0.4)
    for build in (_cone, lambda a, n, psi: BallCone(
            BallPoint(a), Cap(SphereDirection(n), psi))):
        if raises:
            with pytest.raises(ValueError, match="strictly below"):
                build(*args)
        else:
            build(*args)


def _line_entry_input(rng, k):
    """A cone (half-angle 0.02 to 1.4, apex out to 0.9) and a unit d in its
    open cap: every fifth along the apex's direction or against it,
    through the apex, and the rest drawn across the cap."""
    while True:
        axis, psi = _direction(rng), rng.uniform(0.02, 1.4)
        apex = (rng.uniform(0.0, 0.9) * np.array(_direction(rng))).tolist()
        if dot(axis, apex) >= math.cos(psi) - 1e-6:
            continue
        cone = _cone(apex, axis, psi)
        if k % 5 == 0:
            if not any(apex):
                continue
            d = unit(apex)
            d = d if dot(d, axis) > cone.base.cos_half else [-x for x in d]
        else:
            d = turn(axis, _direction(rng), rng.uniform(0.0, 0.999) * psi)
        if dot(d, axis) > cone.base.cos_half:
            return cone, list(d)


def test_line_entry_keeps_the_bits():
    # the lower end of cones._chord for d in the open cap is the entry
    # as it was computed before the chord kernel took it over
    rng = np.random.default_rng(350)
    for k in range(N):
        cone, d = _line_entry_input(rng, k)
        assert bits([_line_entry(cone, d)]) == \
            bits([_reference_line_entry(cone, d)])


# -- LorentzTransform.boost and .inverse against their numpy bodies, the
# boost's direction normalized by hypot, as LorentzTransform.boost does


def _reference_boost(direction, rapidity):
    n = np.asarray(direction, dtype=float).reshape(3)
    n = n / math.hypot(*n.tolist())
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    m = np.eye(4)
    m[0, 0] = ch
    m[0, 1:] = sh * n
    m[1:, 0] = sh * n
    m[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(n, n)
    return m


def _reference_inverse(m):
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    return eta @ m.T @ eta


def test_boost_and_inverse_match_their_numpy_forms():
    # equal as numbers (np.array_equal), so up to the sign of zero: the
    # numpy forms add 0.0 to off-diagonal products that may be -0.0
    rng = np.random.default_rng(351)
    for k in range(N):
        n = (np.array(_direction(rng))
             * 10.0 ** rng.uniform(-100.0, 100.0)).tolist()
        chi = rng.uniform(-700.0, 700.0) if k % 3 == 0 else \
            rng.uniform(-3.0, 3.0)
        boost = LorentzTransform.boost(n, chi)
        assert np.array_equal(boost.matrix, _reference_boost(n, chi))
        for m in (boost.matrix, np.reshape(_matrix(rng), (4, 4)),
                  (LorentzTransform.rotation(_direction(rng), chi)
                   @ boost).matrix):
            got = LorentzTransform._of(m.ravel().tolist()).inverse().matrix
            assert np.array_equal(got, _reference_inverse(m))


# -- cones._plane, cones._plane_terms and LorentzTransform.apply against
# their bodies from before they went through _apply, _compose and _cap_seen


def _reference_plane(m, n):
    i = _inverse(m)
    n0, nx, ny, nz = (i[k] * n[0] + i[k + 1] * n[1] + i[k + 2] * n[2]
                      + i[k + 3] * n[3] for k in (0, 4, 8, 12))
    size = math.sqrt(nx * nx + ny * ny + nz * nz)
    return np.array([nx, ny, nz]) / size, n0 / size


def _reference_plane_terms(inner, outer, tau, shift):
    *m_k, nx, ny, nz, psi_k, _, _ = inner.apex_frame_scalars
    *m_r, psi, _, _ = outer.apex_frame_scalars
    n_r, inv = m_r[16:], _inverse(m_r)
    carry = [[m_k[i] * inv[j] + m_k[i + 1] * inv[j + 4]
              + m_k[i + 2] * inv[j + 8] + m_k[i + 3] * inv[j + 12]
              for j in (1, 2, 3)] for i in (0, 4, 8, 12)]
    e1 = perpendicular(n_r)
    e2 = cross(n_r, e1)
    a, b, d = ([r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in carry]
               for v in ([math.sin(psi) * x for x in n_r],
                         [-math.cos(psi) * x for x in e1],
                         [-math.cos(psi) * x for x in e2]))
    s0, s1, s2, s3 = (float(x) for x in shift)
    t = [m_k[i] * s0 + m_k[i + 1] * s1 + m_k[i + 2] * s2 + m_k[i + 3] * s3
         for i in (0, 4, 8, 12)]
    ka, kt, kb, kd = (t[0] / tau * v[0] - t[1] / tau * v[1]
                      - t[2] / tau * v[2] - t[3] / tau * v[3]
                      for v in (a, t, b, d))
    ka += kt / (2.0 * tau)
    a0, ax, ay, az = (x + y / tau for x, y in zip(a, t))
    return (a0, ax, ay, az, *b, *d, ka, kb, kd, nx, ny, nz), psi_k


def test_plane_keeps_the_bits():
    # 2,000 frames, 50 covectors N = (n0, n) each: n a direction or a
    # vector over 1e-150 to 1e150, n0 within |n| of zero or a signed zero
    rng = np.random.default_rng(370)
    count = 0
    for _ in range(2_000):
        m = _matrix(rng)
        for _ in range(50):
            n = _vector(rng) if rng.random() < 0.5 else _direction(rng)
            n0 = (float(rng.choice([0.0, -0.0])) if rng.random() < 0.2
                  else rng.uniform(-1.0, 1.0) * math.sqrt(dot(n, n)))
            got_w, got_c = _plane(m, (n0, *n))
            ref_w, ref_c = _reference_plane(m, (n0, *n))
            assert bits([*got_w, got_c]) == bits([*ref_w, ref_c])
            count += 1
    assert count == 100_000


def test_plane_terms_keep_the_bits():
    # 20,000 random cone pairs; every other one with a future-directed
    # shift, given as a list or an array, whose spatial part may vanish
    rng = np.random.default_rng(371)
    shifts = 0
    for k in range(20_000):
        inner, outer = random_cone(rng), random_cone(rng)
        tau = rng.uniform(0.2, 5.0)
        shift = (0.0, 0.0, 0.0, 0.0)
        if k % 2:
            xs = rng.normal(size=3) * (k % 10 != 1)
            shift = [float(np.linalg.norm(xs) + rng.exponential()),
                     *xs.tolist()]
            shift = np.array(shift) if k % 4 == 1 else shift
            shifts += 1
        got, got_psi = _plane_terms(inner, outer, tau, shift)
        ref, ref_psi = _reference_plane_terms(inner, outer, tau, shift)
        assert len(got) == 18
        assert bits([*got, got_psi]) == bits([*ref, ref_psi])
    assert shifts == 10_000


def test_lorentz_apply_is_the_apply_kernel():
    rng = np.random.default_rng(372)
    for _ in range(N):
        m = _matrix(rng)
        x = [*_vector(rng), float(rng.choice([0.0, -0.0, rng.normal()]))]
        got = LorentzTransform._of(m).apply(FourVector(*x))
        assert bits(got.components) == bits(_apply(m, x))


# -- in_causal_completion against its body from before the ball-point test
# was kept to the band next to the light cone, with L formed as before the
# covector triple


def _reference_lead(cone, x0, x1, x2, x3):
    """_lead from the 3 x 4 rows of the apex frame, the image cap axis
    and a cross product."""
    (_, _, _, _, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33,
     nx, ny, nz, _, cos_psi, sin_psi) = cone.apex_frame_scalars
    yx = m10 * x0 + m11 * x1 + m12 * x2 + m13 * x3
    yy = m20 * x0 + m21 * x1 + m22 * x2 + m23 * x3
    yz = m30 * x0 + m31 * x1 + m32 * x2 + m33 * x3
    along = yx * nx + yy * ny + yz * nz
    wx, wy, wz = yy * nz - yz * ny, yz * nx - yx * nz, yx * ny - yy * nx
    across = math.sqrt(wx * wx + wy * wy + wz * wz)
    lead = sin_psi * along - cos_psi * across
    if cos_psi * along + sin_psi * across <= 0.0:
        size = math.sqrt(yx * yx + yy * yy + yz * yz)
        lead = size if lead > 0.0 else -size
    return lead


def _reference_completion(x, region):
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
    lead = _reference_lead(region.cone, x0, x1, x2, x3)
    tau = region.shell.tau
    reach = abs(square - tau * tau) / (2.0 * tau)
    if reach * reach <= 1e-30 * square:
        return lead > 0.0
    window = DEFAULT_TOLERANCES.degenerate_window
    size = abs(lead)
    gap = tau * (size - reach)
    top = size if size > reach else reach
    if gap * gap <= window * window * (1.0 + 2.0 ** -47) * (
            square + top * top):
        sigma = math.sqrt(square)
        if (tau * abs(math.asinh(size / sigma) - math.asinh(reach / sigma))
                <= window):
            raise DegenerateGeometry(
                "ball touches the cone boundary within the window")
    return lead > reach


def _completion_region(rng, k):
    """A seeded cone on a seeded shell; every fifth apex at the origin."""
    while True:
        apex = [0.0, 0.0, 0.0] if k % 5 == 0 else \
            [rng.uniform(0.0, 0.6) * x for x in _direction(rng)]
        axis, psi = _direction(rng), rng.uniform(0.12, 1.2)
        if dot(axis, apex) < math.cos(psi) - 1e-6:
            tau = math.exp(rng.uniform(-1.0, 1.0))
            return Hypercone(Hyperboloid(tau), _cone(apex, axis, psi))


def _directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _completion_events(rng, region):
    """(tag, event) pairs, 5,411 per region, from every branch."""
    cone, tau = region.cone, region.shell.tau

    def spread(x0, r, n):
        return np.column_stack([x0, r[:, None] * _directions(rng, n)])

    # x0 over 1e-3 to 1e12 and 1 - |u|^2 over 1e-18 to 1
    n = 2_500
    x0 = 10.0 ** rng.uniform(-3.0, 12.0, n)
    w = 10.0 ** rng.uniform(-18.0, 0.0, n)
    yield from (("edge", x) for x in spread(x0, x0 * np.sqrt(1.0 - w), n))
    # |x_s|^2 a few ulps either side of _LIGHT_BAND x0^2
    n = 1_000
    x0 = 10.0 ** rng.uniform(-3.0, 12.0, n)
    r = x0 * math.sqrt(_LIGHT_BAND) * (
        1.0 + rng.integers(-6, 7, n) * 2.0 ** -52)
    yield from (("band", x) for x in spread(x0, r, n))
    # lifts of ball points scaled about the shell: members and others
    n = 1_200
    p = rng.uniform(0.0, 0.95, n)[:, None] * _directions(rng, n)
    s = tau * np.exp(rng.uniform(-0.5, 0.5, n))
    x0 = s / np.sqrt(1.0 - np.einsum("ij,ij->i", p, p))
    yield from (("lift", x) for x in np.column_stack([x0, x0[:, None] * p]))
    # shadows whose radius is the centre's distance to the boundary, give
    # or take a few windows: on either side of the shell
    apex, axis = cone.exit_scalars[:3], cone.exit_scalars[4:7]
    for t in rng.uniform(0.05, 0.95, 40):
        c = [a + t * (b - a) for a, b in zip(apex, axis)]
        d = _frame_clearance(cone, c, tau)[0]
        lift = np.array([1.0, *c]) / math.sqrt(1.0 - dot(c, c))
        for side in (1.0, -1.0):
            for off in (-3e-9, -5e-10, 0.0, 5e-10, 3e-9):
                sigma = tau * math.exp(side * (d + off) / tau)
                yield "window", sigma * lift
    # the light cone, its floats and their neighbours
    for _ in range(60):
        x0 = 10.0 ** rng.uniform(-3.0, 12.0)
        xs = x0 * np.array(_direction(rng))
        yield "light", np.array([x0, *xs])
        yield "light", np.array([np.nextafter(x0, np.inf), *xs])
        yield "light", np.array([np.nextafter(x0, 0.0), *xs])
    for _ in range(50):
        x0 = -(10.0 ** rng.uniform(-3.0, 3.0))
        yield "past", np.array([x0, *(0.5 * x0 * np.array(_direction(rng)))])
        yield "past", np.array([0.0, *(1e-3 * np.array(_direction(rng)))])
    for _ in range(30):
        x = np.array([1.0, *(0.3 * np.array(_direction(rng)))])
        x[rng.integers(4)] = rng.choice([math.inf, -math.inf, math.nan])
        yield "non-finite", x
    yield "sigma=tau", np.array([tau, 0.0, 0.0, 0.0])


def _completion_outcome(fn, x, region):
    try:
        value = fn(x, region)
        return type(value), value
    except (ValueError, DegenerateGeometry) as exc:
        return type(exc), str(exc)


def test_completion_keeps_every_answer_and_exception():
    # 40 regions of 5,411 events, each passed as a FourVector, an array
    # or a list in turn
    rng = np.random.default_rng(360)
    seen, band, count = {}, set(), 0
    for k in range(40):
        region = _completion_region(rng, k)
        for i, (tag, x) in enumerate(_completion_events(rng, region)):
            count += 1
            event = (FourVector.from_array(x), x, x.tolist())[i % 3]
            got = _completion_outcome(in_causal_completion, event, region)
            assert got == _completion_outcome(_reference_completion, event,
                                              region), (tag, x.tolist())
            seen.setdefault(tag, set()).add(got[1])
            if tag == "band":
                x0, x1, x2, x3 = x.tolist()
                rr, tt = x1 * x1 + x2 * x2 + x3 * x3, x0 * x0
                band.add(rr > _LIGHT_BAND * tt)
    assert count >= 200_000
    assert band == {True, False}
    assert {True, False, "ball point must satisfy |u| < 1",
            "event must lie in the closed forward cone"} <= seen["edge"]
    assert seen["band"] == {True, False}
    assert seen["lift"] == {True, False}
    assert ("ball touches the cone boundary within the window"
            in seen["window"] and {True, False} & seen["window"])
    assert seen["past"] == seen["non-finite"] == {
        "event must lie in the closed forward cone"}
    assert False in seen["light"]


def _exact_lead(mp, cone, x):
    """L and s = sqrt(x.x) for the event x at mpmath's precision, taking
    its floats and those of cone.apex_frame_scalars as exact: the
    reference's arithmetic with no rounding."""
    f = [mp.mpf(v) for v in cone.apex_frame_scalars]
    x = [mp.mpf(v) for v in x]
    y = [sum(f[4 * i + j] * x[j] for j in range(4)) for i in (1, 2, 3)]
    n, cos_psi, sin_psi = f[16:19], f[20], f[21]
    along = sum(a * b for a, b in zip(y, n))
    across = mp.sqrt(sum(a * a for a in cross(y, n)))
    lead = sin_psi * along - cos_psi * across
    if cos_psi * along + sin_psi * across <= 0:
        size = mp.sqrt(sum(a * a for a in y))
        lead = size if lead > 0 else -size
    return lead, mp.sqrt(x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2)


def test_lead_rounds_within_four_times_the_reference():
    """The worst |L - L_exact| / s over 300 events per band of 1 - |u|^2,
    for u = x_s / x0, from 1e-1 to 1e-10: _lead from the covector triple
    within 4 times _reference_lead's."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    with mpmath.workdps(50):
        for w in (1e-1, 1e-4, 1e-7, 1e-10):
            worst = worst_reference = 0.0
            for k in range(300):
                region = _completion_region(rng, k)
                cone, tau = region.cone, region.shell.tau
                u = [math.sqrt(1.0 - w) * a for a in _direction(rng)]
                sigma = tau * math.exp(rng.uniform(-1.0, 1.0))
                x = [sigma / math.sqrt(w) * a for a in (1.0, *u)]
                lead, s = _exact_lead(mpmath.mp, cone, x)
                worst = max(worst, float(abs(_lead(cone, *x) - lead) / s))
                worst_reference = max(worst_reference, float(
                    abs(_reference_lead(cone, *x) - lead) / s))
            assert 0.0 < worst <= 4.0 * worst_reference, (w, worst,
                                                          worst_reference)


# -- one image path: every image is a cone's record


def _reference_map(m, cone):
    """_map as it was before its image was a float record: the mapped
    apex and cap through _reference_cone."""
    ax, ay, az, _, nx, ny, nz, c = cone.exit_scalars
    n, c, s = _cap_seen(m, (nx, ny, nz), c, math.sin(cone.base.half_angle))
    return _reference_cone(_act(m, (ax, ay, az)), n, math.atan2(s, c))


def _reference_opposite(cone):
    """The apex frame's cap with its axis negated, carried back by the
    inverse frame, on the cone's apex, through _reference_cone."""
    *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    n, c, s = _cap_seen(_inverse(m), (-nx, -ny, -nz), math.cos(psi),
                        math.sin(psi))
    return _reference_cone(cone.exit_scalars[:3], n, math.atan2(s, c))


def _reference_leq(inner, outer):
    """cone_leq's margins as it read them before its float kernel."""
    a, b = inner.exit_scalars, outer.exit_scalars
    cap_margin = (outer.base.half_angle - inner.base.half_angle
                  - angle(a[4:7], b[4:7]))
    return cap_margin, outer.margin(a[:3])


def test_images_are_the_reference_records():
    """_map and map_cone give the record _reference_map builds, and
    opposite the one _reference_opposite builds on the same apex object,
    to the bit, on 20,000 (cone, matrix) pairs; where the image is no
    cone they raise the reference's error."""
    rng = np.random.default_rng(346)
    built, messages = 0, set()
    for k in range(2 * N):
        try:
            cone = _cone(*_cone_input(rng, k))
        except ValueError:
            cone = random_cone(rng, psi_max=1.4)
        m = _matrix(rng)
        ref, ref_err = _failure(_reference_map, m, cone)
        got, err = _failure(_map, m, cone)
        public, public_err = _failure(map_cone, LorentzTransform._of(m), cone)
        assert err == public_err == ref_err
        opp, opp_err = _failure(opposite, cone)
        assert opp_err == _failure(_reference_opposite, cone)[1]
        if opp is not None:
            _same_record(opp, _reference_opposite(cone))
            assert opp.apex is cone.apex
        if err is not None:
            messages.add(err)
            continue
        built += 1
        assert list(vars(got)) == ["exit_scalars", "psi"]
        _same_record(got, ref)
        _same_record(public, ref)
    assert built >= N and messages


def test_cone_and_map_build_no_objects(monkeypatch):
    """_cone and _map wrap the record alone: no BallPoint, SphereDirection
    or Cap is constructed, by its constructor or its _of, until the
    cone's apex or base is first read."""
    made = []
    of = _Triple.__dict__["_of"].__func__
    monkeypatch.setattr(_Triple, "_of", classmethod(
        lambda cls, floats: made.append(cls) or of(cls, floats)))
    for cls in (BallPoint, SphereDirection):
        monkeypatch.setattr(cls, "__init__", lambda self, v, init=cls.__init__:
                            made.append(type(self)) or init(self, v))
    post = Cap.__post_init__
    monkeypatch.setattr(Cap, "__post_init__",
                        lambda self: made.append(Cap) or post(self))
    rng = np.random.default_rng(348)
    images = []
    for k in range(1_000):
        cone = _failure(_cone, *_cone_input(rng, k))[0]
        image = cone and _failure(_map, _matrix(rng), cone)[0]
        images += [] if image is None else [image]
    assert len(images) > 300 and made == []
    images[-1].apex, images[-1].base
    assert made == [BallPoint, SphereDirection, Cap]


def _with(entries):
    m = np.eye(4).ravel().tolist()
    for i, x in entries.items():
        m[i] = x
    return m


# hand-built matrices, one per refusal, each reached past the checks
# before it: (matrix, cone's apex, axis and half-angle, message)
REFUSALS = [
    (_with({5: 10.0, 10: 10.0, 15: 10.0}), (0.0, 0.3, 0.0),
     (0.0, 0.0, 1.0), 0.4, "ball point must satisfy |u| < 1"),
    (_with({5: 1e300}), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.4,
     "direction must be unit length"),
    (_with({0: 1e308}), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1e-20,
     "cap half-angle must lie in (0, pi)"),
    (_with({12: 0.95}), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.4,
     "apex must lie strictly below the base-circle plane"),
]


@pytest.mark.parametrize("m, apex, axis, psi, message", REFUSALS)
def test_images_refuse_as_the_reference_does(m, apex, axis, psi, message):
    cone = _cone(apex, axis, psi)
    for refused in (lambda: _map(m, cone), lambda: _reference_map(m, cone),
                    lambda: map_cone(LorentzTransform._of(m), cone)):
        with pytest.raises(ValueError) as err:
            refused()
        assert str(err.value) == message


def _leq_pairs(rng):
    """Seeded cone pairs: independent cones, nested and near-nested ones,
    each cone against itself, and against itself with its apex moved
    1e-16 and 5e-15 along a random direction."""
    for k in range(N):
        a = random_cone(rng, psi_max=1.2)
        if k % 4 == 0:
            yield a, a
        elif k % 4 == 1:
            shift = (1e-16, 5e-15)[k % 8 // 4]
            apex = [x + shift * d for x, d in
                    zip(a.exit_scalars[:3], _direction(rng))]
            b = _cone(apex, a.exit_scalars[4:7], a.base.half_angle)
            yield (a, b) if rng.random() < 0.5 else (b, a)
        elif k % 4 == 2:  # the same cap about a deeper apex, either way
            depth = rng.uniform(0.0, 0.3)
            apex = [x - depth * n for x, n in
                    zip(a.exit_scalars[:3], a.exit_scalars[4:7])]
            try:
                b = _cone(apex, a.exit_scalars[4:7], a.base.half_angle)
            except ValueError:
                continue
            yield (a, b) if rng.random() < 0.5 else (b, a)
        else:
            yield a, random_cone(rng, psi_max=1.2)


def test_leq_kernel_keeps_cone_leqs_margins():
    rng = np.random.default_rng(347)
    answers = set()
    for inner, outer in _leq_pairs(rng):
        holds, cap_margin, apex_margin = _leq(inner, outer)
        ref = _reference_leq(inner, outer)
        result = cone_leq(inner, outer)
        assert bits([cap_margin, apex_margin]) == bits(ref) == bits(
            [result.cap_margin, result.apex_margin])
        window = DEFAULT_TOLERANCES.degenerate_window
        assert holds is result.holds is (ref[0] >= -window
                                         and ref[1] >= -window)
        answers.add(holds)
    assert answers == {True, False}


# -- the hull enclosure: the fold and the hull loop on unpacked records


def _reference_covering_cap(caps):
    """_covering_cap as it was, on (axis, half-angle) pairs through
    spherical's angle, turn and unit."""
    axis, half = caps[0]
    for n, psi in caps[1:]:
        gamma = angle(axis, n)
        if gamma + psi <= half:
            continue
        if gamma + half <= psi:
            axis, half = n, psi
            continue
        new_half = 0.5 * (gamma + half + psi)
        axis = turn(axis, n, new_half - half)
        half = new_half
    if half >= math.pi - _CAP_LIMIT:
        return None
    return unit(axis), half


def _reference_enclosure(cones, distinct=None):
    """_enclosure as it was: a per-cone (axis, half-angle) list for the
    fold, and the hull loop through dot, angle and max on slices."""
    cover = _reference_covering_cap([(k.exit_scalars[4:7], k.psi)
                                     for k in cones])
    if cover is None:
        return None
    n, need, apexes = cover[0], 0.0, []
    for k in distinct or cones:
        a, half = k.exit_scalars, k.psi
        along = dot(a, n)
        off = [x - along * y for x, y in zip(a, n)]  # zip reads a's apex only
        across = math.sqrt(dot(off, off))
        need = max(need, angle(n, a[4:7]) + half,
                   2.0 * math.atan2(across, 1.0 + along))
        apexes.append((along, across))
    psi = 0.05 + need
    if psi >= math.pi - _CAP_LIMIT:
        return None
    c, s = math.cos(psi), math.sin(psi)
    depth = max([_CLEARANCE - c, *((c * across - s * along) / (s - across)
                                   for along, across in apexes
                                   if along < c)])
    rho = 0.5 * (1.0 + depth)
    return _cone([-rho * x for x in n], n, psi)


def _orbit_lists(rng, cone, count):
    """A12's fold list and distinct images for `count` (1-3) generators,
    boosts to rapidity 2 and rotations to 3 rad: the ring, I r, then a I
    and a b for each non-identity member a, the products formed by
    _compose; None when a word has no image cone."""
    gens = [_boost(_direction(rng), rng.uniform(-2.0, 2.0))
            if rng.random() < 0.5 else
            _rotation(_direction(rng), rng.uniform(-3.0, 3.0))
            for _ in range(count)]
    ring = [LorentzTransform.identity()._f,
            *(f for g in gens for f in (g, _inverse(g)))]
    try:
        images = [_map(w, cone) for w in ring]
        products = [[_map(_compose(u, w), cone) for w in ring[1:]]
                    for u in ring[1:]]
    except ValueError:
        return None
    fold = images * 2
    for r, row in zip(images[1:], products):
        fold += [r, *row]
    return fold, images + [k for row in products for k in row]


def _enclosure_lists(rng):
    """20,000 seeded lists of cones, each with the cones its maxima run
    over: A12 orbits of 1-3 generators with their distinct images (and
    alone), enclosing_cone pairs, and 2-6 wide cones in any directions,
    most of them past the covering limit."""
    lists = 0
    for k in itertools.count():
        if lists >= 2 * N:
            return
        if k % 3 == 0:
            got = _orbit_lists(rng, random_cone(rng, psi_max=0.8),
                               1 + k // 3 % 3)
            if got is not None:
                yield got
                yield got[0], None
                lists += 2
            continue
        yield ([random_cone(rng, psi_max=1.4) for _ in range(2)]
               if k % 3 == 1 else
               [random_cone(rng, psi_min=0.8, psi_max=2.4)
                for _ in range(rng.integers(2, 7))]), None
        lists += 1


def _record(cone):
    return None if cone is None else bits([*cone.exit_scalars, cone.psi])


def test_enclosure_is_the_reference_to_the_bit():
    """_enclosure and its fold _covering_cap give _reference_enclosure's
    region and cover to the bit, None past the covering limit alike, on
    20,000 seeded lists (_enclosure_lists)."""
    rng = np.random.default_rng(351)
    seen = set()
    for cones, distinct in _enclosure_lists(rng):
        cover = _covering_cap(cones)
        ref = _reference_covering_cap([(k.exit_scalars[4:7], k.psi)
                                       for k in cones])
        assert (cover is None) is (ref is None)
        if cover is not None:
            assert bits([*cover[0], cover[1]]) == bits([*ref[0], ref[1]])
        got, err = _failure(_enclosure, cones, distinct)
        want, want_err = _failure(_reference_enclosure, cones, distinct)
        assert (_record(got), err) == (_record(want), want_err)
        seen.add((distinct is not None, cover is None, got is None))
    assert {(True, False, False), (False, False, False), (False, True, True),
            (False, False, True)} <= seen


# -- the contact predicates: the lazy and one-test paths against the
# eager ones


WINDOW = DEFAULT_TOLERANCES.degenerate_window


def _reference_hull_gap(n1, psi1, q, n2, c2, s2):
    """_hull_gap as it was, through spherical's unit, dot and cross."""
    psi2 = math.atan2(s2, c2)
    gap = angle(n1, n2) - psi2
    if gap <= 0.0:
        return -psi1, n1
    x = turn(n2, n1, psi2)
    if q is None:
        return gap - psi1, x
    big_q = unit(q)
    u = turn(big_q, n2, 0.5 * math.pi)
    sin_d, cos_d = dot(n2, u), dot(n2, big_q)
    if math.atan2(sin_d, cos_d) <= psi2:
        return gap - psi1, x
    if sin_d <= 0.0:
        return -psi1, n1
    root = math.sqrt(max(0.0, (sin_d - s2) * (sin_d + s2)))
    sb, cb = min(1.0, s2 / sin_d), root / sin_d
    reach = math.atan2(root, cos_d) if c2 > 0.0 else math.pi
    v = cross(big_q, u)
    if dot(n1, v) < 0.0:
        v = [-a for a in v]
    pq, pu, pv = dot(n1, big_q), dot(n1, u), dot(n1, v)
    po, pe = cb * pv - sb * pu, cb * pu + sb * pv
    rho = math.atan2(math.hypot(pu, pv), pq)
    if po <= 0.0 and rho <= reach:
        return -psi1, n1
    foot = math.atan2(pe, pq)
    edge = rho if foot < 0.0 else math.atan2(abs(po), math.hypot(pe, pq))
    if foot <= reach and edge < gap:
        gap, x = edge, (big_q if foot < 0.0 else unit(
            [pq * a + pe * (cb * b + sb * c) for a, b, c in zip(big_q, u, v)]))
    return gap - psi1, x


def _reference_overlap(k1, k2, m, q, inner):
    """_overlap as it was: after the seeded level, the level 1.5 times it
    is tested for a shared apex too, and the gap is _reference_hull_gap."""
    def meets(t):
        caps = cone_module._caps(k1, k2, t, m)
        if caps is None or inner > t:
            return None if caps is None else (caps, None)
        hit = _reference_hull_gap(caps[0], caps[1], q, *caps[2:])
        return (caps, hit) if hit[0] < 0.0 else None

    lo, hi = WINDOW, min(1.0 - k1.exit_scalars[7], 1.0 - k2.exit_scalars[7])
    seed = cone_module._lens_depth(k1, k2) / 1.2
    found = meets(seed) if lo < seed < hi else None
    if found is None:
        found, mid = meets(lo) if lo < hi else None, math.sqrt(lo * hi)
    else:
        lo, mid = seed, 1.5 * seed
    depth = -math.inf
    while found is not None and hi > 1.5 * lo:
        hit = meets(mid)
        lo, hi, found = (lo, mid, found) if hit is None else (mid, hi, hit)
        mid = math.sqrt(lo * hi)
    if found is not None:
        (n1, psi1, n2, c2, s2), hit = found
        d = n1 if hit is None else turn(
            hit[1], n2, min(-0.5 * hit[0], 0.5 * angle(hit[1], n2)))
        lo, hi = cone_module._chord(q or (0.0, 0.0, 0.0), n2, c2, d)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        p = _act(_inverse(m), [0.5 * (lo + hi) * a for a in d])
        if lo < hi and dot(p, p) < 1.0:
            depth = min(k1.margin(p), k2.margin(p))
    if depth <= WINDOW:
        raise DegenerateGeometry(
            "cones meet only within the degenerate window; perturb inputs")
    return DisjointResult(False, -depth, np.array(p))


def _reference_disjoint(monkeypatch, k1, k2):
    """disjoint on _reference_overlap and _reference_hull_gap."""
    with monkeypatch.context() as patch:
        patch.setattr(cone_module, "_overlap", _reference_overlap)
        patch.setattr(cone_module, "_hull_gap", _reference_hull_gap)
        return _contact_outcome(disjoint, k1, k2)


def _reference_cone_hyperball_disjoint(cone, ball):
    """cone_hyperball_disjoint as it was: the frame image of the centre,
    the nearest cone point and the direction away from it formed before
    either branch."""
    tau, radius, center = ball.shell.tau, ball.radius, ball.center._t
    dist, inside = _frame_clearance(cone, center, tau)
    margin = -(dist + radius) if inside else dist - radius
    if abs(margin) <= WINDOW:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    n = (nx, ny, nz)
    c = _act(m, center)
    start, ahead = c, [-a for a in c]
    if not inside:
        start = (0.0, 0.0, 0.0)
        if angle(c, n) - psi < 0.5 * math.pi:
            b = turn(n, c, psi)
            start = [dot(c, b) * a for a in b]
            ahead = [-a for a in turn(n, c, psi + 0.5 * math.pi)]
    if margin > 0.0:
        def separation():
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


def _reference_inclusion(ball, cone):
    """hyperball_in_cone's answer and margin, from _frame_clearance."""
    boundary, inside = _frame_clearance(cone, ball.center._t, ball.shell.tau)
    margin = boundary - ball.radius if inside else -(boundary + ball.radius)
    if abs(boundary - ball.radius) <= WINDOW:
        raise DegenerateGeometry(
            "ball touches the cone boundary within the window")
    return inside and boundary > ball.radius, bits([margin])


def _contact_outcome(fn, *args):
    """A predicate's outcome as plain data: its error's type and message,
    or its answer and margin bytes, and for a DisjointResult the bytes of
    the common point and of the plane, read here for the first time."""
    try:
        r = fn(*args)
    except (ValueError, DegenerateGeometry) as err:
        return type(err), str(err)
    if isinstance(r, tuple):  # a reference's outcome
        return r
    if not isinstance(r, DisjointResult):
        return r.holds, bits([r.margin])
    plane = r.plane
    return (r.disjoint, bits([r.margin]),
            None if r.common_point is None else r.common_point.tobytes(),
            None if plane is None else plane[0].tobytes() + bits(plane[1:]))


# The contact draws take their floats from random.Random, whose draws cost
# a small share of numpy's one at a time.


def _unit_draw(rnd):
    return unit([rnd.gauss(0.0, 1.0) for _ in range(3)])


def _frame(rnd):
    """16 floats of a rotation after a boost of rapidity up to 3."""
    return _compose(_rotation(_unit_draw(rnd), rnd.uniform(-3.0, 3.0)),
                    _boost(_unit_draw(rnd), rnd.uniform(-3.0, 3.0)))


def _signed_gap(rnd, overlap=0.5):
    """A gap log-uniform in [1e-10, 1], negative with chance `overlap`."""
    return math.copysign(10.0 ** rnd.uniform(-10.0, 0.0),
                         rnd.random() - overlap)


def _free_cone(rnd):
    """A cone with its apex out to 0.9 and half-angle 0.12 to 1.4."""
    while True:
        try:
            return _cone([rnd.uniform(0.0, 0.9) * x for x in _unit_draw(rnd)],
                         _unit_draw(rnd), rnd.uniform(0.12, 1.4))
        except ValueError:
            continue


def _contact_pair(rnd, kind):
    """A seeded cone pair of one kind: 0 and 1 a shared apex out to 1 -
    1e-12 from the sphere, caps a signed gap apart in its frame (mostly
    overlapping); 2 a mirror pair a signed gap from contact; 3 nested
    cones; 4 independent ones. Each is moved by a frame of rapidity up to
    3. ValueError when a cone is refused."""
    if kind < 2:
        psi1, psi2 = rnd.uniform(0.05, 1.5), rnd.uniform(0.05, 1.5)
        n1 = _unit_draw(rnd)
        gamma = min(psi1 + psi2 + _signed_gap(rnd, 0.8), math.pi)
        n2 = turn(n1, _unit_draw(rnd), gamma)
        r = 1.0 - 10.0 ** rnd.uniform(-12.0, 0.0)
        m = _compose(_frame(rnd), _inverse(apex_matrix(
            *(r * x for x in _unit_draw(rnd)))))
        pair = (_cone((0.0, 0.0, 0.0), n1, psi1),
                _cone((0.0, 0.0, 0.0), n2, psi2))
    elif kind == 2:  # the hull reaches x = g through its cap, then mirrored
        psi = rnd.uniform(0.2, 1.0)
        ax, depth = -rnd.uniform(0.05, 0.4), rnd.uniform(0.0, 0.4)
        az = rnd.uniform(0.0, 2.0 * math.pi)
        theta = psi + math.acos(0.1 * _signed_gap(rnd))
        v = (math.cos(az), math.sin(az))
        axis = (math.cos(theta), *(math.sin(theta) * x for x in v))
        apex = (ax, *(-depth * x for x in v))
        pair = (_cone(apex, axis, psi),
                _cone((-apex[0], *apex[1:]), (-axis[0], *axis[1:]), psi))
        m = _frame(rnd)
    elif kind == 3:  # the same cap about a deeper apex, or a nearby cap
        a = _free_cone(rnd)
        s = a.exit_scalars
        apex = [x - rnd.uniform(0.0, 0.3) * n for x, n in zip(s[:3], s[4:7])]
        axis = turn(s[4:7], _unit_draw(rnd), 10.0 ** rnd.uniform(-10.0, 0.0))
        pair = a, _cone(apex, axis, a.psi + 0.1 * _signed_gap(rnd))
        m = _frame(rnd)
    else:
        pair, m = (_free_cone(rnd), _free_cone(rnd)), _frame(rnd)
    return tuple(_map(m, cone) for cone in pair)


def _contact_ball(rnd, cone):
    """A metric ball on a shell of tau in [0.5, 2] whose radius is its
    centre's distance to the cone's boundary shifted by a signed gap, or
    free; the centre is anywhere out to 1 - 1e-6 from the sphere."""
    tau = rnd.uniform(0.5, 2.0)
    c = [rnd.uniform(0.0, 1.0 - 1e-6) * x for x in _unit_draw(rnd)]
    radius = _frame_clearance(cone, c, tau)[0] + _signed_gap(rnd) * tau
    if rnd.random() < 0.3 or not radius > 0.0:
        radius = tau * 10.0 ** rnd.uniform(-3.0, 0.5)
    return Hyperball(Hyperboloid(tau), BallPoint._of(c), radius)


def test_hull_gap_keeps_the_bits():
    """_hull_gap's written-out unit, dot and cross are spherical's to the
    bit: the gap and the nearest point on 20,000 seeded inputs, q the
    origin, inside the cap's cone, across it, and anywhere."""
    rng = np.random.default_rng(349)
    branches = set()
    for k in range(2 * N):
        n1, n2 = _direction(rng), _direction(rng)
        psi1, psi2 = rng.uniform(0.01, 1.5, size=2)
        q = (None if k % 4 == 0 else _vector(rng) if k % 4 == 1
             else [rng.uniform(0.1, 2.0) * x for x in turn(
                 n2, _direction(rng), rng.uniform(0.0, math.pi))])
        args = (n1, psi1, q, n2, math.cos(psi2), math.sin(psi2))
        gap, x = _hull_gap(*args)
        ref_gap, ref_x = _reference_hull_gap(*args)
        assert bits([gap, *x]) == bits([ref_gap, *ref_x])
        branches.add((q is None, gap == -psi1, x is n1))
    assert len(branches) >= 4


def test_contact_predicates_keep_every_bit(monkeypatch):
    """disjoint, cone_leq, hyperball_in_cone and cone_hyperball_disjoint
    give the eager references' answers, errors, margins, common points and
    planes, to the bit, on 50,000 seeded draws of a cone pair and a ball
    (_contact_pair, _contact_ball)."""
    rnd = random.Random(350)
    draws, k, seen, shared = 0, 0, set(), 0
    while draws < 5 * N:
        k += 1
        try:
            pair = _contact_pair(rnd, k % 5)
        except ValueError:
            continue
        draws += 1
        a, b = pair if k // 5 % 2 else pair[::-1]
        got = _contact_outcome(disjoint, a, b)
        assert got == _reference_disjoint(monkeypatch, a, b)
        seen.add(("disjoint", k % 5, got[0]))
        shared += k % 5 < 2 and got[0] is False
        holds, cap_margin, apex_margin = _leq(a, b)
        result = cone_leq(a, b)
        assert (result.holds, bits([result.cap_margin, result.apex_margin])
                ) == (holds, bits([cap_margin, apex_margin]))
        seen.add(("leq", holds))
        ball = _contact_ball(rnd, a)
        assert _contact_outcome(hyperball_in_cone, ball, a) == \
            _contact_outcome(_reference_inclusion, ball, a)
        got = _contact_outcome(cone_hyperball_disjoint, a, ball)
        assert got == _contact_outcome(_reference_cone_hyperball_disjoint,
                                       a, ball)
        seen.add(("ball", got[0]))
    assert shared > 5_000
    assert {("ball", True), ("ball", False), ("ball", DegenerateGeometry),
            ("leq", True), ("leq", False)} <= seen
    for kind in range(5):
        assert {("disjoint", kind, True), ("disjoint", kind, False)} <= seen
