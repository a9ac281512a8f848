"""The plain-float kernels against the forms they were unrolled from.

Each kernel below does the same float operations in the same order as its
reference, so every result must match to the bit. Floats are compared as
their packed bytes, so a -0.0 where the reference gives 0.0 fails.
"""

import math
import struct

import numpy as np
import pytest

from hypercones.ball_model import (BallPoint, Cap, Hyperboloid,
                                   SphereDirection, _cap_seen, apex_matrix)
from hypercones.cones import (_LIGHT_BAND, BallCone, Hypercone, _cone,
                              _frame_clearance, _lead, _line_entry, _plane,
                              _plane_terms, in_causal_completion)
from hypercones.config import DEFAULT_TOLERANCES
from hypercones.errors import DegenerateGeometry
from hypercones.minkowski import (FourVector, LorentzTransform, _apply,
                                  _compose, _inverse)
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
    cap = object.__new__(Cap)
    vars(cap).update(axis=SphereDirection._of(scalars[4:7]),
                     half_angle=psi)
    cone = object.__new__(BallCone)
    vars(cone).update(apex=BallPoint._of(scalars[:3]), base=cap,
                      exit_scalars=scalars)
    return cone


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


def _outcome(build, apex, axis, psi):
    try:
        cone = build(apex, axis, psi)
    except ValueError as err:
        return None, str(err)
    assert cone.apex._a is None and cone.base.axis._a is None  # no arrays
    return cone, None


def test_cone_keeps_the_bits_checks_and_messages():
    rng = np.random.default_rng(345)
    messages = set()
    for k in range(N):
        apex, axis, psi = _cone_input(rng, k)
        got, err = _outcome(_cone, apex, axis, psi)
        ref, ref_err = _outcome(_reference_cone, apex, axis, psi)
        assert err == ref_err
        if err is not None:
            messages.add(err)
            continue
        assert list(vars(got)) == list(vars(ref))
        assert list(vars(got.base)) == list(vars(ref.base))
        assert bits(got.exit_scalars) == bits(ref.exit_scalars)
        assert bits([*got.apex._t, *got.base.axis._t, got.base.half_angle]) \
            == bits([*ref.apex._t, *ref.base.axis._t, ref.base.half_angle])
        if k % 100 == 0:  # the arrays are still built on first read
            assert np.array_equal(got.apex.v, ref.apex.v)
            assert not got.base.axis.v.flags.writeable
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


# -- LorentzTransform.boost and .inverse against their numpy bodies


def _reference_boost(direction, rapidity):
    n = np.asarray(direction, dtype=float).reshape(3)
    n = n / np.linalg.norm(n)
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
