"""Constructive geometry on cap-based cones.

Builders for funnels (decreasing cone sequences), interpolation paths with
common-subcone witnesses, complement cones, cross-shell enclosures,
contracting boost families, and translation-robust enclosures.  Every
builder certifies its output with the predicates from ``hypercones.cones``
— a code path independent of the construction itself — and raises
``ConstructionFailure`` instead of returning an unverified witness. The
certificates are exact: cone order, disjointness, ball clearance and the
closed-form clearance of one cone inside another (``_cone_clearance``) for
the cross-shell shadows, and for the translated completion
(``translate_enclosure``) the same tangent-plane closed form on shifted
shadows (``_plane_margin``). No construction draws random points or
scans a fixed direction sample: the base-circle point farthest from a
ball (``_steer_target``), the cap of rays from an apex through a ball
(``wrap_ball_in_complement``) and the direction clearest of two caps
(``_clearest_direction``) are closed forms.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .ball_model import (BallPoint, Cap, SphereDirection, _act, _cap_seen,
                         _inverse, apex_matrix, ray_exits, shadow_radius)
from .cones import (BallCone, Hyperball, _cone_clearance, _plane_margin,
                    _covering_cap, _frame_clearance, _line_entry,
                    cone_hyperball_disjoint, cone_leq, disjoint,
                    hyperball_in_cone, map_cone, opposite)
from .config import DEFAULT_TOLERANCES
from .errors import ConstructionFailure, DegenerateGeometry
from .minkowski import FourVector, LorentzTransform
from .spherical import (angle_between, dot, orthonormal_frame, rotate_toward,
                        slerp, unit)

__all__ = [
    "Funnel", "ConePath", "ContractingBoosts",
    "funnel_in", "funnel_from_exhaustion", "avoid_ball_inside",
    "wrap_ball_in_complement", "path_connect", "path_connect_in_complement",
    "shrink_for_connectivity", "common_complement_cone", "enclose_shadow",
    "shrink_across_shells", "contracting_boosts", "escape_ball",
    "robust_enclosure_lorentz", "translate_enclosure",
    "lightray_offset", "lightray_point", "interval_expansion",
]


# --------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class Funnel:
    """Decreasing sequence of cones; when built against a probe ball, the
    last member's hull is disjoint from the probe's hull."""
    cones: tuple[BallCone, ...]
    depth: int
    probe: Hyperball | None = None


@dataclass(frozen=True)
class ConePath:
    """Cone sequence where every adjacent pair contains a common subcone."""
    nodes: tuple[BallCone, ...]
    witnesses: tuple[BallCone, ...]


@dataclass(frozen=True)
class ContractingBoosts:
    """Open family of directions together with a boost factory; for every
    admissible direction l and rapidity chi > 0 the produced transform maps
    the source cone strictly into itself, monotonically in chi."""
    directions: tuple[SphereDirection, ...]
    half_angle: float
    boost_maker: Callable[[SphereDirection, float], LorentzTransform] = \
        field(repr=False)


# --------------------------------------------------------------------------
# shared helpers


# chord levels or halvings a construction tries before it gives up
_SEARCH_ROUNDS = 60


def _require(condition: bool, message: str,
             failing_index: int | None = None) -> None:
    if not condition:
        raise ConstructionFailure(message, failing_index=failing_index)


def _is_disjoint(a: BallCone, b: BallCone) -> bool:
    """Disjointness as a boolean search primitive: contact inside the
    degenerate window counts as not-yet-separated."""
    try:
        return bool(disjoint(a, b))
    except DegenerateGeometry:
        return False


def _ball_clear(cone: BallCone, ball: Hyperball) -> bool:
    try:
        return bool(cone_hyperball_disjoint(cone, ball))
    except DegenerateGeometry:
        return False


def _chord_levels(cone: BallCone, target: np.ndarray,
                  count: int) -> Iterator[BallCone]:
    """Nested cones marching along the chord from the apex to a point of the
    base circle, caps internally tangent at the target, yielded one at a
    time, so a search builds only the levels it tests.

    Level n halves both the cap opening (floored) and the remaining chord;
    the sequence stops early when the apex would get too close to the cap
    plane to define a cone.
    """
    apex0, axis0 = cone.apex.v, cone.base.axis.v
    psi0 = cone.base.half_angle
    chord = target - apex0
    for n in range(1, count + 1):
        shrink = 0.5 ** n
        psi = max(psi0 * shrink, 1e-7)
        axis = rotate_toward(axis0, target, psi0 - psi)
        apex = target - shrink * chord
        validity = shrink * float(axis @ chord)
        if validity <= 10.0 * DEFAULT_TOLERANCES.pointedness:
            return
        yield BallCone(BallPoint(apex),
                       Cap(SphereDirection.normalized(axis), psi))


def _steer_target(cone: BallCone, away_from: np.ndarray) -> np.ndarray:
    """Base-circle point farthest from a point q to be avoided, in closed
    form: a circle point p = cos psi n + sin psi e has |p - q|^2 =
    1 + |q|^2 - 2 p.q, largest when e points against q's offset from the
    axis n. An on-axis q is equally far from every circle point."""
    n = cone.base.axis.v
    psi = cone.base.half_angle
    offset = away_from - float(away_from @ n) * n
    size = float(np.linalg.norm(offset))
    e = -offset / size if size >= 1e-12 else orthonormal_frame(n)[0]
    return math.cos(psi) * n + math.sin(psi) * e


def _cap_fits(psi: float, height: float) -> bool:
    """Whether a cap of half-angle psi stays clear of the covering limit
    and an apex at `height` along its axis sits clearly below its
    base-circle plane."""
    return (psi < math.pi - DEFAULT_TOLERANCES.cap_limit
            and height < math.cos(psi) - 10.0 * DEFAULT_TOLERANCES.pointedness)


def _thin_cone(direction: np.ndarray, half_angle: float,
               depth: float) -> BallCone | None:
    """Cone with near-sphere apex (1-depth)*direction and cap around the
    direction; None when the parameters cannot define a cone."""
    if depth <= 1.0 - math.cos(half_angle) + 1e-9 or depth >= 1.0:
        return None
    return BallCone(BallPoint((1.0 - depth) * direction),
                    Cap(SphereDirection.normalized(direction), half_angle))


# --------------------------------------------------------------------------
# funnels


def funnel_in(cone: BallCone, depth: int, probe: Hyperball) -> Funnel:
    """Decreasing sequence of `depth` cones inside `cone` whose last member
    has a hull disjoint from the probe ball's hull.

    The sequence collapses toward a base-circle point steered away from the
    probe; since the probe is compactly inside the ball while the limit
    point lies on the sphere, separation is always reached at finite depth.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    target = _steer_target(cone, probe.center.v)
    # levels up to the first clear one, and at least `depth` of them
    levels, cleared = [], None
    for level in _chord_levels(cone, target, max(depth, _SEARCH_ROUNDS)):
        if cleared is None and _ball_clear(level, probe):
            cleared = len(levels)
        levels.append(level)
        if cleared is not None and len(levels) >= depth:
            break
    _require(bool(levels), "no valid shrinking levels inside the cone")
    _require(cleared is not None,
             "collapsing levels never separated from the probe ball")
    if cleared + 1 <= depth:
        chosen = levels[:depth]
        if len(chosen) < depth:  # validity stopped the march early
            chosen = chosen + [chosen[-1]] * (depth - len(chosen))
    else:
        chosen = levels[cleared - depth + 1: cleared + 1]
    _require(bool(cone_leq(chosen[0], cone)),
             "first funnel member is not inside the source cone", 0)
    for i in range(len(chosen) - 1):
        _require(bool(cone_leq(chosen[i + 1], chosen[i])),
                 "funnel members are not decreasing", i)
    _require(_ball_clear(chosen[-1], probe),
             "last funnel member still meets the probe ball",
             len(chosen) - 1)
    return Funnel(tuple(chosen), len(chosen), probe)


def funnel_from_exhaustion(cones: Sequence[BallCone]) -> Funnel:
    """Decreasing funnel of subcones of the opposites of an increasing
    sequence.

    Each opposite is disjoint from its own source cone. The raw opposites
    of an increasing sequence need not decrease once the apexes differ: a
    deeper, wider source can have a slightly wider opposite cap. So the
    funnel is built member by member. Member 0 is the opposite of the first
    source; member i+1 is the opposite of source i+1 when that already lies
    in member i, and otherwise the same apex over the largest cap inside
    the lens where its cap meets member i's cap. Every member is thus a
    subcone of its source's opposite and stays disjoint from that source.

    Raises ConstructionFailure when a lens is empty, when a clipped member
    still fails to lie in its predecessor (its apex is outside), or when a
    member meets its source.
    """
    members = tuple(cones)
    if not members:
        raise ValueError("need at least one cone")
    for i in range(len(members) - 1):
        if not cone_leq(members[i], members[i + 1]):
            raise ValueError(f"input sequence is not increasing at index {i}")
    funnel = [opposite(members[0])]
    for i, src in enumerate(members[1:]):
        prev = funnel[-1]
        opp = opposite(src)
        if not cone_leq(opp, prev):
            lens = _lens_cap(opp.base, prev.base)
            _require(lens is not None,
                     "opposite cap misses its predecessor's cap", i)
            opp = BallCone(opp.apex, lens)
            _require(bool(cone_leq(opp, prev)),
                     "clipped opposite cone is not inside its predecessor",
                     i)
        funnel.append(opp)
    for i, (vis, src) in enumerate(zip(funnel, members)):
        _require(_is_disjoint(vis, src),
                 "opposite cone meets its source cone", i)
    return Funnel(tuple(funnel), len(funnel), None)


def _lens_cap(a: Cap, b: Cap) -> Cap | None:
    """Largest cap inside both caps, or None when they do not overlap.

    Along the great circle from a's axis toward b's, the lens spans the
    arc [max(-psi_a, gamma - psi_b), min(psi_a, gamma + psi_b)]; the cap
    on that arc as a diameter lies in both caps.
    """
    gamma = angle_between(a.axis.v, b.axis.v)
    lo = max(-a.half_angle, gamma - b.half_angle)
    hi = min(a.half_angle, gamma + b.half_angle)
    if hi <= lo:
        return None
    axis = rotate_toward(a.axis.v, b.axis.v, 0.5 * (lo + hi))
    return Cap(SphereDirection.normalized(axis), 0.5 * (hi - lo))


# --------------------------------------------------------------------------
# dodging and wrapping balls


def avoid_ball_inside(ball: Hyperball, cone: BallCone) -> BallCone:
    """Subcone of `cone` whose hull avoids the ball's hull.

    Marches the apex along a chord toward the base circle, steered away
    from the ball, until the hulls separate.
    """
    target = _steer_target(cone, ball.center.v)
    for i, level in enumerate(_chord_levels(cone, target, _SEARCH_ROUNDS)):
        if _ball_clear(level, ball):
            _require(bool(cone_leq(level, cone)),
                     "separated level escaped the source cone", i)
            return level
    raise ConstructionFailure(
        "no chord level separated from the ball before the apex march "
        "exhausted its validity range")


def wrap_ball_in_complement(ball: Hyperball, cone: BallCone) -> BallCone:
    """Cone containing the ball while staying disjoint from `cone`.

    Requires the ball's hull disjoint from the cone's hull.  The apex is
    placed on the separating plane delivered by that disjointness. In the
    apex's own frame (ball_model.apex_matrix) the ball is a metric ball of
    radius rho = radius/tau about c', at distance r = atanh|c'| from the
    origin, and the rays from the origin that meet it are exactly those
    within A = asin(sinh rho / sinh r) of c': the right-angled triangle
    relation sinh a = sinh c sin A (Beardon, The Geometry of Discrete
    Groups, ch. 7). The cap about c' of half-angle A plus a pad is carried
    back by the inverse frame (ball_model._cap_seen).
    """
    sep = cone_hyperball_disjoint(cone, ball)
    if not sep.disjoint:
        raise ValueError("ball must be disjoint from the cone")
    w, c = sep.plane  # cone on the positive side
    rho = ball.radius / ball.shell.tau
    # the ball's Euclidean centre u (1 - r0^2) / (1 - |u|^2 r0^2), r0 =
    # tanh rho, in the operations of convex's spheroid: A4 keeps its bits
    a, r0 = float(np.linalg.norm(ball.center.v)), math.tanh(rho)
    ch = 1.0 / math.sqrt(1.0 - a * a)
    sh = a * ch
    mid = (sh * ch * (1.0 - r0 * r0) * (1.0 / (ch * ch - sh * sh * r0 * r0))
           * (ball.center.v / a) if a > 0.0 else np.zeros(3))
    proj = mid - (float(w @ mid) - c) * w
    candidates = [proj, 0.5 * (proj + c * w), c * w]
    for apex in candidates:
        if np.linalg.norm(apex) >= 1.0 - 1e-9:
            continue
        m = apex_matrix(*apex.tolist())
        seen = _act(m, ball.center.v.tolist())
        r = math.atanh(math.sqrt(dot(seen, seen)))
        if r <= rho:
            continue
        axis, back = unit(seen), _inverse(m)
        reach = math.asin(math.sinh(rho) / math.sinh(r))
        for pad in (0.02, 0.05, 0.12, 0.25):
            half = reach + pad
            if half >= 0.5 * math.pi:
                continue
            n, cos_a, sin_a = _cap_seen(back, axis, math.cos(half),
                                        math.sin(half))
            cap = Cap(SphereDirection(n), math.atan2(sin_a, cos_a))
            if not _cap_fits(cap.half_angle, float(cap.axis.v @ apex)):
                continue
            region = BallCone(BallPoint(apex), cap)
            try:
                inside = hyperball_in_cone(ball, region)
                clear = disjoint(region, cone)
            except DegenerateGeometry:
                continue
            if inside.holds and clear.disjoint:
                return region
    raise ConstructionFailure(
        "no cap-based cone over the ball stayed disjoint from the cone; "
        "the ball may be too eccentric from every admissible apex")


# --------------------------------------------------------------------------
# interpolation paths


def _common_subcone(a: BallCone, b: BallCone) -> BallCone | None:
    """Cone inside both inputs, certified by cone_leq against each, or
    None when their caps barely overlap.

    The witness has the cap of half-angle psi_w = 0.6 mu about the axis m
    of the largest cap in both caps (_lens_cap, of half-angle mu) and the
    apex r m, with r midway between the later entry of the line along m
    into the two closed hulls (_line_entry) and cos psi_w, below which the
    cone is pointed. For caps narrower than a right angle the entries are
    below cos psi_w: the line crosses each base disc at r = cos psi /
    cos(psi - mu) or lower.
    """
    lens = _lens_cap(a.base, b.base)
    if lens is None or lens.half_angle <= 1e-6:
        return None
    m, psi_w = lens.axis.v, 0.6 * lens.half_angle
    d = m.tolist()
    lo = max(_line_entry(a, d), _line_entry(b, d))
    hi = math.cos(psi_w) - 1e-9
    if lo >= hi:
        return None
    witness = BallCone(BallPoint(0.5 * (lo + hi) * m), Cap(lens.axis, psi_w))
    if cone_leq(witness, a) and cone_leq(witness, b):
        return witness
    return None


def _blend_cone(a: BallCone, b: BallCone, t: float) -> BallCone:
    """Apex, axis and opening interpolated at t. A blended apex on or
    above the blended base plane moves straight toward the axis point at
    height h = (cos psi - 1)/2, which lies in the ball below the plane,
    until its height is a fifth of the way from the plane down to h."""
    axis = slerp(a.base.axis.v, b.base.axis.v, t)
    psi = (1.0 - t) * a.base.half_angle + t * b.base.half_angle
    apex = (1.0 - t) * a.apex.v + t * b.apex.v
    height, top = float(axis @ apex), math.cos(psi)
    if height >= top - 1e-9:
        h = 0.5 * (top - 1.0)
        goal = top - 0.2 * (top - h)
        apex = apex + (height - goal) / (height - h) * (h * axis - apex)
    return BallCone(BallPoint(apex),
                    Cap(SphereDirection.normalized(axis), psi))


def _same_cone(a: BallCone, b: BallCone) -> bool:
    return (np.allclose(a.apex.v, b.apex.v, atol=1e-14)
            and np.allclose(a.base.axis.v, b.base.axis.v, atol=1e-14)
            and abs(a.base.half_angle - b.base.half_angle) <= 1e-14)


def path_connect(cone_a: BallCone, cone_b: BallCone) -> ConePath:
    """Cone sequence from `cone_a` to `cone_b` where every adjacent pair
    shares a certified common subcone.

    Interpolates apex, axis, and opening jointly in n equal steps. The
    half-angles blend linearly, so the narrowest neighbours sum to 2 psi +
    |psi_a - psi_b| / n for psi the narrower end's, and n is the fewest
    steps that keep each step's turn gamma / n at least 0.1 psi below the
    sum: neighbouring caps overlap.
    """
    if _same_cone(cone_a, cone_b):
        return ConePath((cone_a,), ())
    gamma = angle_between(cone_a.base.axis.v, cone_b.base.axis.v)
    psi_a, psi_b = cone_a.base.half_angle, cone_b.base.half_angle
    n = max(1, math.ceil((gamma - abs(psi_a - psi_b))
                         / (1.9 * min(psi_a, psi_b))))
    nodes = [cone_a, *(_blend_cone(cone_a, cone_b, i / n)
                       for i in range(1, n)), cone_b]
    return _certified_path(nodes)


def _certified_path(nodes: list[BallCone],
                    forbidden: BallCone | None = None) -> ConePath:
    """The path through the nodes with a common subcone of each adjacent
    pair, each certified clear of the forbidden cone when one is given."""
    witnesses = []
    for i in range(len(nodes) - 1):
        w = _common_subcone(nodes[i], nodes[i + 1])
        _require(w is not None and (forbidden is None
                                    or _is_disjoint(forbidden, w)),
                 "adjacent nodes share no certified common subcone", i)
        witnesses.append(w)
    return ConePath(tuple(nodes), tuple(witnesses))


def path_connect_in_complement(forbidden: BallCone, cone_a: BallCone,
                               cone_b: BallCone) -> ConePath:
    """Cone path from `cone_a` to `cone_b` all of whose nodes and witnesses
    stay disjoint from the forbidden cone.

    Routes thin near-sphere cones around the forbidden cap in one pass:
    out along the meridian, across at a safe polar angle, and back down.
    A node at angle lat from the forbidden axis takes the half-angle w =
    min(0.7 (lat - psi_f), ceiling), a share of its gap to the forbidden
    cap, and its apex a pad below its base plane: for the forbidden apex
    q, pad = min(0.03, (1 - |q|)/4) and ceiling = min(0.6, acos(|q| + 2
    pad)), so that every node's apex lies farther out along its axis than
    q. Each leg is cut into equal steps of at most 0.8 of the narrowest
    width on it. Every node and witness is certified once, in the
    forbidden cone's cached apex frame. Both endpoints must be disjoint
    from the forbidden cone.
    """
    for c, name in ((cone_a, "first"), (cone_b, "second")):
        if not disjoint(forbidden, c).disjoint:
            raise ValueError(f"{name} endpoint is not disjoint from the "
                             "forbidden cone")
    if _same_cone(cone_a, cone_b):
        return ConePath((cone_a,), ())
    pole = forbidden.base.axis.v
    psi_f = forbidden.base.half_angle
    e1, e2 = orthonormal_frame(pole)
    ax_a, ax_b = cone_a.base.axis.v, cone_b.base.axis.v
    phi_a, phi_b = angle_between(ax_a, pole), angle_between(ax_b, pole)
    theta = min(max(phi_a, phi_b), math.pi - 0.02)

    def azimuth(d: np.ndarray, fallback: float) -> float:
        # an axis at a pole takes the fallback, the other endpoint's
        x, y = float(d @ e1), float(d @ e2)
        return math.atan2(y, x) if x * x + y * y >= 1e-20 else fallback

    az_a = azimuth(ax_a, azimuth(ax_b, 0.0))
    az_b = azimuth(ax_b, az_a)
    az_c = az_a + math.remainder(az_b - az_a, 2.0 * math.pi)

    reach = float(np.linalg.norm(forbidden.apex.v))
    pad = min(0.03, 0.25 * (1.0 - reach))
    ceiling = min(0.6, math.acos(reach + 2.0 * pad))

    def width(lat: float) -> float:
        return min(0.7 * (lat - psi_f), ceiling)

    def leg(lat0, lat1, az0, az1):
        # the stops after (lat0, az0) up to (lat1, az1) along a meridian or
        # a circle of latitude, none on a leg of zero length
        n = math.ceil(math.hypot(lat1 - lat0, (az1 - az0) * math.sin(lat0))
                      / (0.8 * width(min(lat0, lat1))))
        return [(lat0 + (lat1 - lat0) * i / n, az0 + (az1 - az0) * i / n)
                for i in range(1, n + 1)]

    stops = [(phi_a, az_a), *leg(phi_a, theta, az_a, az_a),
             *leg(theta, theta, az_a, az_c), *leg(theta, phi_b, az_b, az_b)]
    thin = []
    for lat, az in stops:
        w = width(lat)
        axis = math.cos(lat) * pole + math.sin(lat) * (math.cos(az) * e1
                                                      + math.sin(az) * e2)
        thin.append(_thin_cone(axis, w, 1.0 - math.cos(w) + pad))
        _require(thin[-1] is not None and _is_disjoint(forbidden, thin[-1]),
                 "route node meets the forbidden cone", len(thin))
    return _certified_path([cone_a, *thin, cone_b], forbidden)


# --------------------------------------------------------------------------
# complement constructions


def shrink_for_connectivity(cone_a: BallCone, cone_b: BallCone) -> BallCone:
    """Subcone of `cone_a` whose complement meshes with that of `cone_b`.

    When the caps are separated the result is additionally disjoint from
    `cone_b`; when they overlap the result sits inside both cones, so the
    two complements share a common complement family.
    """
    gamma = angle_between(cone_a.base.axis.v, cone_b.base.axis.v)
    total = cone_a.base.half_angle + cone_b.base.half_angle
    if abs(gamma - total) <= DEFAULT_TOLERANCES.degenerate_window:
        raise DegenerateGeometry("cap boundaries are tangent; perturb inputs")
    if gamma > total:
        target = _steer_target(cone_a, cone_b.base.axis.v)
        levels = _chord_levels(cone_a, target, _SEARCH_ROUNDS)
        for i, level in enumerate(levels):
            if _is_disjoint(level, cone_b):
                _require(bool(cone_leq(level, cone_a)),
                         "shrunken cone escaped its source", i)
                return level
        raise ConstructionFailure(
            "apex march never separated the shrunken cone from the second "
            "cone")
    sub = _common_subcone(cone_a, cone_b)
    _require(sub is not None,
             "cap overlap too thin to host a common subcone")
    return sub


def _clearest_direction(cap_a: Cap, cap_b: Cap) -> tuple[np.ndarray, float]:
    """Direction m with the largest angular clearance s from both closed
    caps, and s, in closed form.

    The directions at least s from the caps of half-angles psi_a, psi_b
    about a and b are the caps of radii pi - psi_a - s and pi - psi_b - s
    about -a and -b, and two caps meet exactly when their centres lie at
    most the sum of their radii apart (Ratcliffe, Foundations of
    Hyperbolic Manifolds, section 2.1). With gamma the angle between the
    axes, the largest s is min(pi - psi_a, pi - psi_b,
    pi - (psi_a + psi_b + gamma)/2), reached on the arc from -a toward -b
    where the two clearances balance, clipped to the arc.
    """
    a, b = cap_a.axis.v, cap_b.axis.v
    psi_a, psi_b = cap_a.half_angle, cap_b.half_angle
    gamma = angle_between(a, b)
    clear = min(math.pi - psi_a, math.pi - psi_b,
                math.pi - 0.5 * (psi_a + psi_b + gamma))
    t = min(max(0.5 * (gamma + psi_b - psi_a), 0.0), gamma)
    return rotate_toward(-a, -b, t), clear


def common_complement_cone(cone_a: BallCone, cone_b: BallCone) -> BallCone:
    """Cone disjoint from both inputs; the inputs must be disjoint.

    Aims a thin near-sphere cone at the direction with the largest angular
    clearance from both closed caps, found by the two-cap intersection
    closed form (_clearest_direction), and deepens its apex until both
    disjointness certificates hold.
    """
    if not disjoint(cone_a, cone_b).disjoint:
        raise ValueError("input cones must be disjoint")
    m, clear = _clearest_direction(cone_a.base, cone_b.base)
    _require(clear > 1e-6, "no direction clears both closed caps")
    psi = min(0.45 * clear, 0.2)
    for n_ in range(1, _SEARCH_ROUNDS + 1):
        witness = _thin_cone(m, psi, 0.5 ** n_)
        if witness is None:
            break
        if _is_disjoint(witness, cone_a) and _is_disjoint(witness, cone_b):
            return witness
    raise ConstructionFailure(
        "thin cone in the cleared direction never separated from both "
        "inputs")


# --------------------------------------------------------------------------
# cross-shell enclosures


def _grow_pad(cone: BallCone) -> BallCone:
    """Slightly enlarged copy: wider cap, apex pulled back along the axis
    so the source apex stays on the new cone's central ray."""
    psi = min(cone.base.half_angle + 0.01, math.pi - 2e-3)
    gap = 1.0 - 1e-6 - float(np.linalg.norm(cone.apex.v))
    delta = min(0.02, 0.5 * gap)
    apex = cone.apex.v - delta * cone.base.axis.v
    return BallCone(BallPoint(apex), Cap(cone.base.axis, psi))


def _shadow_inside(inner: BallCone, outer: BallCone, radius: float,
                   tau: float) -> bool:
    """Whether the metric ball of the given radius on shell `tau` about
    every point of `inner` lies inside `outer`: inner <= outer, and the
    exact clearance of inner from outer's boundary (_cone_clearance)
    exceeds the radius by more than the degenerate window. The clearance
    of inner's apex alone, a closed form, turns most ladder steps away
    first."""
    window = DEFAULT_TOLERANCES.degenerate_window
    return (bool(cone_leq(inner, outer))
            and _frame_clearance(outer, inner.apex.v.tolist(), tau)[0] - radius
            > window
            and _cone_clearance(inner, outer, tau) - radius > window)


def enclose_shadow(cone: BallCone, sigma: float, tau: float) -> BallCone:
    """Cone on shell `tau` containing the causal shadow of a cone region
    living on shell `sigma`.

    The shadow is the metric thickening of the region by the cross-shell
    shadow radius; near the sphere the thickening collapses, so a padded
    cap with a pulled-back apex always suffices. The ladder of paddings
    and apex depths stops at the first region whose exact clearance from
    the source cone exceeds the radius (_shadow_inside), so the whole
    shadow, not a sample of it, is certified inside.
    """
    radius = shadow_radius(sigma, tau)
    if radius <= 1e-12 * tau:
        grown = _grow_pad(cone)
        _require(bool(cone_leq(cone, grown)),
                 "padded copy failed to contain the source cone")
        return grown
    axis = cone.base.axis.v
    for pad, rho in itertools.product((0.05, 0.12, 0.25, 0.45, 0.7,
                                       1.0, 1.35, 1.8, 2.2),
                                      (0.0, 0.3, 0.6, 0.85, 0.97,
                                       0.995, 0.9995)):
        psi = cone.base.half_angle + pad
        if not _cap_fits(psi, -rho):
            continue
        region = BallCone(BallPoint(-rho * axis),
                          Cap(cone.base.axis, psi))
        if _shadow_inside(cone, region, radius, tau):
            return region
    raise ConstructionFailure(
        "no padded cap enclosed the cross-shell shadow of the cone")


def shrink_across_shells(cone: BallCone, sigma: float, tau: float) -> BallCone:
    """Cone on shell `tau` sitting so deep inside `cone` that even its
    cross-shell shadow stays inside `cone`.

    Realized by a thin cone along the source axis with a near-sphere apex;
    points deep along the axis are metrically far from the source boundary.
    The first thin cone whose exact clearance from the source's boundary
    exceeds the shadow radius (_shadow_inside) is returned.
    """
    radius = shadow_radius(sigma, tau)
    if radius <= 1e-12 * tau:
        psi = max(cone.base.half_angle - 0.01, 0.5 * cone.base.half_angle)
        inner = BallCone(cone.apex, Cap(cone.base.axis, psi))
        _require(bool(cone_leq(inner, cone)),
                 "trimmed copy failed to stay inside the source cone")
        return inner
    axis = cone.base.axis.v
    psi0 = min(0.5 * cone.base.half_angle, 0.15)
    for j, n_ in itertools.product(range(4), range(1, 31)):
        witness = _thin_cone(axis, psi0 * (0.5 ** j), 0.5 ** n_)
        if witness is not None and _shadow_inside(witness, cone, radius, tau):
            return witness
    raise ConstructionFailure(
        "no thin axial cone kept its cross-shell shadow inside the source "
        "cone")


# --------------------------------------------------------------------------
# boosts and robustness


def contracting_boosts(cone: BallCone) -> ContractingBoosts:
    """Open direction family and boost factory contracting a cone into
    itself.

    After normalizing the apex to the center, every direction interior to
    the normalized cap works: boosts move all cap directions along great
    circles toward the boost direction, and a cap of opening below a right
    angle is geodesically convex.
    """
    frame, cap_n = cone.apex_frame
    frame_inv = frame.inverse()
    psi = cap_n.half_angle

    def maker(l: SphereDirection, chi: float) -> LorentzTransform:
        gap = angle_between(l.v, cap_n.axis.v)
        if gap >= psi * (1.0 - 1e-9):
            raise ValueError(
                "direction is not interior to the normalized cap")
        if chi < 0.0:
            raise ValueError("rapidity must be non-negative")
        return frame_inv @ LorentzTransform.boost(l.v, chi) @ frame

    ring = [rotate_toward(cap_n.axis.v, cap_n.boundary_point(th), 0.5 * psi)
            for th in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    directions = (SphereDirection(cap_n.axis.v),
                  *(SphereDirection.normalized(r) for r in ring))
    for d in directions[:3]:
        for chi in (0.5, 1.0, 2.0):
            mapped = map_cone(maker(d, chi), cone)
            _require(bool(cone_leq(mapped, cone)),
                     "boosted cone escaped the source cone")
    return ContractingBoosts(directions, psi, maker)


def escape_ball(cone: BallCone, ball: Hyperball, direction: SphereDirection,
                nmax: int) -> int:
    """Smallest boost count n <= nmax whose contraction of the cone clears
    the ball; the direction must be admissible for `contracting_boosts`.
    """
    family = contracting_boosts(cone)
    for n in range(nmax + 1):
        mapped = cone if n == 0 else map_cone(
            family.boost_maker(direction, float(n)), cone)
        if n > 0 and not cone_leq(mapped, cone):
            raise ConstructionFailure(
                "boosted cone escaped the source cone", failing_index=n)
        if _ball_clear(mapped, ball):
            return n
    raise ConstructionFailure(
        f"boosts up to {nmax} never cleared the ball")


def robust_enclosure_lorentz(cone: BallCone,
                             generators: Sequence[LorentzTransform]
                             ) -> BallCone:
    """Cone containing every image of `cone` under the generators, their
    inverses, and all products of two such factors.

    A finite surrogate for robustness under a neighborhood of the identity:
    the enclosure covers the sampled orbit with an explicit margin.
    """
    gens = list(generators)
    ring: list[LorentzTransform] = [LorentzTransform.identity()]
    for g in gens:
        ring.extend([g, g.inverse()])
    words = list(ring)
    words.extend(a @ b for a, b in itertools.product(ring, ring))
    images = [map_cone(w, cone) for w in words]
    caps = [img.base for img in images]
    cover = _covering_cap(caps, 0.0)
    if cover is None:
        raise ConstructionFailure(
            "no covering cap enclosed the sampled Lorentz orbit of the cone")
    axis = cover.axis.v
    cap_need = max(angle_between(axis, c.axis.v) + c.half_angle for c in caps)
    apexes = np.array([img.apex.v for img in images])
    for rho, pad in itertools.product(
            (0.3, 0.6, 0.85, 0.97, 0.995, 1.0 - 1e-4),
            (0.02, 0.05, 0.12, 0.25)):
        # the cap must also cover where rays from the candidate apex
        # through every image apex leave the sphere
        e = -rho * axis
        exits, _ = ray_exits(e, apexes)
        apex_need = float(np.max(np.arccos(np.clip(exits @ axis, -1.0,
                                                   1.0))))
        psi = max(cap_need, apex_need) + pad
        if not _cap_fits(psi, -rho):
            continue
        region = BallCone(BallPoint(e), Cap(cover.axis, psi))
        if all(cone_leq(img, region) for img in images):
            return region
    raise ConstructionFailure(
        "no covering cap enclosed the sampled Lorentz orbit of the cone")


# --------------------------------------------------------------------------
# translations across the light cone


def lightray_offset(u: float, tau: float) -> float:
    """Spatial offset profile of the shell's asymptotic light rays: the
    point at parameter u of the ray sits at radial distance
    tau*(1-u^2)/(2u) from the axis origin."""
    if u <= 0.0:
        raise ValueError("ray parameter must be positive")
    return tau * (1.0 - u * u) / (2.0 * u)


def lightray_point(u: float, tau: float,
                   direction: np.ndarray) -> FourVector:
    """Point at parameter u on the shell's asymptotic light ray toward a
    unit direction: time u*tau + v(u), position v(u)*direction."""
    v = lightray_offset(u, tau)
    d = np.asarray(direction, dtype=float).reshape(3)
    return FourVector.from_parts(u * tau + v, v * d)


def interval_expansion(u: float, u_prime: float, t: float,
                       direction_dot: float, tau: float) -> float:
    """Minkowski square of (a(u) + t*e0 - a'(u')) for points on opposite
    light rays, expanded into its five closed-form terms."""
    v = lightray_offset(u, tau)
    vp = lightray_offset(u_prime, tau)
    return (t * t + 2.0 * tau * tau + 2.0 * t * (u * tau + v)
            - 2.0 * (t + u * tau + v) * (u_prime * tau + vp)
            + 2.0 * v * vp * direction_dot)


def translate_enclosure(cone: BallCone, tau: float,
                        translations: Sequence[FourVector]) -> BallCone:
    """Cone whose causal completion swallows the source completion shifted
    by every given future-directed translation.

    In the source cone K's apex frame, a ladder of padded caps with
    pulled-back apexes is tried in order; a candidate R is accepted when
    K <= R and, for every translation t, every shifted lift y + t of a
    point y of K has its causal shadow inside R by more than the window:
    the tangent-plane margin of cones._plane_margin, exact over the whole
    cone. The apex bound, then the seeds, reject a step at once when they
    fall at or below the window.

    Lifts suffice, given K <= R. Take X in K's completion. If X lies
    above the shell, every past causal curve from X + t is a curve from X
    shifted by t, which crosses the shell inside K: the curve passes
    through a shifted lift z + t, whose completion membership sends it on
    into R. If X lies below the shell and X + t too, the shadow of X + t
    lies in the shadow of X, hence in K <= R. If X + t lies above the
    shell, the segment from X to X + t crosses the shell at a point z of
    X's shadow, so z lies in K and X + t <= z + t: X + t lies in the past
    of a member of R's completion, above the shell, and so is a member
    too (the domain-of-dependence argument; Hawking and Ellis, The Large
    Scale Structure of Space-Time, section 6.5).
    """
    trans = [t if isinstance(t, FourVector)
             else FourVector.from_array(np.asarray(t, dtype=float))
             for t in translations]
    eps = DEFAULT_TOLERANCES.linear_identity
    for i, t in enumerate(trans):
        if not np.all(np.isfinite(t.components)):
            raise ValueError(f"translation {i} has a non-finite component: "
                             f"{t.components.tolist()}")
        if t.x0 < float(np.linalg.norm(t.xs)) - eps:
            raise ValueError(
                f"translation {i} is not future-directed (closure of the "
                "forward cone)")
    # the frame sends the apex to the origin
    frame, cap_n = cone.apex_frame
    cone_n = BallCone(BallPoint(np.zeros(3)), cap_n)
    shifted = [frame.apply(t).components for t in trans]
    t_dom = max((s[0] + float(np.linalg.norm(s[1:])) for s in shifted),
                default=0.0)
    if t_dom <= 1e-14 * tau:
        grown = _grow_pad(cone)
        _require(bool(cone_leq(cone, grown)),
                 "padded copy failed to contain the source cone")
        return grown

    window = DEFAULT_TOLERANCES.degenerate_window
    axis_n = cap_n.axis.v
    for pad, rho in itertools.product(
            (0.05, 0.12, 0.25, 0.45, 0.7, 1.0, 1.35, 1.8, 2.2),
            (0.3, 0.6, 0.85, 0.97, 0.995, 0.9995)):
        psi = cap_n.half_angle + pad
        if not _cap_fits(psi, -rho):
            continue
        region_n = BallCone(BallPoint(-rho * axis_n), Cap(cap_n.axis, psi))
        if (all(_plane_margin(cone_n, region_n, tau, t, floor=window)
                > window for t in shifted)
                and cone_leq(cone_n, region_n)):
            return map_cone(frame.inverse(), region_n)
    raise ConstructionFailure(
        "no padded cap enclosed the translated completion's shadow")
