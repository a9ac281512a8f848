"""Constructive geometry on cap-based cones.

Builders for funnels, interpolation paths with common-subcone witnesses,
complement cones, cross-shell enclosures, contracting boosts and
translation-robust enclosures. Every builder certifies its output with
the exact predicates of ``hypercones.cones`` (cone order, disjointness,
ball clearance, the clearance of one cone inside another) and raises
``ConstructionFailure`` rather than return an unverified witness. None
samples: the subcones and complements (A1, A3, A5-A8, A10) are axial
cones (``_axial_cone``) over a floor read in closed form from what they
must clear, aimed by closed forms (``_steer_target``, ``_lens_cap``,
``_clearest_direction``); the ball wrap (A4) is one cone from the foot
on the separating plane, its cap halfway in angle from the ball's rim to
that plane; the enclosures are one closed-form cone, in the apex frame
for the shadows (A9, A13: ``_shadow_enclosure``) and about the covering
axis for the orbit (A12: ``cones._enclosure``).

Witnesses are cones built from plain floats through ``cones._cone`` and
mapped through ``cones._map`` on 16-float matrices. They read apexes,
axes and half-angles from each cone's record (``exit_scalars``, ``psi``)
and the apex frame from ``apex_frame_scalars``, and take callers'
vectors through ``FourVector``, with no numpy. The contracting boosts
(A11, ``_frame_boost``) and the orbit words (A12) are 16-float products
(``_compose``); the orbit's products with the identity reuse their ring
member's image.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .ball_model import (SphereDirection, _act, _cap_seen, apex_matrix,
                         shadow_radius)
from .cones import (_CLEARANCE, _LINEAR, _WINDOW, BallCone, Hyperball,
                    _cap_fits, _cone, _enclosure, _leq, _line_entry, _map,
                    _plane_margin, cone_hyperball_disjoint, cone_leq,
                    disjoint, hyperball_in_cone, opposite)
from .errors import ConstructionFailure, DegenerateGeometry
from .minkowski import (FourVector, LorentzTransform, _apply, _boost,
                        _compose, _inverse)
from .spherical import angle, cross, dot, perpendicular, turn, unit

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


def _steer_target(cone: BallCone, away_from) -> list[float]:
    """Base-circle point farthest from a point q to be avoided, in closed
    form: a circle point p = cos psi n + sin psi e has |p - q|^2 =
    1 + |q|^2 - 2 p.q, largest when e points against q's offset from the
    axis n. An on-axis q is equally far from every circle point."""
    n, psi = cone.exit_scalars[4:7], cone.psi
    along = dot(away_from, n)
    offset = [q - along * a for q, a in zip(away_from, n)]
    size = math.sqrt(dot(offset, offset))
    e = [-a / size for a in offset] if size >= 1e-12 else perpendicular(n)
    return [math.cos(psi) * a + math.sin(psi) * b for a, b in zip(n, e)]


def _axial_cone(axis, psi: float, floor: float) -> BallCone | None:
    """Cone over the cap (axis, psi), axis three unit floats, with its apex
    on the axis midway between `floor` and the highest apex _cap_fits
    admits, or None. Its hull lies where x.axis exceeds the floor: clear
    of all below it, and inside any hull the axis line enters below it
    (cones._line_entry)."""
    if not _cap_fits(psi, floor):
        return None
    h = 0.5 * (floor + (math.cos(psi) - _CLEARANCE))
    return _cone([h * a for a in axis], axis, psi)


def _room(floor: float) -> float:
    """0.9 of the half-angle whose base circle would sink to `floor`."""
    return 0.9 * math.acos(min(floor, 1.0))


def _hull_support(cone: BallCone, m) -> float:
    """Largest x.m on the cone's closed hull: at its apex or its cap."""
    gap = angle(m, cone.exit_scalars[4:7]) - cone.psi
    return max(dot(cone.exit_scalars[:3], m), math.cos(max(0.0, gap)))


def _spheroid(ball: Hyperball) -> tuple[tuple, tuple, float, float]:
    """The ball's Euclidean image: centre, radial axis u, and semi-axes
    along and across u. Boosted out to |c| = a = sh/ch, the centred ball
    of radius r0 = tanh(radius/tau) has centre sh ch (1 - r0^2) d u and
    semi-axes r0 d and r0 sqrt(d), for d = 1/(ch^2 - sh^2 r0^2)."""
    r0 = math.tanh(ball.radius / ball.shell.tau)
    x, y, z = ball.center._t
    a = math.hypot(x, y, z)
    if a == 0.0:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), r0, r0
    ch = 1.0 / math.sqrt(1.0 - a * a)
    sh, axis = a * ch, (x / a, y / a, z / a)
    d = 1.0 / (ch * ch - sh * sh * r0 * r0)
    k = sh * ch * (1.0 - r0 * r0) * d
    return tuple(k * c for c in axis), axis, r0 * d, r0 * math.sqrt(d)


def _ball_support(ball: Hyperball, m) -> float:
    """Largest x.m on the ball's closed Euclidean image (_spheroid)."""
    mid, axis, along, across = _spheroid(ball)
    t = dot(axis, m)
    return dot(mid, m) + math.hypot(
        along * t, across * math.sqrt(max(0.0, 1.0 - t * t)))


# --------------------------------------------------------------------------
# funnels


def funnel_in(cone: BallCone, depth: int, probe: Hyperball) -> Funnel:
    """Decreasing sequence of `depth` cones inside `cone` whose last member
    has a hull disjoint from the probe ball's hull.

    Every member is an axial cone (_axial_cone) about m, halfway from the
    source axis to the base circle's point farthest from the probe
    (_steer_target). The last is floored at f, the larger of the line's
    entry e into the source (_line_entry) and the probe's reach along m
    (_ball_support), under min(0.3 psi, _room(f)); member i of n is i/n of
    the way there from (e, psi/2), the widest cap about m in the source's,
    so the caps narrow and the apexes rise strictly.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    psi0 = cone.psi
    d = unit(turn(cone.exit_scalars[4:7],
                  _steer_target(cone, probe.center._t), 0.5 * psi0))
    entry = _line_entry(cone, d)
    floor = max(entry, _ball_support(probe, d))
    wide, psi = 0.5 * psi0, min(0.3 * psi0, _room(floor))
    chain = [cone]
    for i in range(1, depth + 1):
        t = i / depth
        chain.append(_axial_cone(d, (1.0 - t) * wide + t * psi,
                                 (1.0 - t) * entry + t * floor))
        ok = chain[i] is not None and cone_leq(chain[i], chain[i - 1])
        _require(bool(ok), "funnel member escapes its predecessor", i - 1)
    _require(_ball_clear(chain[-1], probe),
             "last funnel member still meets the probe ball", depth - 1)
    return Funnel(tuple(chain[1:]), depth, probe)


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
            lens = _lens_cap(opp, prev)
            _require(lens is not None,
                     "opposite cap misses its predecessor's cap", i)
            opp = _cone(opp.exit_scalars[:3], *lens)
            _require(bool(cone_leq(opp, prev)),
                     "clipped opposite cone is not inside its predecessor",
                     i)
        funnel.append(opp)
    for i, (vis, src) in enumerate(zip(funnel, members)):
        _require(_is_disjoint(vis, src),
                 "opposite cone meets its source cone", i)
    return Funnel(tuple(funnel), len(funnel), None)


def _lens_cap(a: BallCone, b: BallCone) -> tuple | None:
    """Largest cap inside both cones' caps, as its axis (three floats) and
    half-angle, or None when they do not overlap.

    Along the great circle from a's axis toward b's, the lens spans the
    arc [max(-psi_a, gamma - psi_b), min(psi_a, gamma + psi_b)]; the cap
    on that arc as a diameter lies in both caps.
    """
    n_a, n_b = a.exit_scalars[4:7], b.exit_scalars[4:7]
    psi_a, psi_b = a.psi, b.psi
    gamma = angle(n_a, n_b)
    lo = max(-psi_a, gamma - psi_b)
    hi = min(psi_a, gamma + psi_b)
    if hi <= lo:
        return None
    return unit(turn(n_a, n_b, 0.5 * (lo + hi))), 0.5 * (hi - lo)


# --------------------------------------------------------------------------
# dodging and wrapping balls


def avoid_ball_inside(ball: Hyperball, cone: BallCone) -> BallCone:
    """Subcone of `cone` whose hull avoids the ball's hull: the one member
    of the depth-1 funnel against the ball (funnel_in), an axial cone
    whose apex sits above both the source's entry and the ball's image."""
    return funnel_in(cone, 1, ball).cones[0]


def wrap_ball_in_complement(ball: Hyperball, cone: BallCone) -> BallCone:
    """Cone containing the ball while staying disjoint from `cone`, built
    once in closed form from the foot F on the separating plane.

    Requires the ball (centre C, radius R) clear of the cone by D - R > 0,
    D the shell distance from C to the cone. That disjointness delivers a
    plane normal to the geodesic from C to the cone at (D + R)/2, the cone
    strictly beyond it. Seen from C (ball_model.apex_matrix) the plane is
    n.x = c' with c' > 0, with foot F = c' n; in F's frame it passes
    through the origin normal to C, at r = (D + R)/(2 tau). Rays from F
    meet the ball exactly within A = asin(sinh rho / sinh r) of C, rho =
    R/tau (sinh a = sinh c sin A in a right-angled triangle: Beardon, The
    Geometry of Discrete Groups, ch. 7). The wrap is the cap about C of
    half-angle h = (A + pi/2)/2, carried back by the inverse frame. It
    holds the ball by tau asinh(sinh r sin h) - R, near 3(D - R)/8 at
    contact, and lies on C's side of the plane, clear of the cone by at
    least pi/2 - h radians, near sqrt((D - R) coth(r) / tau)/2.
    """
    sep = cone_hyperball_disjoint(cone, ball)
    if not sep.disjoint:
        raise ValueError("ball must be disjoint from the cone")
    w, c = sep.plane  # cone on the positive side
    center = ball.center._t
    m = apex_matrix(*center)
    n, height, _ = _cap_seen(m, w.tolist(), c, math.sqrt(1.0 - c * c))
    foot = _act(_inverse(m), [height * a for a in n])
    frame = apex_matrix(*foot)
    seen = _act(frame, center)
    size = math.sqrt(dot(seen, seen))
    reach = math.asin(math.sinh(ball.radius / ball.shell.tau)
                      / math.sinh(math.atanh(size)))
    half = 0.5 * (reach + 0.5 * math.pi)
    axis, cos_a, sin_a = _cap_seen(_inverse(frame), [a / size for a in seen],
                                   math.cos(half), math.sin(half))
    psi = math.atan2(sin_a, cos_a)
    region = (_cone(foot, axis, psi) if _cap_fits(psi, dot(axis, foot))
              else None)
    try:
        ok = (region is not None and hyperball_in_cone(ball, region).holds
              and disjoint(region, cone).disjoint)
    except DegenerateGeometry:
        ok = False
    _require(ok, f"the ball clears the cone by only {sep.margin:.3g}; the "
                 "wrap's margins fall inside the window")
    return region


# --------------------------------------------------------------------------
# interpolation paths


def _common_subcone(a: BallCone, b: BallCone) -> BallCone | None:
    """Cone inside both inputs, certified by cone_leq against each, or
    None when their caps barely overlap.

    The witness is the axial cone (_axial_cone) over the cap of
    half-angle 0.6 mu about the axis m of the largest cap in both caps
    (_lens_cap, of half-angle mu), floored at the later entry of the line
    along m into the two closed hulls (_line_entry). For caps narrower
    than a right angle the entries are below cos(0.6 mu): the line crosses
    each base disc at r = cos psi / cos(psi - mu) or lower.
    """
    lens = _lens_cap(a, b)
    if lens is None or lens[1] <= 1e-6:
        return None
    d, mu = lens
    witness = _axial_cone(d, 0.6 * mu,
                          max(_line_entry(a, d), _line_entry(b, d)))
    if witness is not None and cone_leq(witness, a) and cone_leq(witness, b):
        return witness
    return None


def _blend_cone(a: BallCone, b: BallCone, t: float) -> BallCone:
    """Apex, axis and opening interpolated at t. A blended apex on or
    above the blended base plane moves straight toward the axis point at
    height h = (cos psi - 1)/2, which lies in the ball below the plane,
    until its height is a fifth of the way from the plane down to h."""
    n_a, n_b = a.exit_scalars[4:7], b.exit_scalars[4:7]
    axis = unit(turn(n_a, n_b, t * angle(n_a, n_b)))
    psi = (1.0 - t) * a.psi + t * b.psi
    apex = [(1.0 - t) * p + t * q
            for p, q in zip(a.exit_scalars[:3], b.exit_scalars[:3])]
    height = dot(axis, apex)
    if not _cap_fits(psi, height):
        top = math.cos(psi)
        h = 0.5 * (top - 1.0)
        s = (height - (top - 0.2 * (top - h))) / (height - h)
        apex = [p + s * (h * n - p) for p, n in zip(apex, axis)]
    return _cone(apex, axis, psi)


def _same_cone(a: BallCone, b: BallCone) -> bool:
    """Apexes, axes and half-angles equal to 1e-14, absolutely: a relative
    tolerance would merge cones whose apexes differ by 1e-5 of their
    size."""
    sa, sb = a.exit_scalars, b.exit_scalars
    return (all(abs(x - y) <= 1e-14
                for x, y in zip(sa[:3] + sa[4:7], sb[:3] + sb[4:7]))
            and abs(a.psi - b.psi) <= 1e-14)


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
    gamma = angle(cone_a.exit_scalars[4:7], cone_b.exit_scalars[4:7])
    psi_a, psi_b = cone_a.psi, cone_b.psi
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
    cap, and is the axial cone (_axial_cone) over the floor cos w - 2 pad
    + _CLEARANCE, its apex a pad below its base plane: for the forbidden
    apex q, pad = min(0.03, (1 - |q|)/4) and ceiling = min(0.6, acos(|q|
    + 2 pad)), so that every node's apex lies farther out along its axis
    than q. Each leg is cut into equal steps of at most 0.8 of the narrowest
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
    pole, psi_f = forbidden.exit_scalars[4:7], forbidden.psi
    e1 = perpendicular(pole)
    e2 = cross(pole, e1)
    ax_a, ax_b = cone_a.exit_scalars[4:7], cone_b.exit_scalars[4:7]
    phi_a, phi_b = angle(ax_a, pole), angle(ax_b, pole)
    theta = min(max(phi_a, phi_b), math.pi - 0.02)

    def azimuth(d, fallback: float) -> float:
        # an axis at a pole takes the fallback, the other endpoint's
        x, y = dot(d, e1), dot(d, e2)
        return math.atan2(y, x) if x * x + y * y >= 1e-20 else fallback

    az_a = azimuth(ax_a, azimuth(ax_b, 0.0))
    az_b = azimuth(ax_b, az_a)
    az_c = az_a + math.remainder(az_b - az_a, 2.0 * math.pi)

    reach = math.hypot(*forbidden.exit_scalars[:3])
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

    frame = list(zip(pole, e1, e2))
    stops = [(phi_a, az_a), *leg(phi_a, theta, az_a, az_a),
             *leg(theta, theta, az_a, az_c), *leg(theta, phi_b, az_b, az_b)]
    thin = []
    for lat, az in stops:
        w = width(lat)
        cl, sl, ca, sa = (math.cos(lat), math.sin(lat), math.cos(az),
                          math.sin(az))
        axis = [cl * p + sl * (ca * x + sa * y) for p, x, y in frame]
        thin.append(_axial_cone(axis, w, math.cos(w) - 2.0 * pad
                                + _CLEARANCE))
        _require(thin[-1] is not None and _is_disjoint(forbidden, thin[-1]),
                 "route node meets the forbidden cone", len(thin))
    return _certified_path([cone_a, *thin, cone_b], forbidden)


# --------------------------------------------------------------------------
# complement constructions


def shrink_for_connectivity(cone_a: BallCone, cone_b: BallCone) -> BallCone:
    """Subcone of `cone_a` whose complement meshes with that of `cone_b`.

    When the caps are separated the result is also disjoint from `cone_b`:
    the axial cone about a's axis n over the floor where the line along n
    enters a (_line_entry) and b's hull ends (_hull_support), under
    min(0.6 psi_a, _room(floor)). When they overlap the result sits inside
    both cones (_common_subcone), so the complements share a family.
    """
    gamma = angle(cone_a.exit_scalars[4:7], cone_b.exit_scalars[4:7])
    total = cone_a.psi + cone_b.psi
    if abs(gamma - total) <= _WINDOW:
        raise DegenerateGeometry("cap boundaries are tangent; perturb inputs")
    if gamma > total:
        d = cone_a.exit_scalars[4:7]
        floor = max(_line_entry(cone_a, d), _hull_support(cone_b, d))
        sub = _axial_cone(d, min(0.6 * cone_a.psi,
                                    _room(floor)), floor)
        _require(sub is not None and bool(cone_leq(sub, cone_a))
                 and _is_disjoint(sub, cone_b),
                 "no axial subcone cleared the second cone")
        return sub
    sub = _common_subcone(cone_a, cone_b)
    _require(sub is not None,
             "cap overlap too thin to host a common subcone")
    return sub


def _clearest_direction(cap_a, cap_b) -> tuple:
    """Direction m (three unit floats) with the largest angular clearance
    s from both closed caps (axis, half-angle), and s, in closed form.

    The directions at least s from the caps of half-angles psi_a, psi_b
    about a and b are the caps of radii pi - psi_a - s and pi - psi_b - s
    about -a and -b, and two caps meet exactly when their centres lie at
    most the sum of their radii apart (Ratcliffe, Foundations of
    Hyperbolic Manifolds, section 2.1). With gamma the angle between the
    axes, the largest s is min(pi - psi_a, pi - psi_b,
    pi - (psi_a + psi_b + gamma)/2), reached on the arc from -a toward -b
    where the two clearances balance, clipped to the arc.
    """
    (a, psi_a), (b, psi_b) = cap_a, cap_b
    gamma = angle(a, b)
    clear = min(math.pi - psi_a, math.pi - psi_b,
                math.pi - 0.5 * (psi_a + psi_b + gamma))
    t = min(max(0.5 * (gamma + psi_b - psi_a), 0.0), gamma)
    return unit(turn([-x for x in a], [-x for x in b], t)), clear


def common_complement_cone(cone_a: BallCone, cone_b: BallCone) -> BallCone:
    """Cone disjoint from both inputs; the inputs must be disjoint.

    The axial cone (_axial_cone) about the direction m clearest of both
    closed caps, by s (_clearest_direction), over the floor where their
    hulls end along m (_hull_support), under min(0.45 s, 0.2, _room).
    """
    if not disjoint(cone_a, cone_b).disjoint:
        raise ValueError("input cones must be disjoint")
    d, clear = _clearest_direction(
        *((k.exit_scalars[4:7], k.psi) for k in (cone_a, cone_b)))
    _require(clear > 1e-6, "no direction clears both closed caps")
    floor = max(_hull_support(cone_a, d), _hull_support(cone_b, d))
    witness = _axial_cone(d, min(0.45 * clear, 0.2, _room(floor)), floor)
    _require(witness is not None and _is_disjoint(witness, cone_a)
             and _is_disjoint(witness, cone_b),
             "axial cone in the cleared direction did not clear both inputs")
    return witness


# --------------------------------------------------------------------------
# cross-shell enclosures


_SHADOW_PAD = 0.05  # clearance past a shadow, over tau: A9, A10, A13
_LAST_COSH = math.log(sys.float_info.max)  # cosh and sinh finite below


def _shadow_radius(sigma: float, tau: float) -> float:
    """The shadow radius R, refused where the shell ratio R/tau plus the
    pad or window passes _LAST_COSH and cosh and sinh leave the floats."""
    radius = shadow_radius(sigma, tau)
    ratio = radius / tau + max(_SHADOW_PAD, _WINDOW / tau)
    _require(ratio <= _LAST_COSH, f"the shadow's shell ratio {ratio:.3g} "
             "takes cosh out of the floats")
    return radius


def _shadow_inside(inner: BallCone, outer: BallCone, radius: float,
                   tau: float) -> bool:
    """Whether the metric ball of the given radius on shell `tau` about
    every point of `inner` lies inside `outer`: inner <= outer, and the
    clearance of inner from outer's boundary exceeds the radius by more
    than the degenerate window. That clearance is decided by the unshifted
    _plane_margin, a sinh-distance, against the floor sinh((radius +
    window) / tau); its bound at the apex, s = 0, holds inner's apex to
    the same floor."""
    floor = math.sinh((radius + _WINDOW) / tau)
    return (bool(cone_leq(inner, outer))
            and _plane_margin(inner, outer, tau, floor=floor))


def _shadow_enclosure(cone: BallCone, radius: float, tau: float,
                      shifts) -> BallCone:
    """Cone in `cone`'s apex frame, where the source is the sector from
    the origin over the cap (n', psi'), psi' < pi/2: the apex -T n' over
    the cap (n', psi_o). For rho = radius/tau + _SHADOW_PAD and each
    apex-frame shift, u = t0/tau and v = |ts|/tau, r is the largest of rho
    and atanh(v/(1 + u)) + asinh((sinh rho + u + (u^2 - v^2)/2) /
    sqrt((1 + u)^2 - v^2)), w the largest of 0 and v + max(0, u - sinh r),
    and r rises to acosh(2w / cos psi') if larger. With g = min(tan(acos(w
    / cosh r) - psi'), 1/sinh r)/2, T = tanh r sqrt(1 + g^2) < 1 and psi_o
    = atan2(1, g) + asin(tanh r). Along a source ray each tangent plane's
    _plane_margin is A cosh s + B sinh s - kappa, A = sinh r - u, B >= w -
    v >= max(0, -A) and kappa <= -u sinh r + v cosh r + (u^2 - v^2)/2
    (Ratcliffe, Foundations of Hyperbolic Manifolds, section 3.2): least at
    the apex, s = 0, and at least sinh rho. Past r of about 8.0, psi_o
    passes the covering limit and ConstructionFailure is raised; so does a
    shift whose r leaves the floats, naming its index."""
    *_, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    rho = radius / tau + _SHADOW_PAD
    r, parts = rho, []
    for i, t in enumerate(shifts):
        try:
            u, v = t[0] / tau, math.hypot(t[1], t[2], t[3]) / tau
            reach = math.atanh(v / (1.0 + u)) + math.asinh(
                (math.sinh(rho) + u + 0.5 * (u * u - v * v))
                / math.sqrt((1.0 + u) ** 2 - v * v))
        except (OverflowError, ValueError):
            reach = math.nan
        _require(reach <= _LAST_COSH, f"translation {i} takes the shadow "
                 "enclosure's closed form out of the floats", i)
        r = max(r, reach)
        parts.append((u, v))
    w = max([0.0, *(v + max(0.0, u - math.sinh(r)) for u, v in parts)])
    r = max(r, math.acosh(max(1.0, 2.0 * w / math.cos(psi))))
    g = 0.5 * min(math.tan(math.acos(w / math.cosh(r)) - psi),
                  1.0 / math.sinh(r))
    half = math.atan2(1.0, g) + math.asin(math.tanh(r))
    depth = math.tanh(r) * math.sqrt(1.0 + g * g)
    _require(_cap_fits(half, -depth),
             "the shadow enclosure's cap passes the covering limit")
    return _cone((-depth * nx, -depth * ny, -depth * nz), (nx, ny, nz), half)


def enclose_shadow(cone: BallCone, sigma: float, tau: float) -> BallCone:
    """Cone on shell `tau` containing the causal shadow of a cone region
    living on shell `sigma`.

    The shadow is the metric thickening of the region by the cross-shell
    shadow radius R. The witness, the unshifted _shadow_enclosure mapped
    back from the apex frame, lies R + _SHADOW_PAD tau or more from every
    source point, and its clearance, proved above R + window by the arc
    bound of cones._plane_margin (_shadow_inside), certifies the whole
    shadow inside. Past R/tau of about 7.95 its cap reaches the covering
    limit, and ConstructionFailure is raised.
    """
    radius = _shadow_radius(sigma, tau)
    region = _map(_inverse(cone.apex_frame_scalars[:16]),
                  _shadow_enclosure(cone, radius, tau, ()))
    _require(_shadow_inside(cone, region, radius, tau),
             "the shadow enclosure failed its clearance certificate")
    return region


def shrink_across_shells(cone: BallCone, sigma: float, tau: float) -> BallCone:
    """Cone on shell `tau` sitting so deep inside `cone` that even its
    cross-shell shadow stays inside `cone`.

    In the source's apex frame, with image cap (n', psi'), a point at
    distance >= s from the apex within alpha of n' is tau asinh(sinh s
    sin(min(psi' - alpha, pi/2))) or more from the boundary
    (_frame_clearance). The core is the axial cone about n' over tanh s,
    for sinh s = sinh(R/tau + _SHADOW_PAD) / sin(psi'/2) and alpha =
    min(psi'/2, _room), so it clears the shadow radius R by _SHADOW_PAD
    tau; mapped back, its clearance, proved above R + window by the arc
    bound of cones._plane_margin (_shadow_inside), certifies it.
    """
    radius = _shadow_radius(sigma, tau)
    *frame, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    sinh_s = math.sinh(radius / tau + _SHADOW_PAD) / math.sin(0.5 * psi)
    floor = sinh_s / math.sqrt(1.0 + sinh_s * sinh_s)  # tanh s
    core = _axial_cone((nx, ny, nz), min(0.5 * psi, _room(floor)), floor)
    _require(core is not None, "no axial core fits in the apex frame")
    core = _map(_inverse(frame), core)
    _require(_shadow_inside(core, cone, radius, tau),
             "the axial core's cross-shell shadow left the source cone")
    return core


# --------------------------------------------------------------------------
# boosts and robustness


def contracting_boosts(cone: BallCone) -> ContractingBoosts:
    """Open direction family and boost factory contracting a cone into
    itself.

    After normalizing the apex to the center, every direction interior to
    the normalized cap works: boosts move all cap directions along great
    circles toward the boost direction, and a cap of opening below a right
    angle is geodesically convex. The directions are the cap axis and 8
    directions halfway from it to the cap's edge; the first three are
    certified at chi = 0.5, 1 and 2 on the 16-float boosts (_frame_boost)
    that boost_maker wraps in a LorentzTransform.
    """
    boost = _frame_boost(cone)
    *_, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    n = (nx, ny, nz)

    def maker(l: SphereDirection, chi: float) -> LorentzTransform:
        return LorentzTransform._of(boost(l._t, chi))

    e1 = perpendicular(n)
    e2 = cross(n, e1)
    c, s = math.cos(0.5 * psi), math.sin(0.5 * psi)
    ring = [unit([c * a + s * (math.cos(th) * b + math.sin(th) * d)
                  for a, b, d in zip(n, e1, e2)])
            for th in (0.25 * math.pi * k for k in range(8))]
    directions = tuple(SphereDirection._of(d) for d in (n, *ring))
    for d in (n, *ring[:2]):
        for chi in (0.5, 1.0, 2.0):
            _require(bool(cone_leq(_map(boost(d, chi), cone), cone)),
                     "boosted cone escaped the source cone")
    return ContractingBoosts(directions, psi, maker)


def _frame_boost(cone: BallCone):
    """The boosts toward the directions l interior to the cone's apex-frame
    cap, carried back from that frame: the function of l (three floats)
    and the rapidity chi >= 0 that gives frame^-1 boost(l, chi) frame as
    16 floats, raising ValueError for any other l or chi."""
    *frame, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    back, n = _inverse(frame), (nx, ny, nz)

    def boost(l, chi: float):
        if angle(l, n) >= psi * (1.0 - 1e-9):
            raise ValueError(
                "direction is not interior to the normalized cap")
        if chi < 0.0:
            raise ValueError("rapidity must be non-negative")
        return _compose(_compose(back, _boost(l, chi)), frame)
    return boost


def escape_ball(cone: BallCone, ball: Hyperball, direction: SphereDirection,
                nmax: int) -> int:
    """Smallest boost count n <= nmax whose contraction of the cone clears
    the ball; the direction must be admissible for `contracting_boosts`.
    """
    contracting_boosts(cone)  # the family's certificate, raising on failure
    boost, l = _frame_boost(cone), direction._t
    if nmax >= 0 and _ball_clear(cone, ball):
        return 0
    for n in range(1, nmax + 1):
        m = boost(l, float(n))
        try:
            mapped = _map(m, cone)
        except ValueError as err:
            raise ConstructionFailure(
                f"boost {n} has no image cone in floats ({err})",
                failing_index=n) from None
        _require(bool(cone_leq(mapped, cone)),
                 "boosted cone escaped the source cone", n)
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
    the enclosure covers the sampled orbit with an explicit margin. The
    words are the ring of the identity and each generator followed by its
    inverse, then every product a b of two ring members, a-major, as 16
    floats: (1 + 2g)(2 + 2g) words for g generators. I r and r I are the
    ring member r, so only the 1 + 2g ring words and the (2g)^2 products
    of two non-identity members (_compose, each formed once) are distinct;
    each is mapped once (cones._map). The region is the hull enclosure
    (cones._enclosure) of the images of all the words, folded in word
    order, which takes the distinct images by slices; it is certified when
    cone_leq's kernel _leq holds each distinct image.

    A word with no image cone in floats raises ConstructionFailure naming
    its index among all the words, not among the distinct ones: the j-th
    distinct word is ring word j for j < 1 + 2g, else the product of the
    non-identity members a, b (from 1) with (a - 1, b - 1) = divmod(j - 1
    - 2g, 2g), word (1 + 2g)(1 + a) + b. A word's entries are finite when
    their sum is: a sum over an infinite or NaN entry is never finite, so
    the entries are tested one by one only when the sum is not finite.
    """
    ring = [LorentzTransform.identity()._f,
            *(f for g in generators for f in (g._f, _inverse(g._f)))]
    size, others = len(ring), ring[1:]
    products = (_compose(u, v) for u in others for v in others)
    distinct = []
    try:
        for w in itertools.chain(ring, products):
            if not math.isfinite(sum(w)) and not all(map(math.isfinite, w)):
                raise ValueError("its matrix overflows")
            distinct.append(_map(w, cone))
    except ValueError as err:
        i = len(distinct)
        if i >= size:
            a, b = divmod(i - size, size - 1)
            i = size * (a + 2) + b + 1
        raise ConstructionFailure(
            f"orbit word {i} has no image cone in floats ({err}); the "
            "generators are too large", failing_index=i) from None
    images = distinct[:size] * 2  # the ring, then I r
    for a in range(1, size):  # a I, then a b
        first = size + (a - 1) * (size - 1)
        images += [distinct[a], *distinct[first:first + size - 1]]
    region = _enclosure(images, distinct)
    _require(region is not None
             and all(_leq(image, region)[0] for image in distinct),
             "no covering cap enclosed the sampled Lorentz orbit of the cone")
    return region


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
                   direction: Sequence[float]) -> FourVector:
    """Point at parameter u on the shell's asymptotic light ray toward a
    unit direction: time u*tau + v(u), position v(u)*direction."""
    v = lightray_offset(u, tau)
    dx, dy, dz = direction
    return FourVector(u * tau + v, v * dx, v * dy, v * dz)


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

    The witness R is the shadow enclosure (_shadow_enclosure) of the
    source cone K for the translations seen in K's apex frame, certified
    there: K <= R, and for every translation the tangent-plane margin of
    cones._plane_margin, at least sinh _SHADOW_PAD by construction, is
    proved above the window by its arc bound over the whole cone. A
    translation so long that R's cap passes the covering limit raises
    ConstructionFailure, and so does one whose apex-frame closed form
    leaves the floats, naming its index. Future direction is tested with
    hypot, so a lightlike translation whose squares overflow still counts.

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
    trans = [t if isinstance(t, FourVector) else FourVector.from_array(t)
             for t in translations]
    # the frame m sends the apex to the origin
    *m, nx, ny, nz, psi, _, _ = cone.apex_frame_scalars
    shifted = []
    for i, t in enumerate(trans):
        x = [t._x0, t._x1, t._x2, t._x3]
        if not all(map(math.isfinite, x)):
            raise ValueError(f"translation {i} has a non-finite component: "
                             f"{x}")
        # hypot, unlike a sum of squares, is inf only when |x_s| is
        if x[0] < math.hypot(*x[1:]) - _LINEAR:
            raise ValueError(
                f"translation {i} is not future-directed (closure of the "
                "forward cone)")
        shifted.append(_apply(m, x))
    cone_n = _cone((0.0, 0.0, 0.0), (nx, ny, nz), psi)
    region_n = _shadow_enclosure(cone, 0.0, tau, shifted)
    _require(all(_plane_margin(cone_n, region_n, tau, t, floor=_WINDOW)
                 for t in shifted)
             and bool(cone_leq(cone_n, region_n)),
             "the shadow enclosure failed the translated completion's "
             "certificate")
    return _map(_inverse(m), region_n)
