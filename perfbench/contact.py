"""Near-contact predicate inputs with answers known by construction.

Every instance is placed at a signed margin chosen by the sampler and
built with the benchmark's own geometry (``oracles``), so its answer
follows from the construction: True, False, or DegenerateGeometry when
the margin lies inside the library's degenerate window. Margins are
log-uniform between 1e-2 and ten times the window, with both signs; the
``window_*`` families sit at a third of the window.

Families, and the predicate each one calls:

- ``shared_apex`` (``disjoint``): two cones with one apex whose caps, in
  the apex frame, are an angular gap g apart;
- ``nested_cap``, ``nested_apex`` (``cone_leq``): an inner cone whose cap
  or apex sits a margin inside or outside the outer cone;
- ``mirror`` (``disjoint``): a cone whose hull reaches x = g through its
  cap and its reflection through x = 0, then rotated; ``mirror_boosted``
  also boosts the pair, with rapidity up to 0.5 and |g| >= GJK_FLOOR;
- ``ball_inside``, ``ball_outside`` (``hyperball_in_cone``): a metric
  ball whose radius is a margin below or above its centre's distance to
  the cone boundary, the centre inside or outside the cone;
- ``ball_clear`` (``cone_hyperball_disjoint``): a metric ball whose
  Euclidean hull stops a gap short of the cone's apex, or whose centre
  lies a margin inside the cone.

``FOUND_MIRRORS`` are boosted mirror pairs, fixed and not seeded, whose
hulls overlap in a thin sliver near the sphere; ``disjoint`` raises
DegenerateGeometry on each of them although each holds common points far
deeper than the window. They run in every round and count as failed.
"""
from __future__ import annotations

import math

import numpy as np

import oracles as O

WINDOW = 1e-9          # the library's default degenerate window
RAISES = "degenerate"  # expected outcome for in-window instances
# smallest gap of a boosted mirror pair: below it convex.gjk_distance
# stops early on some pairs and disjoint raises (see FOUND_MIRRORS)
GJK_FLOOR = 1e-4

# (psi, apex x, apex depth, gap g, azimuth, boost direction, rapidity)
FOUND_MIRRORS = [
    (0.9753753136704475, -0.35397287317750553, 0.29035992204709776,
     2.048589922883645e-07, 1.5460615815676413,
     (-0.7622165521702063, 0.6424639452795843, -0.07915811148299547),
     0.26114798780538095),
    (0.8477452583707923, -0.18440499990331127, 0.07770054910427829,
     1.3274092205902636e-07, 0.04929430017966368,
     (0.6579042429950533, -0.7490304314579346, -0.07820114960181952),
     1.373065784320769),
    (0.9489396176860294, -0.09709031284206807, 0.025818957214996142,
     3.9441954262107985e-07, 3.4256657175355967,
     (0.43262941956100753, 0.12555523142705782, 0.8927864633783397),
     0.6444718169640953),
    (0.2987393932488776, -0.3904107730737885, 0.1537544650996733,
     6.907758653709706e-07, 4.552442148603076,
     (-0.05089434055578977, 0.26155751454140996, 0.9638451289944414),
     1.3253613840282867),
    (0.7370552014683323, -0.11203687071814564, 0.3548719996061993,
     4.999306933581616e-07, 1.4168771111241532,
     (0.67465002613572, -0.3084183460410059, -0.6706157365141401),
     1.32035164962379),
    (0.49961815395316195, -0.3973275762972125, 0.23606702053259712,
     1.0868116345805447e-07, 4.421815564743411,
     (-0.6691975779996264, 0.6796001936734007, 0.300529829398864),
     0.49262450911589667),
    (0.7329393391661074, -0.12800206303019745, 0.2675179977676007,
     1.528262251615033e-07, 3.173935903359617,
     (-0.6975075465666385, 0.33566067702025937, -0.6330996227963572),
     0.9787889311360338),
    (0.4105476394925434, -0.18183594221912092, 0.14701852120392017,
     1.0822244452519799e-06, 2.443355838073108,
     (0.628473549982688, -0.07968300189003946, 0.7737387260451358),
     1.031114102147159),
]


def _margin(rng, lo: float = 10.0 * WINDOW, hi: float = 1e-2) -> float:
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return mag if rng.random() < 0.5 else -mag


def _perp(rng, n: np.ndarray) -> np.ndarray:
    v = O.unit(rng)
    v -= float(v @ n) * n
    return v / np.linalg.norm(v)


def _lorentz(rng, rapidity: float) -> np.ndarray:
    return (O.rotation(O.unit(rng), rng.uniform(0.0, 2.0 * math.pi))
            @ O.boost(O.unit(rng), rapidity))


def _in_window(rng) -> float:
    return (WINDOW / 3.0) * (1.0 if rng.random() < 0.5 else -1.0)


def shared_apex(rng, g: float) -> tuple:
    """Caps g apart in the apex frame. An overlap (g < 0) is redrawn until
    its deepest common point is ten times the window deep."""
    apex = rng.uniform(0.0, 0.6) * O.unit(rng)
    back = O.inverse(O.apex_frame(apex))
    while True:
        psi1, psi2 = rng.uniform(0.15, 0.9, size=2)
        n1 = O.unit(rng)
        gamma = psi1 + psi2 + g
        n2 = math.cos(gamma) * n1 + math.sin(gamma) * _perp(rng, n1)
        a = (apex, *O.cap_image(back, n1, psi1))
        b = (apex, *O.cap_image(back, n2, psi2))
        if g >= -WINDOW or lens_depth(a, b) >= 10.0 * WINDOW:
            break
        g = -abs(_margin(rng))
    answer = RAISES if abs(g) < WINDOW else g > 0.0
    return ("disjoint", a, b, answer)


def lens_depth(a, b) -> float:
    """Deepest common point of two overlapping cones with one apex.

    Both margins depend only on the exit direction, and the best
    direction lies on the great circle through the two cap axes, where
    one margin falls as the other rises.
    """
    n1, n2 = a[1], b[1]
    gamma = math.atan2(float(np.linalg.norm(np.cross(n1, n2))),
                       float(n1 @ n2))
    w = n2 - float(n2 @ n1) * n1
    w /= np.linalg.norm(w)

    def depth(t):
        d = math.cos(t) * n1 + math.sin(t) * w
        return min(float(d @ n1) - math.cos(a[2]),
                   float(d @ n2) - math.cos(b[2]))
    lo, hi = 0.0, gamma
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if depth(m1) < depth(m2):
            lo = m1
        else:
            hi = m2
    return depth(0.5 * (lo + hi))


def nested(rng, m: float, on_apex: bool) -> tuple:
    """Inner cone with cap margin m (or apex cos-margin m) in the outer."""
    while True:
        apex = rng.uniform(0.0, 0.5) * O.unit(rng)
        axis, psi = O.unit(rng), rng.uniform(0.3, 1.2)
        if axis @ apex > math.cos(psi) - 1e-3:
            continue
        outer = (apex, axis, psi)
        gamma = rng.uniform(0.0, 0.5 * psi)
        cap_m = rng.uniform(0.05, 0.2) if on_apex else m
        psi_in = psi - gamma - cap_m
        apex_m = m if on_apex else rng.uniform(0.02, 0.5 * (1 - math.cos(psi)))
        # exit direction at cos-margin apex_m from the outer cap
        theta = math.acos(min(1.0, math.cos(psi) + apex_m))
        d = math.cos(theta) * axis + math.sin(theta) * _perp(rng, axis)
        inner_apex = apex + rng.uniform(0.05, 0.8) * (d - apex)
        inner_axis = (math.cos(gamma) * axis
                      + math.sin(gamma) * _perp(rng, axis))
        if psi_in < 0.05 or inner_axis @ inner_apex > math.cos(psi_in) - 1e-3:
            continue
        inner = (inner_apex, inner_axis, psi_in)
        return ("cone_leq", inner, outer, m > 0.0)


def mirror(rng, g: float, rapidity: float) -> tuple:
    psi = rng.uniform(0.2, 1.0)
    apex_x = -rng.uniform(0.05, 0.4)
    depth = rng.uniform(0.0, 0.4)
    az = rng.uniform(0.0, 2.0 * math.pi)
    m = _lorentz(rng, rapidity)
    return mirror_pair(psi, apex_x, depth, g, az, m)


def mirror_pair(psi, apex_x, depth, g, az, m) -> tuple:
    """Cone whose hull reaches x = g through its cap, its mirror image
    through x = 0, both moved by the Lorentz matrix m."""
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, math.cos(az), math.sin(az)])
    theta = psi + math.acos(g)  # cap reaches x = cos(theta - psi) = g
    axis = math.cos(theta) * x + math.sin(theta) * v
    # apex below the cap plane, behind x = apex_x < g
    apex = apex_x * x - depth * v
    a = (apex, axis, psi)
    flip = np.array([-1.0, 1.0, 1.0])
    b = (apex * flip, axis * flip, psi)
    answer = RAISES if abs(g) < WINDOW else g < 0.0
    return ("disjoint", O.map_cone(m, a), O.map_cone(m, b), answer)


def found_mirror(params: tuple) -> tuple:
    """The mirror pair of one FOUND_MIRRORS row, moved by its boost."""
    psi, apex_x, depth, g, az, bdir, chi = params
    return mirror_pair(psi, apex_x, depth, g, az, O.boost(bdir, chi))


def ball_in_cone(rng, m: float, inside: bool) -> tuple:
    """Cone and a ball whose radius is the centre's boundary distance
    minus m, built in the apex frame and moved to a random apex."""
    tau = rng.uniform(0.7, 1.5)
    while True:
        n, psi = O.unit(rng), rng.uniform(0.25, 1.2)
        r = rng.uniform(0.2, 1.5)
        delta = rng.uniform(0.1, psi) if inside else -rng.uniform(
            0.05, 0.6)
        theta = psi - delta
        if not 0.0 <= theta < math.pi:
            continue
        dist = math.asinh(math.sinh(r) * math.sin(abs(delta)))
        rho = dist - m / tau
        if rho > 0.02:
            break
    c = math.tanh(r) * (math.cos(theta) * n + math.sin(theta) * _perp(rng, n))
    apex = rng.uniform(0.0, 0.6) * O.unit(rng)
    back = O.inverse(O.apex_frame(apex))
    cone = (apex, *O.cap_image(back, n, psi))
    center = O.ball_action(back, c)[0]
    answer = RAISES if abs(m) < WINDOW else (inside and m > 0.0)
    return ("hyperball_in_cone", cone, (tau, center, tau * rho), answer)


def ball_clear(rng, g: float) -> tuple:
    """Cone with apex -alpha z over a cap about z, moved by a Lorentz map.

    For g > 0 a ball on the -z axis whose hull tops out at z = -alpha - g,
    moved by the same map. For g < 0 a ball centred at cos-depth |g|
    inside the mapped cone.
    """
    z = np.array([0.0, 0.0, 1.0])
    alpha, psi = rng.uniform(0.0, 0.5), rng.uniform(0.3, 1.2)
    m = _lorentz(rng, rng.uniform(0.0, 0.5))
    cone = O.map_cone(m, (-alpha * z, z, psi))
    answer = RAISES if abs(g) < WINDOW else g > 0.0
    if g < 0.0:
        apex, axis, psi2 = cone
        theta = math.acos(math.cos(psi2) + abs(g))
        d = math.cos(theta) * axis + math.sin(theta) * _perp(rng, axis)
        center = apex + rng.uniform(0.2, 0.8) * (d - apex)
        return ("cone_hyperball_disjoint", cone,
                (1.0, center, rng.uniform(0.05, 0.3)), answer)
    zeta = min(alpha + g + rng.uniform(0.05, 0.3), 0.95)
    center = -zeta * z
    top = -alpha - g
    lo, hi = 0.0, 5.0
    for _ in range(200):  # the hull's top rises with the radius
        mid = 0.5 * (lo + hi)
        if O.ellipsoid_support(center, mid, z) < top:
            lo = mid
        else:
            hi = mid
    return ("cone_hyperball_disjoint", cone,
            (1.0, O.ball_action(m, center)[0], 0.5 * (lo + hi)), answer)


# instances per round of each family, the first seven at margins from
# 1e-2 down to ten times the window, the last three inside the window
ROUND = (
    ("shared_apex", 120), ("mirror", 90), ("mirror_boosted", 90),
    ("nested_cap", 60), ("nested_apex", 60), ("ball_inside", 60),
    ("ball_outside", 60), ("ball_clear", 90),
    ("window_shared_apex", 24), ("window_mirror", 30),
    ("window_ball", 24),
)


def sample(rng) -> list[tuple]:
    """One round of seeded instances, in a seeded order."""
    makers = {
        "shared_apex": lambda: shared_apex(rng, _margin(rng)),
        "mirror": lambda: mirror(rng, _margin(rng), 0.0),
        "mirror_boosted": lambda: mirror(rng, _margin(rng, lo=GJK_FLOOR),
                                         rng.uniform(0.0, 0.5)),
        "nested_cap": lambda: nested(rng, _margin(rng), on_apex=False),
        "nested_apex": lambda: nested(rng, _margin(rng), on_apex=True),
        "ball_inside": lambda: ball_in_cone(rng, _margin(rng), inside=True),
        "ball_outside": lambda: ball_in_cone(rng, _margin(rng),
                                             inside=False),
        "ball_clear": lambda: ball_clear(rng, _margin(rng)),
        "window_shared_apex": lambda: shared_apex(rng, _in_window(rng)),
        "window_mirror": lambda: mirror(rng, _in_window(rng), 0.0),
        "window_ball": lambda: ball_in_cone(rng, _in_window(rng),
                                            inside=True),
    }
    tags = [tag for tag, count in ROUND for _ in range(count)]
    return [makers[tags[k]]() for k in rng.permutation(len(tags))]
