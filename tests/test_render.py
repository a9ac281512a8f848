"""SVG section rendering: plane parsing, determinism, drawing content,
and the closed-form cone and ball sections."""

import math

import numpy as np
import pytest

from hypercones import render as render_mod
from hypercones import scene as scene_mod
from hypercones.ball_model import BallPoint, Cap, Hyperboloid, SphereDirection
from hypercones.cones import BallCone, Hyperball
from hypercones.convex import hyperball_ellipsoid
from hypercones.errors import SceneError

DEMO = "examples_scenes/demo.json"


@pytest.fixture(scope="module")
def demo_scene():
    return scene_mod.load(DEMO)


class TestParsePlane:
    @pytest.mark.parametrize("spec, axis, offset", [
        ("x=0", 0, 0.0),
        ("y=0.25", 1, 0.25),
        ("z=-0.5", 2, -0.5),
        (" z = 0.1 ", 2, 0.1),
        ("x=1e-3", 0, 1e-3),
    ])
    def test_accepted_forms(self, spec, axis, offset):
        assert render_mod.parse_plane(spec) == (axis, offset)

    @pytest.mark.parametrize("spec", ["w=0", "z", "z==1", "0=z", "z=one"])
    def test_rejected_forms(self, spec):
        with pytest.raises(SceneError):
            render_mod.parse_plane(spec)

    @pytest.mark.parametrize("spec", ["z=1", "z=-1", "x=1.5"])
    def test_offset_must_be_strictly_inside(self, spec):
        with pytest.raises(SceneError, match="strictly inside"):
            render_mod.parse_plane(spec)


class TestDeterminism:
    def test_identical_bytes_across_runs(self, demo_scene):
        first = render_mod.render(demo_scene, "z=0")
        second = render_mod.render(demo_scene, "z=0")
        assert first == second

    def test_reloaded_scene_renders_identically(self, demo_scene):
        reloaded = scene_mod.loads(scene_mod.dumps(demo_scene))
        assert (render_mod.render(reloaded, "x=0.2")
                == render_mod.render(demo_scene, "x=0.2"))

    def test_different_planes_differ(self, demo_scene):
        assert (render_mod.render(demo_scene, "z=0")
                != render_mod.render(demo_scene, "z=0.3"))

    def test_no_unstable_float_formatting(self, demo_scene):
        svg = render_mod.render(demo_scene, "z=0")
        assert "-0.0000" not in svg


class TestContent:
    def test_svg_document_shape(self, demo_scene):
        svg = render_mod.render(demo_scene, "z=0")
        assert svg.startswith("<?xml")
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert 'viewBox="0 0 600 600"' in svg

    def test_boundary_circle_radius_tracks_offset(self, demo_scene):
        offset = 0.6
        svg = render_mod.render(demo_scene, f"z={offset}")
        expected = 600.0 / 2.4 * math.sqrt(1.0 - offset * offset)
        assert f'r="{expected:.4f}"' in svg

    def test_named_objects_labelled(self, demo_scene):
        svg = render_mod.render(demo_scene, "z=0.2")
        # The z=0.2 plane cuts cone A (apex z=0.15, upward axis) and the
        # ball O (center z=0.35, spheroid reaches below z=0.2).
        assert ">A<" in svg
        assert ">O<" in svg

    def test_plane_missing_everything_still_draws_circle(self):
        sc = scene_mod.loads('{"schema": 1, "tau": 1.0}')
        svg = render_mod.render(sc, "z=0")
        assert "<circle" in svg

    def test_render_to_file(self, demo_scene, tmp_path):
        out = tmp_path / "pic.svg"
        render_mod.render_to_file(demo_scene, "y=0", str(out))
        assert out.read_text(encoding="utf-8") == render_mod.render(
            demo_scene, "y=0")

    @pytest.mark.parametrize("plane", ["x=0.1", "y=-0.2"])
    def test_oblique_sections_keep_every_vertex(self, demo_scene, plane):
        # these planes cut each demo cone's generators and its cap: the
        # generator arc's points and the sphere arc's points between its
        # ends, at the fixed count, with no two vertices equal
        origin, e1, e2 = render_mod._plane_frame(
            *render_mod.parse_plane(plane))
        for name in sorted(demo_scene.cones):
            poly = render_mod._cone_section(demo_scene.cones[name], origin,
                                            e1, e2)
            assert poly is not None, name
            assert len(poly) == 2 * render_mod._ARC_POINTS - 2, name
            assert len(set(poly)) == len(poly), name

    def test_events_without_ball_image_are_not_drawn(self):
        # x0 <= |x_s| has no point of the ball: neither the spacelike event
        # (once drawn off the canvas) nor the lightlike one (once drawn on
        # the circle); a timelike event in the plane is drawn
        sc = scene_mod.loads(
            '{"schema": 1, "tau": 1.0, "events": {'
            '"far": [1.0, 2.0, 0.0, 0.0], "light": [1.0, 1.0, 0.0, 0.0], '
            '"back": [-1.0, 0.0, 0.0, 0.0], "ok": [1.0, 0.3, 0.0, 0.0]}}')
        svg = render_mod.render(sc, "z=0")
        assert svg.count('r="4"') == 1
        assert ">ok<" in svg
        for name in ("far", "light", "back"):
            assert f">{name}<" not in svg
        assert 'cx="800.0000"' not in svg


def _bisected_section(cone, origin, e1, e2, n_rays=96):
    """The section as drawn before the closed form: an interior seed looked
    for on segments from the apex to the cap axis and to the ring at half
    the cap angle, then 96 in-plane rays from it, each bisected 44 times
    against membership."""
    normal = np.cross(e1, e2)
    height = float(normal @ (cone.apex.v - origin))
    seed = None
    ring = Cap(cone.base.axis, 0.5 * cone.base.half_angle).boundary_points(8)
    for tgt in [cone.base.axis.v] + list(ring):
        span = float(normal @ (tgt - origin))
        same_side = (height > 0 and span > 0) or (height < 0 and span < 0)
        if same_side or abs(span - height) < 1e-12:
            continue
        t = min(max(height / (height - span), 1e-6), 1 - 1e-6)
        cand = cone.apex.v + t * (tgt - cone.apex.v)
        mid = cone.apex.v + 0.5 * (tgt - cone.apex.v)
        for pull in (0.0, 0.02, 0.1):
            p = (1 - pull) * cand + pull * mid
            if cone.margin(p.tolist()) > 0.0:
                seed = p
                break
        if seed is not None:
            break
    if seed is None:
        return None
    poly = []
    for k in range(n_rays):
        ang = 2.0 * math.pi * k / n_rays
        d = math.cos(ang) * e1 + math.sin(ang) * e2
        lo, hi = 0.0, 2.2
        for _ in range(44):
            mid = 0.5 * (lo + hi)
            p = seed + mid * d
            if (p @ p) < 1.0 and cone.margin(p.tolist()) > 0.0:
                lo = mid
            else:
                hi = mid
        p = seed + lo * d - origin
        poly.append((float(p @ e1), float(p @ e2)))
    return poly


def _seeded_pairs(count=300):
    """(cone, axis, offset) with the apex in [-0.7, 0.7]^3 and |apex| < 0.9,
    psi in [0.1, 1.3] and the offset in [-0.8, 0.8]; every tenth pair has
    its apex in the plane and every tenth, from the fifth, a cap holding
    the plane's whole circle (a full dome)."""
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < count:
        apex = rng.uniform(-0.7, 0.7, 3)
        psi = rng.uniform(0.1, 1.3)
        axis = rng.normal(size=3)
        plane, offset = int(rng.integers(3)), rng.uniform(-0.8, 0.8)
        if np.linalg.norm(apex) >= 0.9:
            continue
        if len(pairs) % 10 == 0:
            offset = float(apex[plane])
        elif len(pairs) % 10 == 5:
            sign = rng.choice([-1.0, 1.0])
            axis = sign * np.eye(3)[plane]
            offset = sign * (math.cos(psi)
                             + (1.0 - math.cos(psi)) * rng.uniform(0.1, 0.9))
        try:
            cone = BallCone(BallPoint(apex),
                            Cap(SphereDirection.normalized(axis), psi))
        except ValueError:
            continue
        pairs.append((cone, plane, offset))
    return pairs


def _frame_point(origin, e1, e2, uv):
    return origin + uv[0] * e1 + uv[1] * e2


def _boundary_distance(p, poly) -> float:
    """Distance from p to the closed polyline through the vertices."""
    a = np.array(poly)
    d = np.roll(a, -1, axis=0) - a
    t = np.clip(np.einsum("ij,ij->i", p - a, d)
                / np.maximum(np.einsum("ij,ij->i", d, d), 1e-300), 0.0, 1.0)
    return float(np.min(np.linalg.norm(a + t[:, None] * d - p, axis=1)))


@pytest.fixture(scope="module")
def sections():
    out = []
    for cone, plane, offset in _seeded_pairs():
        origin, e1, e2 = render_mod._plane_frame(plane, offset)
        out.append((cone, (origin, e1, e2), offset,
                    render_mod._cone_section(cone, origin, e1, e2)))
    return out


class TestConeSection:
    def test_cases_are_covered(self, sections):
        # misses, apex corners (one apex vertex plus the sphere arc), whole
        # dome circles and whole generator loops (the fixed count), and
        # joined generator and sphere arcs all occur
        sizes = [None if poly is None else len(poly)
                 for *_, poly in sections]
        n = render_mod._ARC_POINTS
        for size in (None, n, n + 1, 2 * n - 2):
            assert size in sizes, size
        assert set(sizes) <= {None, n, n + 1, 2 * n - 2}
        on_sphere = [[abs(u * u + v * v + offset * offset - 1.0) <= 1e-12
                      for u, v in poly]
                     for *_, offset, poly in sections
                     if poly is not None and len(poly) == n]
        assert any(map(all, on_sphere))
        assert not all(map(any, on_sphere))
        in_plane = [poly for cone, (_, e1, e2), offset, poly in sections
                    if float(np.cross(e1, e2) @ cone.apex.v) == offset]
        assert len(in_plane) >= 30
        assert any(poly is not None and len(poly) == n + 1
                   for poly in in_plane)

    def test_none_exactly_when_a_dense_scan_finds_no_interior_point(
            self, sections):
        grid = np.linspace(-1.0, 1.0, 201)
        u, v = (g.ravel() for g in np.meshgrid(grid, grid))
        disk = u * u + v * v < 1.0
        u, v = u[disk], v[disk]
        cut = 0
        for cone, (origin, e1, e2), offset, poly in sections:
            r = math.sqrt(1.0 - offset * offset)
            pts = origin + np.outer(r * u, e1) + np.outer(r * v, e2)
            found = bool(np.any(cone.contains_many(pts)))
            assert (poly is None) == (not found)
            cut += found
        assert 150 <= cut < 300

    def test_vertices_lie_on_the_lateral_surface_or_the_closed_cap(
            self, sections):
        for cone, (origin, e1, e2), _, poly in sections:
            if poly is None:
                continue
            assert len(set(poly)) == len(poly)
            for uv in poly:
                p = _frame_point(origin, e1, e2, uv)
                if abs(float(np.linalg.norm(p)) - 1.0) <= 1e-12:
                    assert (float(p @ cone.base.axis.v)
                            >= cone.base.cos_half - 1e-12)
                else:
                    assert abs(cone.margin(p.tolist())) <= 1e-12

    def test_bisected_vertices_lie_on_the_closed_form_polygon(
            self, sections):
        # wherever the bisection finds a seed its vertices sit on the
        # boundary to 2.2 / 2^44; the closed form draws every such section,
        # and more: the seed search missed sections it should have drawn
        drawn = missed = specks = 0
        for cone, (origin, e1, e2), offset, poly in sections:
            old = _bisected_section(cone, origin, e1, e2)
            if old is None:
                missed += poly is not None
                continue
            if poly is None:
                # the plane meets the closed cone at its apex alone; the
                # clamped seed sits just off the plane, so the bisection
                # drew a speck round the apex
                assert float(np.cross(e1, e2) @ cone.apex.v) == offset
                apex = ((cone.apex.v - origin) @ e1,
                        (cone.apex.v - origin) @ e2)
                assert max(math.dist(uv, apex) for uv in old) <= 2e-3
                specks += 1
                continue
            drawn += 1
            for uv in old:
                assert _boundary_distance(np.array(uv), poly) <= 2e-3
        assert drawn >= 100 and missed >= 10 and specks <= 30

    def test_wide_cone_cut_off_its_axis_is_drawn(self):
        # a 70 degree cone from the centre along +x: z = 0.7 misses its
        # axis and the seed search's ring, but (0.6, 0, 0.7) is inside
        sc = scene_mod.loads(
            '{"schema": 1, "tau": 1.0, "cones": {"W": {"apex": [0, 0, 0], '
            '"axis": [1, 0, 0], "half_angle_deg": 70}}}')
        cone = sc.cones["W"]
        assert cone.margin([0.6, 0.0, 0.7]) > 0.3
        origin, e1, e2 = render_mod._plane_frame(2, 0.7)
        assert _bisected_section(cone, origin, e1, e2) is None
        assert render_mod._cone_section(cone, origin, e1, e2) is not None
        assert render_mod.render(sc, "z=0.7").count("<polygon") == 1


class TestBallSection:
    def test_vertices_lie_on_the_metric_sphere(self):
        rng = np.random.default_rng(3)
        drawn = 0
        for _ in range(300):
            center = rng.uniform(-0.55, 0.55, 3)
            tau = rng.uniform(0.5, 2.0)
            ball = Hyperball(Hyperboloid(tau), BallPoint(center),
                             tau * rng.uniform(0.05, 1.0))
            plane, offset = int(rng.integers(3)), rng.uniform(-0.8, 0.8)
            origin, e1, e2 = render_mod._plane_frame(plane, offset)
            pts = render_mod._ball_section(ball, origin, e1, e2)
            # the plane meets the ball when it lies between the spheroid's
            # extreme points along its normal
            ell = hyperball_ellipsoid(center, ball.radius, tau)
            normal = np.eye(3)[plane]
            top = ell.support_xyz(*normal)[plane]
            bottom = ell.support_xyz(*-normal)[plane]
            assert (pts is None) == (not bottom < offset < top)
            if pts is None:
                continue
            drawn += 1
            assert len(pts) == render_mod._ARC_POINTS
            cosh_rho = math.cosh(ball.radius / tau)
            for uv in pts:
                u = _frame_point(origin, e1, e2, uv)
                cosh_d = (1.0 - u @ center) / math.sqrt(
                    (1.0 - u @ u) * (1.0 - center @ center))
                assert abs(cosh_d / cosh_rho - 1.0) <= 1e-12
        assert drawn >= 100
