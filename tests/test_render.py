"""SVG section rendering: plane parsing, determinism, drawing content."""

import math

import pytest

from hypercones import render as render_mod
from hypercones import scene as scene_mod
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
        # a seed on the lateral surface let the outward rays collapse onto
        # it; a seed inside the cone gives each of the 96 rays its vertex
        origin, e1, e2 = render_mod._plane_frame(
            *render_mod.parse_plane(plane))
        for name in sorted(demo_scene.cones):
            poly = render_mod._cone_section(demo_scene.cones[name], origin,
                                            e1, e2)
            assert poly is not None, name
            assert len(set(poly)) == 96, name
