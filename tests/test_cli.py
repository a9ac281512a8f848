"""Command-line driver: queries, constructions, paths, rendering, exits."""

import json
import math
import os
import re
import warnings

import pytest

from hypercones import cli
from hypercones import scene as scene_mod
from hypercones.cli import main
from hypercones.cones import cone_hyperball_disjoint
from hypercones.errors import DegenerateGeometry

DEMO = "examples_scenes/demo.json"
OBSTACLE = "examples_scenes/obstacle.json"


@pytest.fixture(scope="module")
def exhaustion_scene():
    """The demo scene with a backward-marching cone family along +z (their
    opposites shrink, as a funnel construction needs) plus a small +x cone
    used as a forbidden obstacle: examples_scenes/obstacle.json."""
    return OBSTACLE


@pytest.fixture(scope="module")
def tangent_scene(tmp_path_factory):
    """Two equal caps whose boundary circles touch at exactly one point:
    half-angles 25 degrees, axes 50 degrees apart, shared apex."""
    tilt = math.radians(50.0)
    doc = {"schema": 1, "tau": 1.0, "cones": {
        "T1": {"apex": [0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0],
               "half_angle_deg": 25.0},
        "T2": {"apex": [0.0, 0.0, 0.0],
               "axis": [math.sin(tilt), 0.0, math.cos(tilt)],
               "half_angle_deg": 25.0}}}
    path = tmp_path_factory.mktemp("scenes") / "tangent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def edge_scene(tmp_path_factory):
    """Demo scene extended with two events that have no ball image, one
    outside the light cone and one on it, and a ball whose centre is
    1.1e-16 inside the sphere."""
    doc = json.loads(open(DEMO, encoding="utf-8").read())
    doc["events"] = dict(doc["events"], far=[1.0, 0.0, 0.0, 2.0],
                         light=[1.0, 0.0, 0.0, 1.0])
    doc["balls"] = dict(doc["balls"], edge2={
        "center": [0.6, 0.0, 0.7999999999999999], "radius": 0.2})
    path = tmp_path_factory.mktemp("scenes") / "edge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def rim_ball_scene(tmp_path_factory):
    """The demo scene on the shell tau = 17.43827825806208 with a ball Q
    whose centre is 1.8e-8 inside the sphere and a narrow cone K clear of
    it: in K's apex frame 1 - |c|^2 of Q's centre rounds to 0."""
    doc = json.loads(open(DEMO, encoding="utf-8").read())
    doc["tau"] = 17.43827825806208
    doc["balls"]["Q"] = {
        "center": [0.774698307163586, 0.5731170262604303,
                   -0.2671691814067285], "radius": 0.03606171348490635}
    doc["cones"]["K"] = {
        "apex": [0.2579466037521366, 0.8016502149644444, 0.5392777414830812],
        "axis": [0.16483655362541308, 0.7745107483988972,
                 0.6107061578234467],
        "half_angle_deg": math.degrees(0.011659281194841838)}
    path = tmp_path_factory.mktemp("scenes") / "rim.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_disjoint_true_reports_separating_plane(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "disjoint A B")
        assert code == 0
        # the margin is an angle in A's apex frame: pi less both image
        # half-angles, the plane the one through A's apex normal to z
        assert out.startswith("true, margin=2.26018")
        assert "plane n=(0, 0, 1) offset=0.15" in out

    def test_disjoint_false_reports_common_point(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "disjoint A big")
        assert code == 0
        assert out.startswith("false")
        assert "common point=" in out

    def test_leq_both_directions(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "leq A big")
        assert code == 0 and out.startswith("true")
        assert "cap_margin=" in out and "apex_margin=" in out
        code, out, _ = run(capsys, "check", DEMO, "leq big A")
        assert code == 0 and out.startswith("false")

    def test_contains_ball(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "contains big O")
        assert code == 0
        assert out.startswith(("true", "false")) and "margin=" in out

    def test_contains_event_uses_ball_image(self, capsys):
        # x sits at the ball origin, behind A's apex; y projects to
        # (0, 0, 0.5) on A's axis.
        code, out, _ = run(capsys, "check", DEMO, "contains A x")
        assert code == 0 and out.startswith("false")
        code, out, _ = run(capsys, "check", DEMO, "contains A y")
        assert code == 0 and out.startswith("true")

    def test_contains_event_margin_is_shell_distance(self, capsys,
                                                     tmp_path):
        # the same cone and event on a shell of twice the radius: the
        # shell distance, and with it the margin, doubles
        doc = json.loads(open(DEMO, encoding="utf-8").read())
        doc["tau"] = 2.0
        doubled = tmp_path / "tau2.json"
        doubled.write_text(json.dumps(doc), encoding="utf-8")
        margins = []
        for scene in (DEMO, str(doubled)):
            code, out, _ = run(capsys, "check", scene, "contains A y")
            assert code == 0 and out.startswith("true")
            margins.append(float(out.split("margin=")[1]))
        assert margins[1] == pytest.approx(2.0 * margins[0], rel=1e-5)

    def test_contains_event_without_ball_image_is_refused(self, capsys,
                                                          edge_scene):
        for name in ("far", "light"):
            code, out, err = run(capsys, "check", edge_scene,
                                 f"contains A {name}")
            assert code == 1 and out == ""
            assert err.startswith("error:") and repr(name) in err

    def test_in_causal_completion(self, capsys):
        code, out, _ = run(capsys, "check", DEMO,
                           "in-causal-completion y big")
        assert code == 0
        assert out.strip() in {"true", "false"}

    def test_compose_localized(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "compose s u")
        assert code == 0
        assert out.startswith("charge=(3, 1), localized")

    def test_compose_adds_charges(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "compose s t")
        assert code == 0
        assert out.startswith("charge=(2, 0),")

    def test_statistics_sign(self, capsys):
        code, out, _ = run(capsys, "check", DEMO, "statistics s t")
        assert code == 0
        assert out.strip() == "-1"


class TestConstruct:
    def assert_certified(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        lines = [l for l in out.splitlines() if l.startswith("certificate:")]
        assert lines, out
        assert all(" pass" in l and "FAIL" not in l for l in lines)
        return out

    def test_a1_funnel(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A1",
                                    "big", "O", "--depth", "3")
        assert "funnel: 3 cones" in out

    def test_a2_opposite_funnel(self, capsys, exhaustion_scene):
        out = self.assert_certified(capsys, "construct", exhaustion_scene,
                                    "A2", "E0", "E1", "E2")
        assert "opposite funnel:" in out

    def test_a3_avoid_ball(self, capsys):
        self.assert_certified(capsys, "construct", DEMO, "A3", "O", "big")

    def test_a4_wrap_ball(self, capsys):
        self.assert_certified(capsys, "construct", DEMO, "A4", "O", "B")

    def test_a5_path(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A5",
                                    "A", "B")
        assert "path:" in out

    def test_a6_path_avoiding_forbidden(self, capsys, exhaustion_scene):
        out = self.assert_certified(capsys, "construct", exhaustion_scene,
                                    "A6", "X", "A", "B")
        assert "path:" in out

    def test_a7_shrink(self, capsys):
        self.assert_certified(capsys, "construct", DEMO, "A7", "A", "big")

    def test_a8_common_complement(self, capsys):
        self.assert_certified(capsys, "construct", DEMO, "A8", "A", "B")

    def test_a9_enclose_shadow(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A9", "big")
        assert "contains-shadow" in out

    def test_a10_shrink_across_shells(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A10", "big")
        assert "shadow-inside" in out

    def test_a11_contracting_boosts(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A11", "A")
        assert "contracting directions:" in out

    def test_a11_escape_ball(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A11", "A",
                                    "--ball", "O")
        assert "escape count:" in out

    def test_a12_lorentz_orbit(self, capsys):
        out = self.assert_certified(
            capsys, "construct", DEMO, "A12", "A",
            "--generator", "boost:x:0.15", "--generator", "rot:z:0.2")
        assert "contains-orbit" in out

    def test_a13_translated_completion(self, capsys):
        out = self.assert_certified(capsys, "construct", DEMO, "A13", "A",
                                    "--t", "1,0,0,0")
        assert "contains-shifted-completion" in out

    def test_deep_funnel_names_every_member(self, capsys, tmp_path):
        # the members are named in one pass, not one scan of the scene
        # per member
        path = tmp_path / "deep.json"
        code, out, err = run(capsys, "construct", DEMO, "A1", "big", "O",
                             "--depth", "20000", "--out", str(path))
        assert code == 0, err
        assert "funnel: 20000 cones F0, F1," in out
        cones = json.loads(path.read_text(encoding="utf-8"))["cones"]
        assert all(f"F{i}" in cones for i in range(20_000))
        assert "F20000" not in cones

    def test_out_writes_loadable_extended_scene(self, capsys, tmp_path):
        out_path = tmp_path / "extended.json"
        self.assert_certified(capsys, "construct", DEMO, "A8", "A", "B",
                              "--out", str(out_path))
        extended = scene_mod.load(str(out_path))
        assert set(extended.cones) > {"A", "B", "big"}
        assert "C0" in extended.cones


class TestPathCommand:
    def test_direct_path(self, capsys):
        code, out, _ = run(capsys, "path", DEMO, "A", "B")
        assert code == 0
        assert out.startswith("path:") and "witnesses" in out

    def test_path_with_forbidden(self, capsys, exhaustion_scene, tmp_path):
        out_path = tmp_path / "path.json"
        code, out, _ = run(capsys, "path", exhaustion_scene, "A", "B",
                           "--forbidden", "X", "--out", str(out_path))
        assert code == 0
        extended = scene_mod.load(str(out_path))
        assert any(name.startswith("P") for name in extended.cones)


class TestRenderCommand:
    def test_render_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert run(capsys, "render", DEMO, "--out", str(first))[0] == 0
        assert run(capsys, "render", DEMO, "--plane", "z=0",
                   "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_plane_is_an_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", DEMO, "--plane", "q=0",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 1 and "plane spec" in err


    def test_a_ball_past_the_range_of_cosh_is_drawn(self, capsys, tmp_path):
        # tau 1e-9 puts ball O at 2e8 shell units, where cosh^2 of its
        # radius passes the floats: it fills the ball to their resolution,
        # and its section is the plane's circle
        doc = json.loads(open(DEMO, encoding="utf-8").read())
        doc["tau"] = 1e-9
        scene, out = tmp_path / "thin.json", tmp_path / "thin.svg"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "render", str(scene), "--out", str(out)) == (
            0, f"drawing written: {out}\n", "")
        svg = out.read_text(encoding="utf-8")
        assert ">O</text>" in svg and "nan" not in svg


class TestSelftestCommand:
    def test_selftest_passes_quickly(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "0",
                           "--budget", "0.25")
        assert code == 0
        assert "ALL PROPERTIES PASS" in out
        assert "FAIL" not in out


class TestExitCodes:
    def test_bad_json_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "schema": 1,\n "tau": oops\n}', encoding="utf-8")
        code, _, err = run(capsys, "check", str(bad), "disjoint A B")
        assert code == 1
        assert err.startswith("error:") and "line 3" in err

    def test_unknown_names(self, capsys):
        code, _, err = run(capsys, "check", DEMO, "disjoint A nosuch")
        assert code == 1 and "unknown cone" in err
        code, _, err = run(capsys, "check", DEMO, "statistics s nosuch")
        assert code == 1 and "unknown morphism" in err
        code, _, err = run(capsys, "path", DEMO, "A", "nosuch")
        assert code == 1 and "unknown cone" in err

    def test_unrecognized_query(self, capsys):
        code, _, err = run(capsys, "check", DEMO, "frobnicate A B")
        assert code == 1 and "unrecognized query" in err

    def test_unknown_lemma(self, capsys):
        code, _, err = run(capsys, "construct", DEMO, "A99", "A")
        assert code == 1 and "A1..A13" in err

    def test_a12_requires_generators(self, capsys):
        code, _, err = run(capsys, "construct", DEMO, "A12", "A")
        assert code == 1 and "--generator" in err
        code, _, err = run(capsys, "construct", DEMO, "A12", "A",
                           "--generator", "warp:x:0.1")
        assert code == 1 and "boost or rot" in err

    @pytest.mark.parametrize("argv, bad", [
        (("A13", "A", "--t", "nan,0,0,0"), "nan"),
        (("A13", "A", "--t", "inf,0,0,0"), "inf"),
        (("A12", "A", "--generator", "boost:x:nan"), "nan"),
    ], ids=["t-nan", "t-inf", "generator-nan"])
    def test_non_finite_flags_are_refused(self, capsys, argv, bad):
        # refused before any geometry runs: no numpy warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "construct", DEMO, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "non-finite" in err
        assert bad in err

    @pytest.mark.parametrize("t, message", [
        ("1e154,0,0,0", "covering limit"),
        ("1e300,0,0,0", "translation 0"),
        ("1e308,0,0,0", "translation 0"),
        ("1e200,1e200,0,0", "translation 0"),
    ])
    def test_translation_beyond_floats_is_refused(self, capsys, t, message):
        # the lightlike 1e200,1e200 is future-directed; each closed form
        # leaves the covering limit or the floats: an error, with no numpy
        # warning and no traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "construct", DEMO, "A13", "A",
                                 "--t", t)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err and "future-directed" not in err

    def test_negative_nmax_is_refused_before_any_work(self, capsys,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("escape_ball ran")

        monkeypatch.setattr(cli, "escape_ball", refuse)
        code, out, err = run(capsys, "construct", DEMO, "A11", "A",
                             "--ball", "O", "--nmax", "-1")
        assert code == 1 and out == ""
        assert err == "error: --nmax must be at least 0, got -1\n"

    def test_escape_past_the_floats_names_the_boost(self, capsys, tmp_path):
        # a ball of radius 20 about the origin: the 12th boost of cone A
        # has no image cone in floats before any image clears it
        with open(DEMO, encoding="utf-8") as f:
            doc = json.load(f)
        doc["balls"]["R"] = {"center": [0.0, 0.0, 0.0], "radius": 20.0}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "construct", str(path), "A11", "A",
                             "--ball", "R")
        assert code == 1 and "escape count" not in out
        assert err == ("error: boost 12 has no image cone in floats (apex "
                       "must lie strictly below the base-circle plane)\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_budget_must_be_finite_and_positive(self, capsys, value):
        code, out, err = run(capsys, "selftest", "--budget", value)
        assert code == 1 and out == ""
        assert err.startswith("error: --budget") and value in err

    @pytest.mark.parametrize("value, shown", [("1e308", "1e+308"),
                                              ("1001", "1001")])
    def test_budget_above_a_thousand_is_refused(self, capsys, monkeypatch,
                                                value, shown):
        # refused before any trial runs: the trial counts scale by it
        def refuse(**kwargs):
            raise AssertionError("a self-test trial ran")

        monkeypatch.setattr(cli, "run_selftest", refuse)
        code, out, err = run(capsys, "selftest", "--budget", value)
        assert code == 1 and out == ""
        assert err == f"error: --budget must be at most 1000, got {shown}\n"

    def test_negative_seed_is_refused_by_name(self, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("a self-test trial ran")

        monkeypatch.setattr(cli, "run_selftest", refuse)
        assert run(capsys, "selftest", "--seed", "-1") == (
            1, "", "error: --seed must be at least 0, got -1\n")

    @pytest.mark.parametrize("rapidity", ["15", "40", "710"])
    def test_orbit_beyond_floats_is_refused(self, capsys, rapidity):
        # the images of the orbit words leave the ball in floats, and at
        # 710 their products overflow: an error naming the generators,
        # and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "construct", DEMO, "A12", "A",
                                 "--generator", f"boost:x:{rapidity}")
        assert code == 1 and out == ""
        assert err.startswith("error: orbit word")
        assert "generators are too large" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("axis, unit", [("1e170,1e170,0", "1,1,0"),
                                            ("1e-170,0,0", "x"),
                                            ("0,-1e-170,0", "0,-1,0"),
                                            ("1e-323,1e-323,0", "1,1,0")])
    @pytest.mark.parametrize("kind", ["boost", "rot"])
    def test_generator_axes_whose_squares_leave_the_floats(
            self, capsys, tmp_path, kind, axis, unit):
        # hypot normalizes these axes, whose squares overflow or underflow,
        # and whose norm may be subnormal: the orbit is the one of the unit
        # axis, with no numpy warning
        regions = []
        for spec in (axis, unit):
            out = str(tmp_path / "out.json")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run(capsys, "construct", DEMO, "A12", "A",
                                   "--generator", f"{kind}:{spec}:0.5",
                                   "--out", out)
            assert (code, err) == (0, "")
            regions.append(scene_mod.load(out).cones["C0"])
        a, b = regions
        assert max(abs(p - q) for p, q in zip(a.exit_scalars,
                                              b.exit_scalars)) <= 1e-12
        assert abs(a.psi - b.psi) <= 1e-12

    @pytest.mark.parametrize("amount", ["1e308", "-711"])
    def test_boost_whose_cosh_overflows_is_refused(self, capsys, amount):
        code, out, err = run(capsys, "construct", DEMO, "A12", "A",
                             "--generator", f"boost:x:{amount}")
        assert code == 1 and out == ""
        assert err.startswith("error: --generator") and "cosh" in err

    @pytest.mark.parametrize("argv", [
        ("construct", DEMO, "A1", "A", "O", "--depth", "abc"),
        ("check", DEMO),
        ("check", DEMO, "disjoint A B", "--seed", "3"),
    ])
    def test_usage_errors_exit_one(self, capsys, argv):
        # code 2 is kept for degenerate geometry
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        assert stop.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["construct", "--help"])
        assert stop.value.code == 0
        assert "--sigma" in capsys.readouterr().out

    def test_tangent_caps_exit_degenerate(self, capsys, tangent_scene):
        code, _, err = run(capsys, "construct", tangent_scene, "A7",
                           "T1", "T2")
        assert code == 2
        assert err.startswith("degenerate:")


    def test_ball_at_the_sphere_exits_degenerate(self, capsys,
                                                 edge_scene):
        code, out, err = run(capsys, "check", edge_scene, "contains B edge2")
        assert code == 2 and out == ""
        assert err.startswith("degenerate:")

    def test_ball_plane_past_the_floats_exits_degenerate(self, capsys,
                                                         rim_ball_scene):
        # the ball clears the cone by 198 in shell distance, but the
        # separating plane A4 builds on needs 1 - |c|^2 > 0 for the ball's
        # centre c in the cone's apex frame, and it rounds to 0
        rim = scene_mod.load(rim_ball_scene)
        sep = cone_hyperball_disjoint(rim.cones["K"], rim.balls["Q"])
        assert (sep.disjoint, sep.margin) == (True, 198.2474518394811)
        message = ("ball centre rounds onto the sphere in the cone's apex "
                   "frame; no separating plane in floats")
        with pytest.raises(DegenerateGeometry) as err:
            sep.plane
        assert str(err.value) == message
        assert run(capsys, "construct", rim_ball_scene, "A4", "Q", "K") == (
            2, "", f"degenerate: {message}\n")


class TestNonFiniteScenes:
    @pytest.mark.parametrize("section, name, field, value, query, message", [
        ("cones", "A", "apex", [math.nan, 0.0, 0.15], "disjoint A B",
         "cone 'A' apex must be finite"),
        ("cones", "A", "half_angle_deg", math.inf, "leq A big",
         "cone 'A' half angle must be finite"),
        ("balls", "O", "radius", math.inf, "contains A O",
         "ball 'O' radius must be finite"),
        ("balls", "O", "center", [0.3, math.nan, 0.35], "contains big O",
         "ball 'O' center must be finite"),
        ("cones", "B", "axis", [False, 0.0, -1.0], "disjoint A B",
         "cone 'B' axis must be a list of 3 numbers"),
        (None, None, "tau", math.nan, "disjoint A B", "tau must be finite"),
        (None, None, "cones", ["A"], "disjoint A B",
         "cones must be an object"),
        (None, None, "balls", "O", "contains big O",
         "balls must be an object"),
        ("morphisms", "s", "cone", ["A"], "compose s t",
         "morphism 's' references unknown cone ['A']"),
        (None, None, "statistics_signs", [math.inf, 1], "statistics s t",
         "statistics_signs must be a list of integers"),
        (None, None, "statistics_signs", [-1.9, 1], "statistics s t",
         "statistics_signs must be a list of integers"),
    ], ids=["apex-nan", "angle-inf", "radius-inf", "center-nan",
            "axis-bool", "tau-nan", "cones-list", "balls-string",
            "morphism-cone-list", "sign-overflow", "sign-fraction"])
    def test_scene_is_refused_with_exit_one(self, capsys, tmp_path, section,
                                            name, field, value, query,
                                            message):
        doc = json.loads(open(DEMO, encoding="utf-8").read())
        entry = doc if section is None else doc[section][name]
        entry[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "check", str(path), query)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestRejectedFlags:
    def test_tolerances_flag_is_rejected(self, capsys, tmp_path):
        # the thresholds are fixed; no file can override them
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"matrix_identity": 1e-8}),
                       encoding="utf-8")
        with pytest.raises(SystemExit) as stop:
            main(["check", DEMO, "disjoint A B", "--tolerances", str(tol)])
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--tolerances" in err

    def test_budget_is_rejected_outside_selftest(self, capsys):
        # only the self-test scales trial counts; no construction samples
        with pytest.raises(SystemExit) as stop:
            main(["check", DEMO, "disjoint A B", "--budget", "0.2"])
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--budget" in err


def _certified(*lines):
    return "".join(f"certificate: {line} pass\n" for line in lines)


_A11_FAMILY = ("contracting directions: 9, cap half-angle 28.92 deg\n"
               + _certified("leq(boosted(chi=0.5),A)", "leq(boosted(chi=1),A)",
                            "leq(boosted(chi=2),A)"))
_WRITTEN = "scene written: out.json\n"

# (scene, arguments, exit code, stdout, stderr): every construct case the
# CI runs on the demo scene, the obstacle scene's A2, A6 and paths, and
# each refusal. The only number the library computes here is A11's cap
# half-angle, so the text is the same on every platform.
_PINNED = [
    (DEMO, "construct A1 big O --depth 3", 0,
     _certified("leq(F1,F0)", "leq(F2,F1)", "disjoint(F2,O)")
     + "funnel: 3 cones F0, F1, F2\n", ""),
    (DEMO, "construct A3 O big", 0,
     _certified("leq(C0,big)", "clear(C0,O)") + "witness cone: C0\n", ""),
    (DEMO, "construct A4 O B", 0,
     _certified("contains(C0,O)", "disjoint(C0,B)") + "witness cone: C0\n",
     ""),
    (DEMO, "construct A5 A B", 0,
     _certified("path adjacency witnesses (4)")
     + "path: 5 nodes P0, P1, P2, P3, P4\n", ""),
    (DEMO, "construct A7 A big", 0,
     _certified("leq(C0,A)") + "witness cone: C0\n", ""),
    (DEMO, "construct A8 A B", 0,
     _certified("disjoint(C0,A)", "disjoint(C0,B)") + "witness cone: C0\n",
     ""),
    (DEMO, "construct A9 big", 0,
     "certificate: contains-shadow(C0,big) pass sigma=1 tau=2\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A10 big", 0,
     "certificate: shadow-inside(C0,big) pass sigma=1 tau=2\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A11 A", 0, _A11_FAMILY, ""),
    (DEMO, "construct A11 A --ball O", 0,
     _A11_FAMILY + "certificate: escape(A,O) pass n=1\nescape count: 1\n",
     ""),
    (DEMO, "construct A12 A --generator boost:x:0.15 --generator rot:z:0.2",
     0, "certificate: contains-orbit(C0,A) pass generators=2\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A12 A --generator boost:1e170,1e170,0:0.5", 0,
     "certificate: contains-orbit(C0,A) pass generators=1\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A12 A --generator boost:1e-170,0,0:0.5", 0,
     "certificate: contains-orbit(C0,A) pass generators=1\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A13 A --t 1,0,0,0", 0,
     "certificate: contains-shifted-completion(C0,A) pass translations=1\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A1 big O --depth 7", 0,
     _certified(*(f"leq(F{i + 1},F{i})" for i in range(6)), "disjoint(F6,O)")
     + "funnel: 7 cones F0, F1, F2, F3, F4, F5, F6\n", ""),
    (DEMO, "construct A13 big --t 0.5,0.2,0.1,0", 0,
     "certificate: contains-shifted-completion(C0,big) pass translations=1\n"
     "witness cone: C0\n", ""),
    (DEMO, "construct A2 A big", 0,
     _certified("disjoint(Op0,A)", "disjoint(Op1,big)")
     + "opposite funnel: Op0, Op1\n", ""),
    (OBSTACLE, "construct A2 E0 E1 E2", 0,
     _certified("disjoint(Op0,E0)", "disjoint(Op1,E1)", "disjoint(Op2,E2)")
     + "opposite funnel: Op0, Op1, Op2\n", ""),
    (OBSTACLE, "construct A6 X A B", 0,
     _certified("path adjacency witnesses (9)")
     + "path: 10 nodes P0, P1, P2, P3, P4, P5, P6, P7, P8, P9\n", ""),
    (OBSTACLE, "path A B", 0,
     "path: 5 nodes, 4 witnesses: P0, P1, P2, P3, P4\n", ""),
    (OBSTACLE, "path A B --forbidden X", 0,
     "path: 10 nodes, 9 witnesses: P0, P1, P2, P3, P4, P5, P6, P7, P8, "
     "P9\n", ""),
    (DEMO, "construct A1 big", 1, "",
     "error: A1 needs 2 name(s): cone, probe ball\n"),
    (DEMO, "construct A2 A", 1, "",
     "error: A2 needs at least two exhaustion cone names\n"),
    (DEMO, "construct A3 O", 1, "", "error: A3 needs 2 name(s): ball, cone\n"),
    (DEMO, "construct A4 O B big", 1, "",
     "error: A4 needs 2 name(s): ball, cone\n"),
    (DEMO, "construct A5 A", 1, "", "error: A5 needs 2 name(s): cone, cone\n"),
    (DEMO, "construct A6 A B", 1, "",
     "error: A6 needs 3 name(s): forbidden cone, cone, cone\n"),
    (DEMO, "construct A7 A", 1, "", "error: A7 needs 2 name(s): cone, cone\n"),
    (DEMO, "construct A8 A B big", 1, "",
     "error: A8 needs 2 name(s): cone, cone\n"),
    (DEMO, "construct A9", 1, "", "error: A9 needs 1 name(s): cone\n"),
    (DEMO, "construct A10 A B", 1, "", "error: A10 needs 1 name(s): cone\n"),
    (DEMO, "construct A11", 1, "", "error: A11 needs 1 name(s): cone\n"),
    (DEMO, "construct A12 A B --generator boost:x:0.1", 1, "",
     "error: A12 needs 1 name(s): cone\n"),
    (DEMO, "construct A13 A B", 1, "", "error: A13 needs 1 name(s): cone\n"),
    (DEMO, "construct A99 A", 1, "",
     "error: unknown lemma id 'A99'; expected A1..A13\n"),
    (DEMO, "construct A12 A", 1, "",
     "error: A12 needs at least one --generator\n"),
    (DEMO, "construct A13 A", 1, "",
     "error: A13 needs at least one --t translation\n"),
    (DEMO, "construct A12 nosuch", 1, "", "error: unknown cone 'nosuch'\n"),
    (DEMO, "construct A3 big O", 1, "", "error: unknown ball 'big'\n"),
    (DEMO, "construct A11 A --ball nosuch", 1, _A11_FAMILY,
     "error: unknown ball 'nosuch'\n"),
    (DEMO, "construct A11 A --ball O --nmax -1", 1, "",
     "error: --nmax must be at least 0, got -1\n"),
    (DEMO, "construct A99 A --nmax -1", 1, "",
     "error: --nmax must be at least 0, got -1\n"),
    (DEMO, "construct A1 big O --depth 0", 1, "",
     "error: --depth must be at least 1, got 0\n"),
    (DEMO, "construct A13 A --t 1,0,0", 1, "",
     "error: four-vector flag needs 4 comma-separated numbers\n"),
    (DEMO, "construct A13 A --t 1,a,0,0", 1, "",
     "error: bad four-vector '1,a,0,0'\n"),
    (DEMO, "construct A12 A --generator boost:x", 1, "",
     "error: bad generator 'boost:x'; use kind:axis:amount\n"),
    (DEMO, "construct A12 A --generator boost:1,a,0:0.1", 1, "",
     "error: bad generator axis '1,a,0'\n"),
    (DEMO, "construct A12 A --generator boost:1,0:0.1", 1, "",
     "error: generator axis needs three components\n"),
    (DEMO, "construct A12 A --generator boost:x:abc", 1, "",
     "error: bad generator amount 'abc'\n"),
    (DEMO, "construct A12 A --generator boost:x:6.25", 1, "",
     "error: orbit word 7 has no image cone in floats (apex must lie "
     "strictly below the base-circle plane); the generators are too "
     "large\n"),
    (DEMO, "render --plane z=1.2.3", 1, "",
     "error: bad plane offset in 'z=1.2.3'\n"),
    (DEMO, "construct A10 A --sigma 1e192 --tau 1e-43", 1, "",
     "error: the shadow's shell ratio 1e+34 takes cosh out of the floats\n"),
    (DEMO, "construct A9 A --sigma 1e-300 --tau 1e10", 1, "",
     "error: the shadow's shell ratio 714 takes cosh out of the floats\n"),
]


def _without_statistics(doc):
    del doc["statistics_signs"]


def _covering_carriers(doc):
    # two charge (1, 0) carriers on cones about +z and -z whose 100 degree
    # caps cover the sphere, so no cone encloses both
    doc["cones"].update(
        Up={"apex": [0.0, 0.0, -0.5], "axis": [0.0, 0.0, 1.0],
            "half_angle_deg": 100.0},
        Down={"apex": [0.0, 0.0, 0.5], "axis": [0.0, 0.0, -1.0],
              "half_angle_deg": 100.0})
    doc["morphisms"].update(p={"charge": [1, 0], "cone": "Up"},
                            q={"charge": [1, 0], "cone": "Down"})


# (edit of the demo scene or None, query, exit code, stdout, stderr): the
# check refusals and the unlocalized composition.
_PINNED_CHECKS = [
    (None, "", 1, "", "error: empty query\n"),
    (None, "contains A nosuch", 1, "",
     "error: unknown ball or event 'nosuch'\n"),
    (None, "in-causal-completion nosuch A", 1, "",
     "error: unknown event 'nosuch'\n"),
    (_without_statistics, "statistics s t", 1, "",
     "error: scene has no statistics_signs\n"),
    (_covering_carriers, "compose p q", 0, "charge=(2, 0), unlocalized\n",
     ""),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("scene, args, code, out, err", _PINNED,
                             ids=[case[1] for case in _PINNED])
    def test_output_exit_code_and_written_scene(self, capsys, monkeypatch,
                                                tmp_path, scene, args, code,
                                                out, err):
        scene = os.path.abspath(scene)
        monkeypatch.chdir(tmp_path)
        command, *rest = args.split()
        got = run(capsys, command, scene, *rest, "--out", "out.json")
        assert got == (code, out + (_WRITTEN if code == 0 else ""), err)
        # the written scene holds the input's cones and the ones named
        if code == 0:
            added = set(re.findall(r"\b(?:C|F|Op|P)\d+\b", out))
            written = scene_mod.load("out.json").cones
            assert set(written) == set(scene_mod.load(scene).cones) | added
        else:
            assert not os.path.exists("out.json")

    @pytest.mark.parametrize("edit, query, code, out, err", _PINNED_CHECKS,
                             ids=["empty", "unknown-target", "unknown-event",
                                  "no-statistics", "unlocalized"])
    def test_check_output_and_exit_code(self, capsys, tmp_path, edit, query,
                                        code, out, err):
        scene = DEMO
        if edit is not None:
            doc = json.loads(open(DEMO, encoding="utf-8").read())
            edit(doc)
            scene = tmp_path / "edited.json"
            scene.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "check", str(scene), query) == (code, out, err)
