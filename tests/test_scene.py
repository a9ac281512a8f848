"""Scene files: loading, validation diagnostics, canonical round trips."""

import json
import math

import numpy as np
import pytest

from hypercones import scene as scene_mod
from hypercones.ball_model import BallPoint, Cap, SphereDirection
from hypercones.charges import ChargeGroup, StatisticsCharacter
from hypercones.cones import BallCone, Hyperball
from hypercones.errors import SceneError

DEMO = "examples_scenes/demo.json"


def minimal_doc(**extra) -> str:
    doc = {"schema": 1, "tau": 1.0}
    doc.update(extra)
    return json.dumps(doc)


class TestLoading:
    def test_demo_scene_resolves_every_section(self):
        sc = scene_mod.load(DEMO)
        assert sc.tau == 1.0
        assert set(sc.cones) >= {"A", "B", "big"}
        assert isinstance(sc.cones["A"], BallCone)
        assert isinstance(sc.balls["O"], Hyperball)
        assert sc.events["x"].components.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert isinstance(sc.group, ChargeGroup)
        assert isinstance(sc.statistics, StatisticsCharacter)
        assert sc.morphisms
        for morph in sc.morphisms.values():
            assert morph.localization in sc.cones.values()

    def test_angles_arrive_in_radians(self):
        sc = scene_mod.load(DEMO)
        assert sc.cones["A"].base.half_angle == pytest.approx(
            math.radians(25.0), abs=1e-15)

    def test_shell_matches_tau(self):
        sc = scene_mod.loads(minimal_doc(tau=2.5))
        assert sc.shell.tau == 2.5

    def test_missing_sections_default_empty(self):
        sc = scene_mod.loads(minimal_doc())
        assert sc.cones == {} and sc.balls == {} and sc.events == {}
        assert sc.group is None and sc.statistics is None
        assert sc.morphisms == {}


class TestValidation:
    def test_bad_json_reports_line_and_column(self):
        with pytest.raises(SceneError, match=r"line 3, column"):
            scene_mod.loads('{\n  "schema": 1,\n  "tau": oops\n}')

    def test_non_object_document(self):
        with pytest.raises(SceneError, match="JSON object"):
            scene_mod.loads("[1, 2]")

    def test_schema_version_enforced(self):
        with pytest.raises(SceneError, match="schema"):
            scene_mod.loads('{"schema": 2, "tau": 1.0}')
        with pytest.raises(SceneError, match="schema"):
            scene_mod.loads('{"tau": 1.0}')

    def test_tau_required_and_positive(self):
        with pytest.raises(SceneError, match="tau"):
            scene_mod.loads('{"schema": 1}')
        with pytest.raises(SceneError, match="positive"):
            scene_mod.loads(minimal_doc(tau=0.0))
        with pytest.raises(SceneError, match="positive"):
            scene_mod.loads(minimal_doc(tau=-2.0))
        with pytest.raises(SceneError, match="number"):
            scene_mod.loads(minimal_doc(tau="one"))

    def test_cone_field_diagnostics(self):
        with pytest.raises(SceneError, match="lacks field"):
            scene_mod.loads(minimal_doc(cones={"K": {"apex": [0, 0, 0.2]}}))
        with pytest.raises(SceneError, match="3 numbers"):
            scene_mod.loads(minimal_doc(cones={"K": {
                "apex": [0, 0], "axis": [0, 0, 1],
                "half_angle_deg": 20.0}}))
        with pytest.raises(SceneError, match="must be an object"):
            scene_mod.loads(minimal_doc(cones={"K": [1, 2, 3]}))

    def test_invalid_cone_geometry_is_wrapped(self):
        # Apex on the wrong side of the cap plane: geometric validation
        # failure surfaces as a SceneError naming the cone.
        bad = {"apex": [0.0, 0.0, 0.95], "axis": [0.0, 0.0, 1.0],
               "half_angle_deg": 25.0}
        with pytest.raises(SceneError, match="'K'"):
            scene_mod.loads(minimal_doc(cones={"K": bad}))

    def test_ball_diagnostics(self):
        with pytest.raises(SceneError, match="lacks field"):
            scene_mod.loads(minimal_doc(balls={"O": {"radius": 0.2}}))
        with pytest.raises(SceneError, match="'O'"):
            scene_mod.loads(minimal_doc(balls={"O": {
                "center": [0.0, 0.0, 0.0], "radius": -1.0}}))

    @pytest.mark.parametrize("extra, field", [
        ({"tau": math.nan}, "tau"),
        ({"tau": math.inf}, "tau"),
        ({"cones": {"K": {"apex": [math.nan, 0, 0], "axis": [0, 0, 1],
                          "half_angle_deg": 20.0}}}, "cone 'K' apex"),
        ({"cones": {"K": {"apex": [0, 0, 0], "axis": [0, 0, math.inf],
                          "half_angle_deg": 20.0}}}, "cone 'K' axis"),
        ({"cones": {"K": {"apex": [0, 0, 0], "axis": [0, 0, 1],
                          "half_angle_deg": math.nan}}},
         "cone 'K' half angle"),
        ({"balls": {"O": {"center": [0, -math.inf, 0], "radius": 0.2}}},
         "ball 'O' center"),
        ({"balls": {"O": {"center": [0, 0, 0], "radius": math.inf}}},
         "ball 'O' radius"),
        ({"balls": {"O": {"center": [0, 0, 0], "radius": 10 ** 400}}},
         "ball 'O' radius"),
        ({"events": {"x": [math.nan, 0, 0, 0]}}, "event 'x'"),
    ], ids=["tau-nan", "tau-inf", "apex-nan", "axis-inf", "angle-nan",
            "center-inf", "radius-inf", "radius-huge-int", "event-nan"])
    def test_non_finite_numbers_are_refused(self, extra, field):
        with pytest.raises(SceneError, match=f"^{field} must be finite$"):
            scene_mod.loads(minimal_doc(**extra))

    def test_vectors_refuse_bools(self):
        with pytest.raises(SceneError, match="cone 'K' apex .*3 numbers"):
            scene_mod.loads(minimal_doc(cones={"K": {
                "apex": [True, 0, 0], "axis": [0, 0, 1],
                "half_angle_deg": 20.0}}))

    def test_event_must_be_four_numbers(self):
        with pytest.raises(SceneError, match="4 numbers"):
            scene_mod.loads(minimal_doc(events={"x": [1.0, 0.0, 0.0]}))

    def test_charge_group_diagnostics(self):
        with pytest.raises(SceneError, match="free_rank"):
            scene_mod.loads(minimal_doc(charge_group={"free_rank": -1}))
        with pytest.raises(SceneError, match="torsion_orders"):
            scene_mod.loads(minimal_doc(charge_group={
                "free_rank": 1, "torsion_orders": [2.5]}))
        with pytest.raises(SceneError, match="charge_group"):
            scene_mod.loads(minimal_doc(charge_group={
                "free_rank": 0, "torsion_orders": [1]}))

    def test_statistics_need_group_and_valid_signs(self):
        with pytest.raises(SceneError, match="charge_group"):
            scene_mod.loads(minimal_doc(statistics_signs=[-1]))
        with pytest.raises(SceneError, match="statistics_signs"):
            scene_mod.loads(minimal_doc(
                charge_group={"free_rank": 1, "torsion_orders": []},
                statistics_signs=[-1, 1]))

    def test_morphism_diagnostics(self):
        cone = {"apex": [0.0, 0.0, 0.1], "axis": [0.0, 0.0, 1.0],
                "half_angle_deg": 20.0}
        with pytest.raises(SceneError, match="charge_group"):
            scene_mod.loads(minimal_doc(
                cones={"K": cone},
                morphisms={"m": {"charge": [1], "cone": "K"}}))
        with pytest.raises(SceneError, match="unknown cone"):
            scene_mod.loads(minimal_doc(
                charge_group={"free_rank": 1, "torsion_orders": []},
                cones={"K": cone},
                morphisms={"m": {"charge": [1], "cone": "missing"}}))
        with pytest.raises(SceneError, match="unknown cone \\['K'\\]"):
            scene_mod.loads(minimal_doc(
                charge_group={"free_rank": 1, "torsion_orders": []},
                cones={"K": cone},
                morphisms={"m": {"charge": [1], "cone": ["K"]}}))
        with pytest.raises(SceneError, match="list"):
            scene_mod.loads(minimal_doc(
                charge_group={"free_rank": 1, "torsion_orders": []},
                cones={"K": cone},
                morphisms={"m": {"charge": [1.5], "cone": "K"}}))
        with pytest.raises(SceneError, match="'m'"):
            scene_mod.loads(minimal_doc(
                charge_group={"free_rank": 1, "torsion_orders": []},
                cones={"K": cone},
                morphisms={"m": {"charge": [1, 2], "cone": "K"}}))

    @pytest.mark.parametrize("extra, message", [
        ({"balls": {"O": [0.0, 0.0, 0.0]}}, "ball 'O' must be an object"),
        ({"charge_group": [1, 2]}, "charge_group must be an object"),
        ({"charge_group": {"free_rank": 1}, "morphisms": {"m": ["K"]}},
         "morphism 'm' must be an object"),
    ], ids=["ball", "charge-group", "morphism"])
    def test_entries_must_be_objects(self, extra, message):
        with pytest.raises(SceneError, match=f"^{message}$"):
            scene_mod.loads(minimal_doc(**extra))

    @pytest.mark.parametrize("section", ["cones", "balls", "events",
                                         "morphisms"])
    @pytest.mark.parametrize("value", [["A"], "A", 1, True])
    def test_sections_must_be_objects(self, section, value):
        with pytest.raises(SceneError, match=f"^{section} must be an object"):
            scene_mod.loads(minimal_doc(**{section: value}))

    @pytest.mark.parametrize("value", [None, [], "", {}])
    def test_null_or_empty_sections_stay_accepted(self, value):
        sc = scene_mod.loads(minimal_doc(cones=value, balls=value,
                                         events=value, morphisms=value))
        assert sc.cones == sc.balls == sc.events == sc.morphisms == {}

    @pytest.mark.parametrize("signs", ["[1e400]", "[1.5]", "[true]",
                                       "[-1.9]", "[-1.0]", '["1"]'])
    def test_statistics_signs_are_read_as_integers(self, signs):
        text = minimal_doc(charge_group={"free_rank": 1})[:-1] + (
            f', "statistics_signs": {signs}}}')
        with pytest.raises(SceneError, match="^statistics_signs must be a "
                                             "list of integers$"):
            scene_mod.loads(text)
        good = scene_mod.loads(text.replace(signs, "[-1]"))
        assert good.statistics.signs == (-1,)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneError, match="cannot read"):
            scene_mod.load(str(tmp_path / "nope.json"))


class TestRoundTrip:
    def test_load_save_load_is_byte_exact(self, tmp_path):
        sc = scene_mod.load(DEMO)
        out = tmp_path / "copy.json"
        scene_mod.save(sc, str(out))
        text = out.read_text(encoding="utf-8")
        assert text == scene_mod.dumps(sc)
        again = scene_mod.loads(text)
        assert scene_mod.dumps(again) == text
        assert set(again.cones) == set(sc.cones)
        for name in sc.cones:
            assert np.allclose(again.cones[name].apex.v,
                               sc.cones[name].apex.v)

    def test_dumps_is_canonical(self):
        a = scene_mod.loads('{"tau": 1.0, "schema": 1}')
        b = scene_mod.loads('{"schema": 1, "tau": 1.0}')
        assert scene_mod.dumps(a) == scene_mod.dumps(b)
        assert scene_mod.dumps(a).endswith("\n")


class TestMutation:
    def test_fresh_name_skips_taken_names(self):
        sc = scene_mod.load(DEMO)
        name = sc.fresh_name("A")
        assert name not in sc.cones
        sc.cones[name] = sc.cones["A"]
        assert sc.fresh_name("A") != name

    def test_fresh_names_are_those_of_repeated_fresh_name(self):
        sc = scene_mod.load(DEMO)
        for name in ("F0", "F2", "F3", "F7"):
            sc.cones[name] = sc.cones["A"]
        batch = sc._fresh_names("F", 6)
        one_by_one = []
        for _ in range(6):
            one_by_one.append(sc.fresh_name("F"))
            sc.cones[one_by_one[-1]] = sc.cones["A"]
        assert batch == one_by_one == ["F1", "F4", "F5", "F6", "F8", "F9"]

    def test_add_cone_updates_raw_document(self):
        sc = scene_mod.loads(minimal_doc())
        cone = BallCone(BallPoint(np.array([0.0, 0.0, 0.1])),
                        Cap(SphereDirection.normalized(
                            np.array([0.0, 0.0, 1.0])),
                            math.radians(20.0)))
        sc.add_cone("K", cone)
        reloaded = scene_mod.loads(scene_mod.dumps(sc))
        assert np.allclose(reloaded.cones["K"].apex.v, cone.apex.v)
        assert reloaded.cones["K"].base.half_angle == pytest.approx(
            cone.base.half_angle, abs=1e-12)

    def test_add_ball_updates_raw_document(self):
        sc = scene_mod.loads(minimal_doc())
        ball = Hyperball(sc.shell, BallPoint(np.array([0.1, 0.0, 0.0])),
                         0.3)
        sc.add_ball("O", ball)
        reloaded = scene_mod.loads(scene_mod.dumps(sc))
        assert np.allclose(reloaded.balls["O"].center.v, ball.center.v)
        assert reloaded.balls["O"].radius == ball.radius

    @pytest.mark.parametrize("value", [None, [], "", {}])
    def test_adding_to_a_null_or_empty_section(self, value):
        # the section loads accepted is replaced by an object holding the
        # new entry, and the written document is the canonical one of a
        # scene that had the entry from the start
        sc = scene_mod.loads(minimal_doc(cones=value, balls=value))
        cone = BallCone(BallPoint(np.array([0.0, 0.0, 0.1])),
                        Cap(SphereDirection.normalized(
                            np.array([0.0, 0.0, 1.0])),
                            math.radians(20.0)))
        ball = Hyperball(sc.shell, BallPoint(np.array([0.1, 0.0, 0.0])),
                         0.3)
        sc.add_cone("K", cone)
        sc.add_ball("O", ball)
        text = scene_mod.dumps(sc)
        doc = json.loads(text)
        assert set(doc["cones"]) == {"K"} and set(doc["balls"]) == {"O"}
        fresh = scene_mod.loads(minimal_doc())
        fresh.add_cone("K", cone)
        fresh.add_ball("O", ball)
        assert text == scene_mod.dumps(fresh)
        reloaded = scene_mod.loads(text)
        assert scene_mod.dumps(reloaded) == text
        assert reloaded.cones["K"].base.half_angle == pytest.approx(
            cone.base.half_angle, abs=1e-12)
        assert reloaded.balls["O"].radius == ball.radius
