"""Scene files: named geometric objects in one JSON document.

A scene file carries a shell parameter plus named cones, metric balls,
events, an optional charge group with statistics signs, and named charge
carriers.  Angles are stored in degrees in the file and converted to
radians on load.  The raw document is kept on the scene so that saving is
an exact canonical re-serialization: load -> save -> load reproduces both
bytes and objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ball_model import BallPoint, Cap, Hyperboloid, SphereDirection
from .charges import ChargeGroup, Morphism, StatisticsCharacter
from .cones import BallCone, Hyperball
from .errors import SceneError
from .minkowski import FourVector

SCHEMA_VERSION = 1


@dataclass
class Scene:
    """Resolved scene: every named object validated at load time."""

    tau: float
    cones: dict[str, BallCone] = field(default_factory=dict)
    balls: dict[str, Hyperball] = field(default_factory=dict)
    events: dict[str, FourVector] = field(default_factory=dict)
    group: ChargeGroup | None = None
    statistics: StatisticsCharacter | None = None
    morphisms: dict[str, Morphism] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @property
    def shell(self) -> Hyperboloid:
        return Hyperboloid(self.tau)

    def fresh_name(self, prefix: str) -> str:
        return self._fresh_names(prefix, 1)[0]

    def _fresh_names(self, prefix: str, count: int) -> list[str]:
        """The first `count` names prefix0, prefix1, ... that no object
        holds: the names that many fresh_name calls would give, each name
        being taken before the next call, found in one pass."""
        taken = (set(self.cones) | set(self.balls) | set(self.events)
                 | set(self.morphisms))
        names, k = [], 0
        while len(names) < count:
            if f"{prefix}{k}" not in taken:
                names.append(f"{prefix}{k}")
            k += 1
        return names

    def _section(self, key: str) -> dict:
        """The raw section `key`, replaced by an object when it is missing
        or is one of the empty values loads accepts (null, [], "" or {})."""
        if not self.raw.get(key):
            self.raw[key] = {}
        return self.raw[key]

    def add_cone(self, name: str, cone: BallCone) -> None:
        self.cones[name] = cone
        self._section("cones")[name] = {
            "apex": [float(c) for c in cone.apex.v],
            "axis": [float(c) for c in cone.base.axis.v],
            "half_angle_deg": math.degrees(cone.base.half_angle),
        }

    def add_ball(self, name: str, ball: Hyperball) -> None:
        self.balls[name] = ball
        self._section("balls")[name] = {
            "center": [float(c) for c in ball.center.v],
            "radius": float(ball.radius),
        }


def _vector(value, length: int, what: str) -> np.ndarray:
    if (not isinstance(value, (list, tuple)) or len(value) != length
            or not all(isinstance(c, (int, float))
                       and not isinstance(c, bool) for c in value)):
        raise SceneError(f"{what} must be a list of {length} numbers")
    return np.array([_number(c, what) for c in value])


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SceneError(f"{what} must be a number")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise SceneError(f"{what} must be finite")
    return x


def _load_cone(name: str, entry: dict) -> BallCone:
    if not isinstance(entry, dict):
        raise SceneError(f"cone {name!r} must be an object")
    try:
        apex = _vector(entry["apex"], 3, f"cone {name!r} apex")
        axis = _vector(entry["axis"], 3, f"cone {name!r} axis")
        deg = _number(entry["half_angle_deg"], f"cone {name!r} half angle")
    except KeyError as missing:
        raise SceneError(f"cone {name!r} lacks field {missing}") from None
    try:
        return BallCone(BallPoint(apex),
                        Cap(SphereDirection.normalized(axis),
                            math.radians(deg)))
    except ValueError as bad:
        raise SceneError(f"cone {name!r}: {bad}") from None


def _load_ball(name: str, entry: dict, shell: Hyperboloid) -> Hyperball:
    if not isinstance(entry, dict):
        raise SceneError(f"ball {name!r} must be an object")
    try:
        center = _vector(entry["center"], 3, f"ball {name!r} center")
        radius = _number(entry["radius"], f"ball {name!r} radius")
    except KeyError as missing:
        raise SceneError(f"ball {name!r} lacks field {missing}") from None
    try:
        return Hyperball(shell, BallPoint(center), radius)
    except ValueError as bad:
        raise SceneError(f"ball {name!r}: {bad}") from None


def loads(text: str) -> Scene:
    """Parse a scene document; errors carry line/column positions."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as bad:
        raise SceneError(
            f"invalid JSON: {bad.msg} (line {bad.lineno}, "
            f"column {bad.colno})") from None
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SceneError(f"scene schema must be {SCHEMA_VERSION}")
    if "tau" not in doc:
        raise SceneError("scene lacks the shell parameter 'tau'")
    tau = _number(doc["tau"], "tau")
    if tau <= 0.0:
        raise SceneError("tau must be positive")
    for key in ("cones", "balls", "events", "morphisms"):
        if not isinstance(doc.get(key) or {}, dict):
            raise SceneError(f"{key} must be an object")
    scene = Scene(tau=tau, raw=doc)
    shell = scene.shell

    for name, entry in (doc.get("cones") or {}).items():
        scene.cones[name] = _load_cone(name, entry)
    for name, entry in (doc.get("balls") or {}).items():
        scene.balls[name] = _load_ball(name, entry, shell)
    for name, entry in (doc.get("events") or {}).items():
        vec = _vector(entry, 4, f"event {name!r}")
        scene.events[name] = FourVector.from_array(vec)

    gspec = doc.get("charge_group")
    if gspec is not None:
        if not isinstance(gspec, dict):
            raise SceneError("charge_group must be an object")
        rank = gspec.get("free_rank", 0)
        orders = gspec.get("torsion_orders", [])
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise SceneError("free_rank must be a nonnegative integer")
        if (not isinstance(orders, list)
                or not all(isinstance(m, int) and not isinstance(m, bool)
                           for m in orders)):
            raise SceneError("torsion_orders must be a list of integers")
        try:
            scene.group = ChargeGroup(rank, tuple(orders))
        except ValueError as bad:
            raise SceneError(f"charge_group: {bad}") from None

    signs = doc.get("statistics_signs")
    if signs is not None:
        if scene.group is None:
            raise SceneError("statistics_signs require a charge_group")
        if (not isinstance(signs, list)
                or not all(isinstance(s, int) and not isinstance(s, bool)
                           for s in signs)):
            raise SceneError("statistics_signs must be a list of integers")
        try:
            scene.statistics = StatisticsCharacter(scene.group, tuple(signs))
        except ValueError as bad:
            raise SceneError(f"statistics_signs: {bad}") from None

    for name, entry in (doc.get("morphisms") or {}).items():
        if scene.group is None:
            raise SceneError("morphisms require a charge_group")
        if not isinstance(entry, dict):
            raise SceneError(f"morphism {name!r} must be an object")
        coords = entry.get("charge")
        cone_name = entry.get("cone")
        if (not isinstance(coords, list)
                or not all(isinstance(c, int) and not isinstance(c, bool)
                           for c in coords)):
            raise SceneError(f"morphism {name!r} charge must be a list "
                             "of integers")
        if not isinstance(cone_name, str) or cone_name not in scene.cones:
            raise SceneError(f"morphism {name!r} references unknown cone "
                             f"{cone_name!r}")
        try:
            charge = scene.group.element(coords)
        except ValueError as bad:
            raise SceneError(f"morphism {name!r}: {bad}") from None
        scene.morphisms[name] = Morphism(charge, scene.cones[cone_name],
                                         shell)
    return scene


def load(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as bad:
        raise SceneError(f"cannot read scene file: {bad}") from None
    return loads(text)


def dumps(scene: Scene) -> str:
    """Canonical serialization of the scene's raw document."""
    return json.dumps(scene.raw, indent=2, sort_keys=True) + "\n"


def save(scene: Scene, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps(scene))
    except OSError as bad:
        raise SceneError(f"cannot write scene file: {bad}") from None
