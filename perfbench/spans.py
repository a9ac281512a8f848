"""Spans around the library's public names, recorded from outside it.

``install`` replaces each traced function in its defining module and in
every ``hypercones`` module that imported it by name, and wraps the two
scipy optimizers that ``cones`` reaches through ``scipy.optimize``. Each
call made inside a benchmark operation appends one span (name, start,
end, parent span) to arrays held in memory; ``Tracer.save`` writes them
when the run ends. A layer's self time is its spans' time minus the part
covered by their child spans.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, qualified name) of every traced function
TRACED = (
    ("cones", "cone_leq"), ("cones", "disjoint"), ("cones", "opposite"),
    ("cones", "map_cone"), ("cones", "hyperball_in_cone"),
    ("cones", "in_causal_completion"), ("cones", "cone_hyperball_disjoint"),
    ("cones", "BallCone.contains_many"), ("convex", "gjk_distance"),
    ("ball_model", "cap_image"), ("ball_model", "fit_cap"),
    ("ball_model", "ball_action_many"),
    ("minkowski", "LorentzTransform.boost"),
)
OPTIMIZERS = ("minimize", "minimize_scalar")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, degenerate=(), root=False):
        """fn, recording a span per call made inside a root span (one
        benchmark operation), or per call if root is set."""
        nid = self._id(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, raised = self.start, self.end, self.raised
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)  # outside the timed calls
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except degenerate:
                raised[name] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Run fn inside a root span (one benchmark operation)."""
        return self.wrap(name, fn, root=True)()

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(busy[i]))
                for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


def install(tracer: Tracer) -> None:
    """Wrap every traced name wherever the library can reach it."""
    import scipy.optimize

    from hypercones.errors import DegenerateGeometry

    mods = [m for k, m in sys.modules.items()
            if k == "hypercones" or k.startswith("hypercones.")]
    for modname, qual in TRACED:
        home = sys.modules[f"hypercones.{modname}"]
        label = f"{modname}.{qual}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(
                    tracer.wrap(label, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(label, raw))
            continue
        fn = getattr(home, qual)
        wrapped = tracer.wrap(label, fn, (DegenerateGeometry,))
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    for name in OPTIMIZERS:
        setattr(scipy.optimize, name, tracer.wrap(
            f"scipy.optimize.{name}", getattr(scipy.optimize, name)))
