"""One benchmark process: set-up, then timed passes over one workload.

Started by ``run.py`` with the BLAS thread count pinned to 1. It imports
``hypercones``, draws the workload's inputs from the seed and warms up,
then prints ``ready`` and the calibration ratio NOMINAL_S over the time
of the reference kernel. Without ``--setup-only`` it goes on to measure:

- every pass runs each operation of the round once, on library objects
  rebuilt from raw arrays, so per-object caches start cold in each pass;
- the reference kernel runs between groups of about 0.1 s of operations;
  each operation's time is scaled by NOMINAL_S over the mean of the two
  kernel readings around its group, so that calibrated figures read as
  seconds on the machine where NOMINAL_S was measured;
- garbage is collected between passes, with the collector off inside;
- each operation keeps its best of PASSES passes. The count is fixed,
  because the best of more passes reads lower; a run that reaches
  ``--seconds`` first stops after the pass under way.

Outputs of the first pass are checked with the benchmark's oracles; later
passes must reproduce them exactly.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import contact
import certify
import membership
import spans

NOMINAL_S = 0.0022       # typical in-run kernel reading, 2-core Xeon sandbox
GROUP_S = 0.1            # operations timed per reference-kernel reading
PASSES = 4               # a fixed count: the best of more passes is lower
KERNEL_REPS = 2

_KA = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
                [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 5.0]])
_KU = np.array([0.3, -0.2, 0.9])
_KV = np.array([-0.5, 0.7, 0.1])


def reference_kernel() -> float:
    """Fixed work: a pure-Python loop with small numpy solves and cross
    products, about the grain of the library's own code."""
    x = np.ones(4)
    acc = 0.0
    for i in range(50):
        x = np.linalg.solve(_KA, x + 1.0)
        c = np.cross(_KU, _KV + x[:3])
        acc += float(c[0]) + float(x[0])
        for j in range(30):
            acc += (i * j % 7) * 0.5
    return acc


def kernel_seconds(reps: int = KERNEL_REPS) -> float:
    """One reading: the best of reps runs of the reference kernel."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# ------------------------------------------------------------- workloads
#
# A workload holds one round of operations. prepare() rebuilds its library
# objects from raw arrays; thunk(i) returns operation i as a call of no
# arguments; judge(i, value, exc) says "ok", "failed" or "wrong", using the
# benchmark's oracles; digest(value) is compared across passes.


def _cone(H, t):
    return H.BallCone(H.BallPoint(t[0]),
                      H.Cap(H.SphereDirection.normalized(t[1]), t[2]))


class Certify:
    """The constructions, PER_LABEL seeded instances of each per round."""

    PER_LABEL = 24
    TAIL_BEYOND = 28  # p90: above it the A6 paths thin out
    def __init__(self, H, rng):
        self.H = H
        # A6 paths take the longest and vary the most: spread their
        # sweeps evenly over [0, 1)
        strata = (rng.permutation(self.PER_LABEL)
                  + rng.random(self.PER_LABEL)) / self.PER_LABEL
        self.ops = [(label, certify.sample(rng, label, u))
                    for u in strata for label in certify.LABELS]
        self.labels = [label for label, _ in self.ops]
        self.check_rng = np.random.default_rng(int(rng.integers(1 << 62)))

    def prepare(self):
        pass

    def thunk(self, i):
        label, raw = self.ops[i]
        return certify.call(self.H, label, raw)

    def judge(self, i, value, exc) -> str:
        if exc is not None:
            return "failed"
        label, raw = self.ops[i]
        return "ok" if certify.check(label, raw, value,
                                     self.check_rng) else "wrong"

    @staticmethod
    def digest(out):
        if hasattr(out, "directions"):
            return (out.half_angle, *(d.v.tobytes() for d in out.directions))
        cones = getattr(out, "cones", None) or getattr(out, "nodes", None)
        cones = [out] if cones is None else [*cones, *getattr(
            out, "witnesses", ())]
        return tuple((c.apex.v.tobytes(), c.base.axis.v.tobytes(),
                      c.base.half_angle) for c in cones)


class Membership:
    """Blocks of in_causal_completion calls over a fixed set of regions;
    each pass builds each region once and all its blocks share it."""

    def __init__(self, H, rng):
        self.H = H
        self.regions = membership.sample(rng)
        self.ops = [(r, b) for b in range(membership.BLOCKS)
                    for r in range(membership.REGIONS)]
        self.labels = ["block"] * len(self.ops)

    TAIL_BEYOND = 10

    def prepare(self):
        H = self.H
        self.built = [
            (H.Hypercone(H.Hyperboloid(tau), _cone(H, cone)),
             [[H.FourVector.from_array(x) for x in events]
              for events, _ in blocks])
            for cone, tau, blocks in self.regions]

    def thunk(self, i):
        r, b = self.ops[i]
        region, blocks = self.built[r]
        events, member = blocks[b], self.H.in_causal_completion
        return lambda: [member(x, region) for x in events]

    def judge(self, i, value, exc) -> str:
        if exc is not None:
            return "failed"
        r, b = self.ops[i]
        expected = self.regions[r][2][b][1]
        return "ok" if np.array_equal(np.array(value, bool),
                                      expected) else "wrong"

    @staticmethod
    def digest(out):
        return tuple(out)


class Contact:
    """Near-contact predicate calls with answers known by construction,
    then the fixed boosted mirror pairs that fail today."""

    def __init__(self, H, rng):
        self.H = H
        self.ops = contact.sample(rng)
        self.ops += [contact.found_mirror(p) for p in contact.FOUND_MIRRORS]
        self.labels = [op[0] for op in self.ops]

    TAIL_BEYOND = 15  # the middle of the 30 in-window mirror pairs

    def prepare(self):
        pass

    def thunk(self, i):
        H = self.H
        kind, a, b, _ = self.ops[i]
        ka = _cone(H, a)
        if kind == "disjoint":
            kb = _cone(H, b)
            call = lambda: H.disjoint(ka, kb).disjoint  # noqa: E731
        elif kind == "cone_leq":
            kb = _cone(H, b)
            call = lambda: H.cone_leq(ka, kb).holds  # noqa: E731
        else:
            tau, center, radius = b
            ball = H.Hyperball(H.Hyperboloid(tau), H.BallPoint(center),
                               radius)
            if kind == "hyperball_in_cone":
                call = lambda: H.hyperball_in_cone(  # noqa: E731
                    ball, ka).holds
            else:
                call = lambda: H.cone_hyperball_disjoint(  # noqa: E731
                    ka, ball).disjoint

        def op():
            try:
                return call()
            except H.DegenerateGeometry:
                return contact.RAISES
        return op

    def judge(self, i, value, exc) -> str:
        expected = self.ops[i][3]
        if exc is None and value == expected:
            return "ok"
        if exc is not None or value == contact.RAISES:
            return "failed"
        return "wrong"

    @staticmethod
    def digest(out):
        return out


WORKLOADS = {"certify": Certify, "membership": Membership,
             "contact": Contact}


# ------------------------------------------------------------ measuring


def measure(work, seconds: float, tracer=None) -> dict:
    """PASSES passes over the round, fewer if the time runs out."""
    n = len(work.ops)
    best = np.full(n, np.inf)
    first: list = [None] * n
    status = [""] * n
    kernels = []
    passes = 0
    deadline = time.perf_counter() + seconds
    gc.collect()
    gc.disable()
    while passes < PASSES and time.perf_counter() < deadline:
        work.prepare()
        thunks = [work.thunk(i) for i in range(n)]
        raw = np.zeros(n)
        group = np.zeros(n, dtype=int)
        since = math.inf
        for i in range(n):
            if since >= GROUP_S:
                kernels.append(kernel_seconds())
                since = 0.0
            group[i] = len(kernels)
            value = exc = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    value = thunks[i]()
                else:
                    value = tracer.span(f"op.{work.labels[i]}", thunks[i])
            except work.H.HyperconesError as e:
                exc = e
            raw[i] = time.perf_counter() - t0
            since += raw[i]
            seen = (type(exc).__name__ if exc is not None
                    else work.digest(value))
            if passes == 0:
                status[i] = work.judge(i, value, exc)
                first[i] = seen
            elif seen != first[i]:
                status[i] = "wrong"  # a pass disagreed with the first
        kernels.append(kernel_seconds())
        # each group of operations is scaled by the kernel readings on
        # either side of it
        k = np.array(kernels)
        best = np.minimum(best, raw * NOMINAL_S
                          / (0.5 * (k[group - 1] + k[group])))
        passes += 1
        del thunks
        gc.enable()
        gc.collect()
        gc.disable()
    gc.enable()
    ok = [i for i in range(n) if status[i] == "ok"]
    times = np.sort(best[ok])
    labels: dict[str, list] = {}
    for i in ok:
        labels.setdefault(work.labels[i], []).append(best[i])
    ratio = NOMINAL_S / float(np.median(kernels))
    return {
        "passes": passes, "attempted": passes * n,
        "failed": passes * status.count("failed"),
        "wrong": status.count("wrong"), "ok": len(ok),
        "not_ok": {str(i): [work.labels[i], status[i]]
                   for i in range(n) if status[i] != "ok"},
        "ops_per_s": len(ok) / float(times.sum()),
        "op_p50_ms": 1e3 * float(np.median(times)),
        # the highest percentile with TAIL_BEYOND samples beyond it
        "op_tail_ms": 1e3 * float(times[-1 - work.TAIL_BEYOND]),
        "ratio": ratio,
        "kernel_ms": 1e3 * float(np.median(kernels)),
        "raw_sum_s": float(times.sum()) / ratio,
        "label_ms": {k: 1e3 * float(np.median(v))
                     for k, v in labels.items()},
        "times_ms": (1e3 * times).tolist(),
    }


def layer_metrics(tracer, passes: int, ratio: float,
                  label_ms: dict) -> dict:
    """Per-round calls and calibrated self time of every traced name."""
    totals = tracer.totals()
    out = {}
    for mod, qual in spans.TRACED:
        calls, busy = totals.get(f"{mod}.{qual}", (0, 0.0))
        out[f"{mod}.{qual}.calls"] = (calls / passes, "count")
        out[f"{mod}.{qual}.self_ms"] = (1e3 * busy * ratio / passes, "ms")
    for name in spans.OPTIMIZERS:
        calls, _ = totals.get(f"scipy.optimize.{name}", (0, 0.0))
        out[f"scipy.optimize.{name}.calls"] = (calls / passes, "count")
    calls = totals.get("cones.disjoint", (0, 0.0))[0]
    out["cones.disjoint.degenerate_share"] = (
        tracer.raised["cones.disjoint"] / calls if calls else 0.0, "share")
    for label in certify.LABELS:
        out[f"constructions.{label}_ms"] = (label_ms.get(label, 0.0), "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import hypercones as H
    work = WORKLOADS[args.workload](H, np.random.default_rng(args.seed))
    warm_up(work)
    print("ready", flush=True)
    kernel = statistics.median(kernel_seconds() for _ in range(9))
    print(json.dumps({"ratio": NOMINAL_S / kernel}), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    res = measure(work, args.seconds, tracer)
    res["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stem = os.path.join(args.out, f"{args.workload}-{args.seed}-"
                        f"{'trace' if args.trace else 'time'}")
    if tracer is not None:
        res["layers"] = layer_metrics(tracer, res["passes"], res["ratio"],
                                      res["label_ms"])
        tracer.save(stem + ".npz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps(res), flush=True)
    return 0


def warm_up(work) -> None:
    """One untimed call of the first operation of each label, so lazy
    imports and first-call costs land in set-up."""
    work.prepare()
    seen = set()
    for i, label in enumerate(work.labels):
        if label not in seen:
            seen.add(label)
            try:
                work.thunk(i)()
            except work.H.HyperconesError:
                pass


if __name__ == "__main__":
    sys.exit(main())
