"""Benchmark of hypercones: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The library is imported from ``src/`` of
that checkout and nowhere else. Every process started here runs with the
BLAS thread count pinned to 1:

- SETUP_RUNS set-up-only processes, each timed from its start until it
  has imported hypercones, drawn its inputs and warmed up; ``setup_s`` is
  the median, each scaled by the reference kernel as the operations are;
- one measuring process (``bench.py``) that runs the workload for
  ``--seconds`` and writes its result, and with ``--trace 1`` its spans,
  under ``perfbench/out/``.

The last line printed holds ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 2
TIMEOUT_S = 170.0


def spawn(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(HERE, "bench.py"),
                             *args], stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True)


def read_setup(proc: subprocess.Popen, t0: float) -> float:
    """Calibrated seconds from start until the process is ready."""
    if proc.stdout.readline().strip() != "ready":
        raise RuntimeError("benchmark process failed during set-up")
    ready = time.perf_counter() - t0
    return ready * json.loads(proc.stdout.readline())["ratio"]


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark process ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "membership", "contact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hypercones", "__init__.py")):
        print(f"no hypercones package under {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", out_dir]
    deadline = time.time() + TIMEOUT_S
    setups = []
    for i in range(SETUP_RUNS + 1):
        measuring = i == SETUP_RUNS
        t0 = time.perf_counter()
        proc = spawn(common if measuring else [*common, "--setup-only"], env)
        try:
            setups.append(read_setup(proc, t0))
            out = finish(proc, deadline)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    res = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": res["op_tail_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["wrong"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
