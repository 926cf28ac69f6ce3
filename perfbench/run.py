"""orbigw benchmark: time to a verified result on four fixed problems.

    python3 perfbench/run.py --workload surface|virasoro|kdv|mutation \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; orbigw is imported from its ``src/``.
Every measurement is a fresh interpreter started by ``worker.py``:

* ``SETUP_REPS`` interpreters that only import orbigw and generate the
  inputs; ``setup_s`` is the median over these and the workload runs;
* workload runs, one after another, at least ``MIN_RUNS`` and then while
  another fits in ``--seconds``, for ``wall_s`` and ``peak_rss_mb``;
* with ``--trace 1``, each workload run is followed by one with the layer
  wrappers of ``tracing.py`` installed, for the per-layer metrics.  Every
  run must print the same output, traced or not, and each traced run's
  layer self times plus the unattributed remainder must add up to its
  wall time.

Every metric is the median over the runs made; the tracing overhead is
the median traced wall time minus the median untraced one, from runs
taken in turn.  The last line of stdout is the result object; the line
before it records the seed, every run's wall time and the ``src/`` line
count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(HERE, "out")

WORKLOADS = ("surface", "virasoro", "kdv", "mutation")
SETUP_REPS = 5
MIN_RUNS = 3
TIME_LIMIT_S = 170     # every worker has ended this long after start-up


class WorkerFailed(Exception):
    pass


def spawn(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    """Run worker.py once; return its JSON line with ``setup_s`` added.

    The worker runs in its own process group, so that on time-out its
    oracle workers are killed with it.
    """
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline - started)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{' '.join(cmd)} ran past the time limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(cmd)} exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["first_call"] - started
    return out


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "orbigw", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: int, trace: bool):
    deadline = time.monotonic() + TIME_LIMIT_S
    spans = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl")
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
    setups = [] if trace else [
        spawn(deadline, workload, seed, "--setup-only")["setup_s"]
        for _ in range(SETUP_REPS)]
    runs, traced = [], []
    started = time.monotonic()
    while len(runs) < MIN_RUNS or (
            time.monotonic() - started + runs[-1]["wall_s"]
            + (traced[-1]["wall_s"] if trace else 0.0) < seconds):
        runs.append(spawn(deadline, workload, seed))
        if trace:
            traced.append(spawn(deadline, workload, seed, "--trace", "1",
                                "--spans-out", spans))
    setups += [r["setup_s"] for r in runs]

    everything = runs + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    problems = [e for r in everything for e in r["errors"]]
    digests = {r["digest"] for r in everything}
    if len(digests) != 1:
        problems.append(f"runs disagree on the output: {sorted(digests)}")
    walls = [r["wall_s"] for r in runs]
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "runs": len(runs), "wall_s_runs": walls,
            "setup_runs": len(setups), "src_lines": src_lines()}

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                            "MB"),
        }
        return attempted, failed, problems, metrics, meta

    for run in traced:
        accounted = sum(v for v, unit in run["layers"].values() if unit == "s")
        if abs(accounted - run["wall_s"]) > 1e-6 * max(1.0, run["wall_s"]):
            problems.append(f"layer times add up to {accounted}, "
                            f"traced wall is {run['wall_s']}")
    metrics = {name: (statistics.median(r["layers"][name][0] for r in traced),
                      unit)
               for name, (_v, unit) in traced[0]["layers"].items()}
    traced_walls = [r["wall_s"] for r in traced]
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(walls), "s")
    metrics["error_rate"] = (failed / attempted, "ratio")
    meta["traced_wall_s_runs"] = traced_walls
    meta["spans_file"] = os.path.relpath(spans, ROOT)
    return attempted, failed, problems, metrics, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "orbigw")):
        sys.stderr.write(f"no orbigw sources under {SRC}\n")
        return 2
    try:
        attempted, failed, problems, metrics, meta = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, ValueError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps(meta))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
