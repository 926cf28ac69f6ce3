"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace 1 --spans-out F]
    python3 perfbench/worker.py --workload W --seed N --setup-only

Imports orbigw from the checkout's ``src/``, generates the inputs, and
prints one JSON line: the ``time.monotonic()`` reading at the first
workload call (``run.py`` subtracts its own reading taken before it
started this interpreter, which gives ``setup_s``), then, unless
``--setup-only``, the wall time to a checked result, the peak RSS of this
process and its children, the op counts and a digest of the program's
output.  A fresh interpreter per run keeps the module-level psi cache and
the theory memos cold, as they are for a command-line user.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import orbigw
    if not os.path.abspath(orbigw.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"orbigw imported from {orbigw.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0

    started = time.perf_counter()
    outcome = workloads.run(args.workload, inputs)
    wall_s = time.perf_counter() - started
    result = {
        "first_call": first_call,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:5],
        "digest": outcome.digest,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
