"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/selftest.py

Runs two workloads at toy size, in this process, each once as a control
that must pass and once broken in a way the gate must catch:

* ``surface`` on S3 with the right pinned digest, then with a wrong one;
* ``kdv`` on Z2 at degree 4, genus 1, then with the command line's
  ``--mutate`` hook doubling one genus-zero coefficient, which must make
  the reports fail (exit code 1), not be rejected as bad input.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

S3_TOY = {"label": "S3", "spec": workloads.S3, "r": 3, "recursion": (1, 2),
          "oracle": None, "characters": False,
          "digest": "45fae3b1949e747c41ee464792eb4daff20e9828c2baf3b536d776d863220cf5"}
KDV_TOY = [(["kdv", "--group", workloads.Z2, "--degree", "4", "--genus", "1"], 4)]
# (t_0 of class 0) * (t_0 of class 1)^2 at lambda^-2: a genus-zero term.
KDV_MUTATION = [[[0, 0, 1], [0, 1, 2]], -2]


def error_rate(workload, **problem) -> tuple:
    out = workloads.run(workload, workloads.make_inputs(workload, 1, **problem))
    return out.failed / out.attempted, out.errors


def main() -> int:
    cases = [
        ("surface, pinned digest", "surface", {"groups": [S3_TOY]}, False),
        ("surface, wrong digest", "surface",
         {"groups": [dict(S3_TOY, digest="0" * 64)]}, True),
        ("kdv on Z2", "kdv", {"checks": KDV_TOY}, False),
        ("kdv on Z2, --mutate", "kdv",
         {"checks": KDV_TOY, "mutate": KDV_MUTATION}, True),
    ]
    ok = True
    for label, workload, problem, should_fail in cases:
        rate, errors = error_rate(workload, **problem)
        good = rate > 0 if should_fail else rate == 0
        if should_fail and workload == "kdv":
            good = good and all(" exit 1: " in e for e in errors)
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}: {label}: error_rate {rate:.3f}")
        for line in errors[:2]:
            print(f"    {line.splitlines()[0][:160]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
