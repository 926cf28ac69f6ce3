"""The four benchmark workloads: fixed problems, seeded inputs, checked outputs.

Each workload is a fixed verification problem.  The seed only decides
things that must not change the answer (the order surface counts are
requested in, the character-table draw, which mutation targets are
swept), so every seed does the same amount of work and every output can
be checked against a fact pinned here.

``make_inputs`` runs before the timed region and ``run`` is the timed
region.  ``run`` never raises for a wrong or failing program: it counts
ops and failed ops and returns them with a digest of what the program
produced, so the traced and untraced runs can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import traceback
from contextlib import redirect_stdout
from itertools import combinations_with_replacement, product

import orbigw
import orbigw.algebra
import orbigw.cli
import orbigw.correlators
import orbigw.groups
import orbigw.virasoro

S3 = '{"name":"S","param":3}'
S4 = '{"name":"S","param":4}'
Z2 = '{"name":"Z","param":2}'

# Surface counts per group.  ``recursion``: (genus max, class count max) of
# the sorted keys counted by the recursion alone.  ``oracle``: (genera,
# class count max) of the ordered class tuples compared between the
# brute-force oracle and the recursion.  ``digest`` is the sha256 of the
# sorted (genus, classes, "p/q") recursion counts, see ``surface_digest``.
SURFACE_GROUPS = [
    {"label": "S6", "spec": '{"generators":["(0 1)","(0 1 2 3 4 5)"]}',
     "r": 11, "recursion": (1, 2), "oracle": None, "characters": False,
     "digest":
     "f35fbb7198b714ca6f91743f734cfd888e7de2b47a90705d65f3d347ea97da19"},
    {"label": "S5", "spec": '{"name":"S","param":5}',
     "r": 7, "recursion": (2, 3), "oracle": None, "characters": False,
     "digest":
     "3c278118ef1fee1794432f858832aa26bac74cd2f2c0e40922ab30ac23dfb4be"},
    {"label": "S4xD4",
     "spec": '{"product":[{"name":"S","param":4},{"name":"D","param":4}]}',
     "r": 25, "recursion": (1, 1), "oracle": None, "characters": True,
     "digest":
     "37261af801d9c16f2e9c4c6631d7ecf3b4c0b778e23a39c62c5633d49eefae85"},
    {"label": "S4", "spec": S4,
     "r": 5, "recursion": None, "oracle": ((0, 1, 2), 3), "characters": False,
     "digest":
     "855e916a5d644cd1786f5d29a9ff13cf9ee117c39a017c95658aa508bbf8fc78"},
    {"label": "D6", "spec": '{"name":"D","param":6}',
     "r": 6, "recursion": None, "oracle": ((3,), 2), "characters": False,
     "digest":
     "9170a6775cacb3dd5350f78b8755ea81da977f5b322da52210068e90b2bf6fd3"},
]

ORACLE_JOBS = 2

# CLI checks: argv after "check", and the number of reports it must print.
VIRASORO_CHECKS = [
    (["virasoro", "--group", S3, "--degree", "5", "--genus", "2"], 16),
    (["virasoro", "--group", S4, "--degree", "4", "--genus", "1"], 24),
]
KDV_CHECKS = [
    (["kdv", "--group", S3, "--degree", "2", "--genus", "1"], 6),
    (["kdv", "--group", Z2, "--degree", "4", "--genus", "1"], 4),
]

MUTATION_GROUP = S3
MUTATION_SAMPLE = 24


class Outcome:
    """Ops attempted and failed by one workload run, with a result digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._digest = hashlib.sha256()

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def fail_all(self, count: int, what: str):
        for _ in range(count):
            self.op(False, what)

    def feed(self, data: bytes):
        self._digest.update(data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _rat(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def surface_digest(counts: dict) -> str:
    """sha256 over the sorted (genus, classes, "p/q") surface counts."""
    lines = [f"{g}|{','.join(map(str, cls))}|{_rat(v)}"
             for (g, cls), v in sorted(counts.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sorted_keys(g_max: int, n_max: int, r: int) -> list:
    return [(g, cls) for g in range(g_max + 1) for n in range(n_max + 1)
            for cls in combinations_with_replacement(range(r), n)]


def _ordered_keys(genera, n_max: int, r: int) -> list:
    return [(g, cls) for g in genera for n in range(n_max + 1)
            for cls in product(range(r), repeat=n)]


# -- inputs -------------------------------------------------------------------

def make_inputs(workload: str, seed: int, *, groups=None, checks=None,
                mutate=None) -> dict:
    """Everything the timed region needs, generated from ``seed`` alone.

    ``groups``, ``checks`` and ``mutate`` replace the fixed problem; only
    the benchmark's self-test passes them.
    """
    rng = random.Random(seed)
    if workload == "surface":
        tasks = []
        for grp in (SURFACE_GROUPS if groups is None else groups):
            if grp["oracle"] is not None:
                keys = _ordered_keys(*grp["oracle"], grp["r"])
            else:
                keys = _sorted_keys(*grp["recursion"], grp["r"])
            rng.shuffle(keys)
            tasks.append(dict(grp, keys=keys,
                              character_seed=rng.randrange(2 ** 31)))
        return {"tasks": tasks}
    if workload in ("virasoro", "kdv"):
        fixed = VIRASORO_CHECKS if workload == "virasoro" else KDV_CHECKS
        argvs = []
        for argv, n_reports in (fixed if checks is None else checks):
            argv = ["check"] + list(argv) + ["--seed", str(seed)]
            if mutate is not None:
                argv += ["--mutate", json.dumps(mutate)]
            argvs.append((argv, n_reports))
        return {"argvs": argvs}
    if workload == "mutation":
        # The target list comes from the program; listing it fills a few
        # small psi-cache entries before the timed region, nothing more.
        theory = orbigw.OrbifoldTheory(orbigw.group_from_spec(MUTATION_GROUP))
        targets = orbigw.virasoro.mutation_targets(theory)
        return {"spec": MUTATION_GROUP,
                "targets": sorted(rng.sample(targets, MUTATION_SAMPLE))}
    raise ValueError(f"unknown workload {workload!r}")


# -- timed region ---------------------------------------------------------------

def run(workload: str, inputs: dict) -> Outcome:
    out = Outcome()
    if workload == "surface":
        for task in inputs["tasks"]:
            _surface_task(task, out)
    elif workload in ("virasoro", "kdv"):
        for argv, n_reports in inputs["argvs"]:
            _cli_check(argv, n_reports, out)
    elif workload == "mutation":
        _mutation(inputs, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _surface_task(task: dict, out: Outcome):
    label = task["label"]
    ops = 1 + (len(task["keys"]) if task["oracle"] is not None else 0)
    done = out.attempted
    try:
        group = orbigw.groups.group_from_spec(task["spec"])
        theory = orbigw.correlators.OrbifoldTheory(group, jobs=ORACLE_JOBS)
        if theory.r != task["r"]:
            raise AssertionError(f"{theory.r} classes, expected {task['r']}")
        counts = {}
        for genus, classes in task["keys"]:
            value = theory.surface_count(genus, classes)
            counts[(genus, tuple(sorted(classes)))] = value
            if task["oracle"] is not None:
                brute = theory.surface_count_brute(genus, classes)
                out.op(brute == value,
                       f"{label} g={genus} {classes}: oracle {brute} "
                       f"!= recursion {value}")
        if task["characters"]:
            ct = orbigw.algebra.character_table(group, theory.cd,
                                                seed=task["character_seed"])
            orbigw.algebra.canonical_basis(ct, theory.algebra)
            if ct.r != task["r"] or sum(d * d for d in ct.degrees) != group.order:
                raise AssertionError(f"character degrees {ct.degrees}")
        digest = surface_digest(counts)
    except Exception:
        out.fail_all(ops - (out.attempted - done),
                     f"{label}: {traceback.format_exc()}")
        return
    out.feed(f"{label}:{digest}\n".encode())
    out.op(digest == task["digest"],
           f"{label}: digest {digest} != pinned {task['digest']}")


def _cli_check(argv: list, n_reports: int, out: Outcome):
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = orbigw.cli.main(argv)
        text = buf.getvalue()
        payload = json.loads(text)
        reports = payload["reports"]
    except Exception:
        out.fail_all(n_reports, f"{argv}: {traceback.format_exc()}")
        return
    out.feed(text.encode())
    passed = [rep["max_residual"] == "0/1" and rep["checked_monomials"] > 0
              and not rep["violations"] for rep in reports]
    if len(reports) != n_reports or payload["passed"] != all(passed) \
            or code != (0 if all(passed) else 1):
        out.fail_all(n_reports, f"{argv}: exit {code}, {len(reports)} "
                                f"reports, expected {n_reports}")
        return
    for rep, ok in zip(reports, passed):
        out.op(ok, f"{argv} exit {code}: {rep['operator']} residual "
                   f"{rep['max_residual']}, {rep['checked_monomials']} compared")


def _mutation(inputs: dict, out: Outcome):
    targets = inputs["targets"]
    try:
        theory = orbigw.correlators.OrbifoldTheory(
            orbigw.groups.group_from_spec(inputs["spec"]))
        result = orbigw.virasoro.mutation_sensitivity(theory, targets=targets)
    except Exception:
        out.fail_all(len(targets), traceback.format_exc())
        return
    out.feed(json.dumps(result, sort_keys=True).encode())
    missed = {(json.dumps(u["monomial"]), u["lambda"])
              for u in result["undetected"]}
    if result["mutated"] != len(targets):
        out.fail_all(len(targets), f"{result['mutated']} mutated, "
                                   f"expected {len(targets)}")
        return
    for mono, lam in targets:
        key = (json.dumps([[v[0], v[1], e] for v, e in mono]), lam)
        out.op(key not in missed, f"mutation {key} undetected")
