"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every numeric tolerance is pinned here; exact means rational equality.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from itertools import combinations_with_replacement, product

import orbigw.correlators
from orbigw.algebra import canonical_basis, character_table
from orbigw.checks import (cutting_loops_check, cutting_trees_check,
                           forgetting_tails_check, invariance_check)
from orbigw.cli import main as cli_main
from orbigw.correlators import (CorrelatorKey, OrbifoldTheory,
                                genus0_closed_form, psi_correlator,
                                tensor_omega_check)
from orbigw.groups import direct_product, named_group
from orbigw.util import Q
from orbigw.virasoro import (factorization_check, kdv_check,
                             mutation_sensitivity, virasoro_check)

GROUP_BUILDERS = {
    "Z1": lambda: named_group("Z", 1), "Z2": lambda: named_group("Z", 2),
    "Z3": lambda: named_group("Z", 3), "Z4": lambda: named_group("Z", 4),
    "Z5": lambda: named_group("Z", 5), "Z6": lambda: named_group("Z", 6),
    "Z7": lambda: named_group("Z", 7), "Z8": lambda: named_group("Z", 8),
    "S3": lambda: named_group("S", 3), "S4": lambda: named_group("S", 4),
    "D4": lambda: named_group("D", 4), "D5": lambda: named_group("D", 5),
    "Q8": lambda: named_group("Q8"),
    "Z2xZ2": lambda: direct_product(named_group("Z", 2), named_group("Z", 2)),
    "Z2xZ3": lambda: direct_product(named_group("Z", 2), named_group("Z", 3)),
}

_theories = {}


def theory(name, **kw):
    if name not in _theories:
        _theories[name] = OrbifoldTheory(GROUP_BUILDERS[name](), **kw)
    return _theories[name]


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_frobenius_structure():
    started = time.perf_counter()
    for name in GROUP_BUILDERS:
        alg = theory(name).algebra
        r = alg.r
        basis = [alg.basis_vector(k) for k in range(r)]
        for i in range(r):
            for j in range(r):
                ij = alg.quantum_product(basis[i], basis[j])
                assert ij == alg.quantum_product(basis[j], basis[i]), name
                for k in range(r):
                    assert alg.quantum_product(ij, basis[k]) == \
                        alg.quantum_product(basis[i], alg.quantum_product(
                            basis[j], basis[k])), name
                    assert alg.eta(ij, basis[k]) == alg.eta(
                        basis[i], alg.quantum_product(basis[j], basis[k])), name
        for k in range(r):
            assert alg.quantum_product(alg.unit(), basis[k]) == basis[k], name
    elapsed = time.perf_counter() - started
    report_line(1, elapsed < 10.0,
                f"Frobenius axioms exact on {len(GROUP_BUILDERS)} groups "
                f"({elapsed:.1f}s < 10s)")


def test_criterion_02_oracle_equivalence(monkeypatch):
    # every group is far below the tuple threshold: lowered to 0, jobs = 4
    # forks a real pool
    monkeypatch.setattr(orbigw.correlators, "POOL_MIN_TUPLES", 0)
    started = time.perf_counter()
    compared = 0
    for name in GROUP_BUILDERS:
        th = theory(name)
        th.jobs = 4
        for genus in range(3):
            for n in range(4):
                for cls in combinations_with_replacement(range(th.r), n):
                    brute = th.surface_count_brute(genus, cls)
                    recursive = th.surface_count(genus, cls)
                    assert brute == recursive, (name, genus, cls)
                    compared += 1
        th.jobs = 1
    elapsed = time.perf_counter() - started
    report_line(2, elapsed < 300.0,
                f"recursion == enumeration on {compared} keys across "
                f"{len(GROUP_BUILDERS)} groups ({elapsed:.1f}s < 300s)")


def test_criterion_03_cohft_axioms():
    ok = True
    checked = 0
    for name in ("S3", "Q8"):
        th = theory(name)
        for part in (cutting_trees_check(th, genus_max=2, n_max=4),
                     cutting_loops_check(th, genus_max=2, n_max=4),
                     forgetting_tails_check(th, genus_max=2, n_max=4),
                     invariance_check(th, genus_max=2, n_max=4, seed=2002)):
            ok = ok and part["passed"]
            checked += part["checked"]
    report_line(3, ok, f"cutting/forgetting/invariance identities exact "
                       f"({checked} instances on S3 and Q8)")


def test_separating_node_identity_on_every_group():
    # sum_m z_m Omega_{g1}(C1, m) Omega_{g2}(m', C2) = Omega_{g1+g2}(C1 + C2)
    # on each group's own inverse-metric pairs: the identity the node
    # brackets of the Virasoro and KdV checks glue by, with no product
    checked = 0
    for name in GROUP_BUILDERS:
        th = theory(name)
        count, pairs = th.surface_count, th.algebra.pairs()
        multisets = [c for n in range(4)
                     for c in combinations_with_replacement(range(th.r), n)]
        for c1, c2 in product(multisets, repeat=2):
            if len(c1) + len(c2) > 3:
                continue
            for g1, g2 in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)):
                glued = sum(z * count(g1, c1 + (m,)) * count(g2, (m2,) + c2)
                            for m, m2, z in pairs)
                assert glued == count(g1 + g2, c1 + c2), (name, g1, g2, c1,
                                                          c2)
                checked += 1
    print(f"separating node identity exact on {checked} keys across "
          f"{len(GROUP_BUILDERS)} groups")


def test_criterion_04_tensor_law():
    rep1 = tensor_omega_check(named_group("Z", 2), named_group("Z", 3),
                              genus_max=2, n_max=3)
    rep2 = tensor_omega_check(named_group("Z", 2), named_group("Z", 2),
                              genus_max=2, n_max=3)
    ok = rep1["passed"] and rep2["passed"]
    report_line(4, ok, f"product counts multiply exactly "
                       f"({rep1['checked']} + {rep2['checked']} keys)")


def test_criterion_05_intersection_numbers():
    count = 0
    for n in range(3, 8):
        target = n - 3
        for levels in combinations_with_replacement(range(target + 1), n):
            if sum(levels) != target:
                continue
            oracle = Q(math.factorial(n - 3))
            for a in levels:
                oracle /= math.factorial(a)
            assert psi_correlator(0, levels) == oracle
            assert genus0_closed_form(levels) == oracle
            count += 1
    assert psi_correlator(1, (1,)) == Q(1, 24)
    assert psi_correlator(2, (4,)) == Q(1, 1152)
    report_line(5, True,
                f"genus-0 closed form on {count} keys (n <= 7); "
                f"<tau_1>_1 = 1/24, <tau_4>_2 = 1/1152 "
                f"(cross-confirmed by criterion 7)")


def test_criterion_06_semisimplicity():
    worst = 0.0
    for name in ("S3", "Q8", "Z6"):
        th = theory(name)
        ct = character_table(th.group, th.cd, tol=1e-9)
        cb = canonical_basis(ct, th.algebra)  # verifies ss axioms
        keys = [(0, (0, 0, 0)), (0, (1, 0, 0, 0)), (1, (1,)), (1, (2, 0)),
                (1, (1, 1)), (2, (4,)), (2, (3, 2)), (2, (5, 0))]
        for alpha in range(th.r):
            vec = cb.vectors[alpha]
            for genus, levels in keys:
                expected = complex(th.canonical_correlator(
                    genus, cb.nus, tuple((a, alpha) for a in levels)))
                total = 0j
                for cls in product(range(th.r), repeat=len(levels)):
                    weight = 1
                    for m in cls:
                        weight *= vec[m]
                    if not weight:
                        continue
                    total += weight * complex(th.orbifold_correlator(
                        CorrelatorKey(genus, tuple(zip(levels, cls)))))
                worst = max(worst, abs(total - expected))
    report_line(6, worst < 1e-9,
                f"idempotent axioms at 1e-9 on S3, Q8, Z6; multilinear "
                f"correlator cross-check worst residual {worst:.2e} < 1e-9")


def test_criterion_07_virasoro_annihilation():
    started = time.perf_counter()
    ok = True
    total_checked = 0
    for name in ("Z1", "Z2", "S3"):
        reports = virasoro_check(theory(name), degree=6, genus=2)
        for rep in reports:
            ok = ok and rep.passed and rep.max_residual == 0
            total_checked += rep.checked_monomials
    elapsed = time.perf_counter() - started
    report_line(7, ok and elapsed < 120.0,
                f"L_n Z = 0 exactly, both families, n in -1..2, D=6, G=2 "
                f"({total_checked} coefficients; {elapsed:.1f}s < 120s)")


def test_criterion_08_kdv():
    ok = True
    total_checked = 0
    for name in ("Z1", "Z2", "S3"):
        reports = kdv_check(theory(name), degree=4, genus=1)
        for rep in reports:
            ok = ok and rep.passed and rep.max_residual == 0
            total_checked += rep.checked_monomials
    report_line(8, ok, f"KdV identity exact, a <= 2, D=4, G=1 "
                       f"({total_checked} coefficients)")


def test_criterion_09_factorization():
    rep_z2 = factorization_check(theory("Z2"), degree=6, genus=2, tol=1e-8)
    rep_s3 = factorization_check(theory("S3"), degree=4, genus=1, tol=1e-8)
    ok = rep_z2.passed and rep_s3.passed
    report_line(9, ok,
                f"potential factorizes through rescaled idempotent "
                f"variables: Z2 residual {rep_z2.max_residual:.2e}, "
                f"S3 residual {rep_s3.max_residual:.2e} < 1e-8")


def test_criterion_10_mutation_sensitivity():
    total = 0
    ok = True
    for name in ("Z1", "Z2", "S3"):
        out = mutation_sensitivity(theory(name))
        total += out["mutated"]
        ok = ok and out["passed"]
    report_line(10, ok,
                f"all {total} doubled genus<=1 coefficients tripped a "
                f"Virasoro or KdV residual")


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_11_determinism(monkeypatch):
    # S4 at genus 2 is far below the tuple threshold: lowered to 0,
    # --jobs 4 forks a real pool
    monkeypatch.setattr(orbigw.correlators, "POOL_MIN_TUPLES", 0)
    ok = True
    for argv in (
        ["check", "virasoro", "--group", '{"name":"Z","param":2}',
         "--degree", "4", "--genus", "1", "--seed", "11"],
        ["chartable", "--group", '{"name":"S","param":3}', "--seed", "11"],
        ["potential", "--group", '{"name":"Z","param":2}', "--degree", "4",
         "--genus", "1"],
    ):
        _c, first = _run_cli(argv)
        _c, second = _run_cli(argv)
        ok = ok and first == second and first
    base = ["omega", "--group", '{"name":"S","param":4}', "--genus", "2"]
    _c, jobs1 = _run_cli(base + ["--jobs", "1"])
    _c, jobs4 = _run_cli(base + ["--jobs", "4"])
    ok = ok and jobs1 == jobs4
    assert json.loads(jobs1)["agree"] is True
    report_line(11, ok, "byte-identical reports per seed; counts "
                        "independent of --jobs")
