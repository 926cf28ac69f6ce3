"""Planted faults that the named tests must catch.

Each entry of ``MUTANTS`` is (name, file, snippet, replacement, tests).
The script copies the checkout to a temporary directory and runs the
union of the named tests there once, unchanged: they must pass.  Then,
for each mutant, it replaces the snippet, which must occur exactly once
in its file, runs only that mutant's tests from the copy's root (where
``pyproject.toml`` puts ``src`` on the path) and requires pytest to
report failing tests (exit code 1), then restores the file.  A snippet
that no longer matches, a mutant that survives and a run that times out
each fail the script, so the table moves with the code.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

CLI = "src/orbigw/cli.py"
CORRELATORS = "src/orbigw/correlators.py"
GROUPS = "src/orbigw/groups.py"
T_CLI = "tests/test_cli.py::"
T_CORRELATORS = "tests/test_correlators.py::"
BAD_JSON = T_CLI + "test_json_integer_fields_must_be_integers"
PERTURBED = (T_CORRELATORS
             + "test_tensor_check_reports_a_perturbed_product_count")
RELABELLED = "tests/test_relabelling.py"
BRUTE_VS_RECURSIVE = T_CORRELATORS + "test_surface_count_brute_vs_recursive"
SERIES = "src/orbigw/series.py"
VIRASORO = "src/orbigw/virasoro.py"
T_VIRASORO = "tests/test_virasoro.py::"
KDV_ORACLE = T_VIRASORO + "test_kdv_brackets_match_differentiated_potential"
REPORTS_PINNED = T_CLI + "test_report_bytes_pinned"
VIRASORO_ORACLE = (T_VIRASORO
                   + "test_virasoro_brackets_match_differentiated_potential")
GENUS_2_PINNED = T_CLI + "test_genus_2_report_bytes_pinned"
DEEPER_PINNED = T_CLI + "test_deeper_report_bytes_pinned"

MUTANTS = [
    # the brute-force oracle recurses on the commutator, not the product
    ("oracle-recursion", CORRELATORS,
     "            rec(depth + 1, row[c])",
     "            rec(depth + 1, c)",
     [T_CORRELATORS + "test_brute_force_recursion_below_the_last_handle"]),
    # each leaf is the commutator list translated by its prefix's row
    ("oracle-leaf-row", CORRELATORS,
     "flat_b.translate(rows_b[prefix])",
     "flat_b.translate(rows_b[prefix - 1])",
     [BRUTE_VS_RECURSIVE]),
    # the leaves after the last full batch are never counted
    ("oracle-last-batch", CORRELATORS,
     '    _tally(b"".join(leaves), bands, counts)\n'
     "    return counts\n",
     "    return counts\n",
     [BRUTE_VS_RECURSIVE]),
    # neighbouring bands share a value, which is counted twice
    ("oracle-band-bound", CORRELATORS,
     "range(lo, min(lo + width, n))",
     "range(lo, min(lo + width + 1, n))",
     [BRUTE_VS_RECURSIVE]),
    ("empty-correlator-reason", CLI,
     '        if n == 0:\n'
     '            report["vanishing_reason"] = "empty correlator"\n'
     '        elif sum(key.levels)',
     '        if sum(key.levels)',
     [T_CLI + "test_correlator_command"]),
    ("surface-count-reason", CLI,
     '"surface count vanishes"',
     '"dimension"',
     [T_CLI + "test_correlator_command"]),
    ("tensor-skips-genus-1", CORRELATORS,
     "                if lhs != rhs:",
     "                if lhs != rhs and genus != 1:",
     [PERTURBED]),
    ("tensor-prints-str", CORRELATORS,
     '"product": rat_str(lhs),',
     '"product": str(lhs),',
     [PERTURBED]),
    ("idempotency-exit-2", CLI,
     '        sys.stderr.write(f"check failed: {exc}\\n")\n'
     '        return EXIT_CHECK_FAILED',
     '        sys.stderr.write(f"check failed: {exc}\\n")\n'
     '        return EXIT_INPUT_ERROR',
     [T_CLI + "test_idempotent_rounding_is_a_failed_check"]),
    # the inverse metric weighted by class size, not centralizer order
    ("pairs-by-class-size", "src/orbigw/algebra.py",
     "cd.centralizer_of_class(m))",
     "cd.class_size[m])",
     [T_CLI + "test_table_bytes_pinned"]),
    ("iadd-alias-guard", SERIES,
     "        if other is self:\n"
     "            other = other.scale(1)\n",
     "",
     ["tests/test_series.py::test_kernel_cancels_and_widens"]),
    ("diagonal-weight-sign", "src/orbigw/virasoro.py",
     "-rescale(1 - m, alpha)",
     "-rescale(1 + m, alpha)",
     ["tests/test_virasoro.py::test_diagonal_is_rescaled_sum"]),
    ("class-label-bool", CLI,
     "    if type(label) is int:",
     "    if isinstance(label, int):",
     [BAD_JSON]),
    ("short-insertion", CLI,
     "    except (KeyError, TypeError, ValueError) as exc:",
     "    except (KeyError, TypeError) as exc:",
     [BAD_JSON]),
    ("q8-param", GROUPS,
     "        if param:\n"
     '            raise UnsupportedName(f"Q8 takes no param, got {param}")\n',
     "",
     [BAD_JSON]),
    # element index 0 read as the identity: only a relabelled table,
    # where the identity sits elsewhere, tells them apart
    ("identity-class-not-first", GROUPS,
     "order_seed = [g.identity] + [x for x in range(n) if x != g.identity]",
     "order_seed = list(range(n))",
     [RELABELLED]),
    ("oracle-starts-at-0", CORRELATORS,
     "rec(0, self.group.identity)",
     "rec(0, 0)",
     [RELABELLED]),
    ("genus-0-distribution-at-0", CORRELATORS,
     "counts[self.group.identity] = 1",
     "counts[0] = 1",
     [RELABELLED]),
    # every bracket of a family written with the first multiset's classes
    ("family-first-classes", CORRELATORS,
     "fixed_classes + classes)",
     "members[0][1] + classes)",
     [KDV_ORACLE, T_CORRELATORS + "test_bracket_family_shape"]),
    # the family's common denominator without the multiplicity factorials
    ("family-denominator-factorial", CORRELATORS,
     "math.prod(math.factorial(mult)",
     "math.prod((mult)",
     [KDV_ORACLE, T_CORRELATORS + "test_bracket_family_shape"]),
    # the KdV node with two contractions, the symmetric double sum over
    # (j, k), weighted as if each pair j < k counted once
    ("kdv-pair-weight", VIRASORO,
     "node=((0, 0), (0, 0))), 2, 0)",
     "node=((0, 0), (0, 0))), 1, 0)",
     [REPORTS_PINNED, T_VIRASORO + "test_kdv_trivial_and_z2"]),
    # a node bracket stored at lambda^{2(g1+g2)-2}, one step too high
    ("node-lambda-offset", CORRELATORS,
     "lam_offset = -4",
     "lam_offset = -2",
     [VIRASORO_ORACLE, KDV_ORACLE]),
    # the separating node counted as a handle: one genus too many
    ("node-adds-a-genus", CORRELATORS,
     "pairs = len(sum(node, ())) // 2 - 1",
     "pairs = len(sum(node, ())) // 2",
     [VIRASORO_ORACLE, KDV_ORACLE]),
    # P without the split that puts the whole genus on side 1
    ("node-drops-genus-split", CORRELATORS,
     "if off or not 0 <= g1 <= g:",
     "if off or not 0 <= g1 < g:",
     [VIRASORO_ORACLE, KDV_ORACLE]),
    # P summed over the multiset splits of the free levels, not over the
    # labelled subsets
    ("node-unlabelled-subsets", CORRELATORS,
     "nums.append(weight * value.numerator",
     "nums.append(value.numerator",
     [VIRASORO_ORACLE, KDV_ORACLE]),
    # Virasoro n = 2 glues its second-order pairs at levels (0, 0), not
    # (i, n-1-i)
    ("virasoro-handle-levels", VIRASORO,
     "(tuple(sorted((i, n - 1 - i))),)",
     "((0, 0),)",
     [VIRASORO_ORACLE, GENUS_2_PINNED]),
    # a glued handle leaves the surface count at the correlator's genus
    ("handle-adds-no-genus", CORRELATORS,
     "self.surface_count(genus + pairs,",
     "self.surface_count(genus,",
     [T_CORRELATORS + "test_bracket_family_with_a_handle_at_levels_0_1",
      VIRASORO_ORACLE, KDV_ORACLE]),
    # a mutated node bracket gets delta's second factor at class m, not at
    # its inverse m'
    ("virasoro-product-pairs-m-with-m", VIRASORO,
     "(lv, m2) for lv, (_m, m2, _z) in zip(node[1], chosen)",
     "(lv, _m) for lv, (_m, m2, _z) in zip(node[1], chosen)",
     [VIRASORO_ORACLE, KDV_ORACLE]),
    # the first-order bracket at level n, not n + 1
    ("first-order-level-n", VIRASORO,
     "[((spec.n + 1, k), -_coeff_first(spec.n) * w)",
     "[((spec.n, k), -_coeff_first(spec.n) * w)",
     [VIRASORO_ORACLE, GENUS_2_PINNED]),
    # a mutated glued bracket gets delta contracted at levels (0, 0)
    ("delta-handle-levels", VIRASORO,
     "d_delta.second_partial((i, m), (j, m2))",
     "d_delta.second_partial((0, m), (0, m2))",
     [VIRASORO_ORACLE]),
    # a glued unit counted as a handle: one genus too many
    ("unit-adds-a-genus", CORRELATORS,
     "pairs = sum(len(entry) == 2 for entry in handles)",
     "pairs = len(handles)",
     [DEEPER_PINNED, VIRASORO_ORACLE,
      T_CORRELATORS + "test_bracket_family_with_the_unit_glued"]),
    # a mutated first-order bracket gets delta's derivative at class 1,
    # not at the unit's class 0
    ("delta-unit-class-1", VIRASORO,
     "d_delta.partial_derivative((entry[0], 0))",
     "d_delta.partial_derivative((entry[0], 1))",
     [DEEPER_PINNED, VIRASORO_ORACLE]),
    # R_0(0) loses its constant eps(v H)/16
    ("zero-terms-no-constant", VIRASORO,
     "        out.append((TruncatedSeries.constant(caps, const, **kind), "
     "1, 0))",
     "        pass",
     [REPORTS_PINNED, GENUS_2_PINNED]),
    # the first-order reports generated, and compared, at D-2 like the
    # second-order ones
    ("first-order-at-d-minus-2", VIRASORO,
     "replace(caps, degree=degree - order)",
     "replace(caps, degree=degree - 2)",
     [REPORTS_PINNED, VIRASORO_ORACLE]),
    # the Virasoro handle families generated to lambda^{2G-6}, one genus
    # short of the lambda^{2G-4} they are read at
    ("handle-family-one-genus-short", VIRASORO,
     "(tuple(sorted((i, n - 1 - i))),),\n"
     "                           lam_shift=2)",
     "(tuple(sorted((i, n - 1 - i))),),\n"
     "                           lam_shift=4)",
     [VIRASORO_ORACLE, GENUS_2_PINNED]),
    # the support read from the store counts one lambda step above the
    # compared region
    ("support-one-lambda-step-above", SERIES,
     "                    for lam in lc if lam <= lam_max)",
     "                    for lam in lc if lam <= lam_max + 2)",
     [REPORTS_PINNED]),
    # a class block built for one rank served to another
    ("class-block-ignores-r", CORRELATORS,
     "key = (level, mult, r)",
     "key = (level, mult)",
     [KDV_ORACLE]),
    # S with param 1 refused
    ("s1-refused", GROUPS,
     "        if param < 1:\n"
     '            raise UnsupportedName(f"S requires',
     "        if param <= 1:\n"
     '            raise UnsupportedName(f"S requires',
     ["tests/test_groups.py::test_named_groups"]),
    # dihedral rotations named as reflections and back
    ("dihedral-names-swapped", GROUPS,
     "core if b == 0 else",
     "core if b != 0 else",
     [T_CLI + "test_table_bytes_pinned"]),
]


def pytest(copy, tests):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S)


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks"))
        tests = sorted({t for m in chosen for t in m[4]})
        run = pytest(copy, tests)
        if run.returncode != 0:
            print(run.stdout[-2000:])
            print("the named tests fail without a mutant")
            return 1
        failed = []
        for name, rel, snippet, replacement, tests in chosen:
            path = copy / rel
            text = path.read_text(encoding="utf-8")
            if text.count(snippet) != 1:
                verdict = f"snippet occurs {text.count(snippet)} times"
            else:
                path.write_text(text.replace(snippet, replacement),
                                encoding="utf-8")
                started = time.perf_counter()
                try:
                    code = pytest(copy, tests).returncode
                    verdict = "killed" if code == 1 else \
                        f"survived (pytest exit {code})"
                except subprocess.TimeoutExpired:
                    verdict = f"timed out after {TIMEOUT_S} s"
                finally:
                    path.write_text(text, encoding="utf-8")
                verdict += f" in {time.perf_counter() - started:.1f} s"
            print(f"{name}: {verdict}")
            if not verdict.startswith("killed"):
                failed.append(name)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
