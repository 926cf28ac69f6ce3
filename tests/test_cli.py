import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import orbigw
import orbigw.cli
import orbigw.groups
import orbigw.virasoro
from orbigw.cli import main
from orbigw.correlators import CANONICAL_RESCALED, CLASS_BASIS, OrbifoldTheory
from orbigw.series import SeriesCaps

Z2 = '{"name":"Z","param":2}'
S3 = '{"name":"S","param":3}'
Z3 = '{"name":"Z","param":3}'


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_group_report():
    code, out = run_cli(["group", "--group", S3])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 6
    assert report["num_classes"] == 3
    assert sorted(report["class_sizes"]) == [1, 2, 3]


def test_group_report_trivial_and_q8():
    code, out = run_cli(["group", "--group", '{"name":"Z","param":1}'])
    assert code == 0 and json.loads(out)["num_classes"] == 1
    code, out = run_cli(["group", "--group", '{"name":"Q8"}'])
    assert code == 0 and json.loads(out)["num_classes"] == 5


def test_chartable():
    code, out = run_cli(["chartable", "--group", S3])
    assert code == 0
    report = json.loads(out)
    assert sorted(report["degrees"]) == [1, 1, 2]
    assert sorted(report["nu"]) == ["1/36", "1/36", "1/9"]
    assert float(report["orthogonality_residual"]) < 1e-9


def test_omega_command():
    code, out = run_cli(["omega", "--group", Z2, "--genus", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["brute_force"] == "2/1"
    assert report["recursive"] == "2/1"
    assert report["agree"] is True


def test_omega_with_named_classes():
    code, out = run_cli(["omega", "--group", S3, "--genus", "0",
                         "--classes", "(0 1),(0 1),(0 1 2)"])
    assert code == 0
    assert json.loads(out)["brute_force"] == "1/1"


def test_correlator_command():
    code, out = run_cli(["correlator", "--group", Z2, "--key",
                         '{"genus":1,"insertions":[[1,0]]}'])
    assert code == 0
    assert json.loads(out)["value"] == "1/12"

    code, out = run_cli(["correlator", "--group", Z2, "--key",
                         '{"genus":1,"insertions":[[2,0]]}'])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "0/1"
    assert report["vanishing_reason"] == "dimension"

    for key, reason in [
            ('{"genus":0,"insertions":[[0,1],[0,0],[0,0]]}',
             "surface count vanishes"),
            ('{"genus":2,"insertions":[]}', "empty correlator")]:
        code, out = run_cli(["correlator", "--group", Z2, "--key", key])
        report = json.loads(out)
        assert code == 0 and report["value"] == "0/1"
        assert report["vanishing_reason"] == reason

    code, _out = run_cli(["correlator", "--group", Z2, "--key",
                          '{"genus":0,"insertions":[[0,0],[0,1]]}'])
    assert code == 2  # unstable key is an input error


def test_potential_command():
    code, out = run_cli(["potential", "--group", '{"name":"Z","param":1}',
                         "--degree", "3", "--genus", "0"])
    assert code == 0
    report = json.loads(out)
    assert len(report["potential"]) == 1
    row = report["potential"][0]
    assert row["coeff"] == "1/6" and row["lambda"] == -2
    assert set(report["caps"]) == {"degree", "genus"}

    code, out = run_cli(["potential", "--group", '{"name":"Z","param":1}',
                         "--degree", "2", "--genus", "0"])
    assert json.loads(out)["potential"] == []


def test_partition_function_includes_higher_genus_products():
    # <tau_4>_2 <tau_0^3>_0 / 3! = 1/6912 reaches lambda^0 through a
    # genus-2 factor above the genus cap: 1/144 + 1/6912
    code, out = run_cli(["potential", "--group", '{"name":"Z","param":1}',
                         "--degree", "4", "--genus", "1"])
    assert code == 0
    rows = {(json.dumps(row["monomial"]), row["lambda"]): row["coeff"]
            for row in json.loads(out)["partition_function"]}
    assert rows[("[[0, 0, 3], [4, 0, 1]]", 0)] == "49/6912"


@pytest.mark.parametrize("group,degree,genus,basis", [
    (Z2, 4, 1, "class"), (Z2, 6, 2, "class"), (S3, 5, 1, "class"),
    (S3, 5, 1, "canonical")])
def test_partition_function_matches_wider_padding(group, degree, genus,
                                                  basis):
    code, out = run_cli(["potential", "--group", group, "--basis", basis,
                         "--degree", str(degree), "--genus", str(genus)])
    assert code == 0
    theory = OrbifoldTheory(orbigw.groups.group_from_spec(group))
    wide = SeriesCaps(degree=degree, genus=genus + (degree - 1) // 3 + 2)
    series_basis = CLASS_BASIS if basis == "class" else CANONICAL_RESCALED
    z = theory.potential(wide, basis=series_basis).exponential()
    expected = [row for row in z.to_json_list()
                if row["lambda"] <= 2 * genus - 2]
    assert json.loads(out)["partition_function"] == expected


def readme_examples():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("orbigw ")]


def test_readme_examples_run():
    examples = readme_examples()
    assert examples
    for argv in examples:
        with redirect_stderr(io.StringIO()):
            code, out = run_cli(argv)
        assert code == 0, argv
        json.loads(out)


def test_check_commands_pass():
    code, out = run_cli(["check", "cohft", "--group", S3, "--genus", "1"])
    assert code == 0 and json.loads(out)["passed"]

    code, out = run_cli(["check", "virasoro", "--group", Z2,
                         "--degree", "4", "--genus", "1"])
    assert code == 0 and json.loads(out)["passed"]

    code, out = run_cli(["check", "kdv", "--group", Z2,
                         "--degree", "3", "--genus", "1"])
    assert code == 0 and json.loads(out)["passed"]

    code, out = run_cli(["check", "factorization", "--group", Z2,
                         "--degree", "4", "--genus", "1", "--tol", "1e-8"])
    assert code == 0 and json.loads(out)["passed"]

    # CLI defaults (D6 G2)
    code, out = run_cli(["check", "factorization", "--group", S3])
    assert code == 0 and json.loads(out)["passed"]

    code, out = run_cli(["check", "tensor", "--group", Z2,
                         "--group2", '{"name":"Z","param":3}',
                         "--genus", "1"])
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("group", [Z2, S3], ids=["Z2", "S3"])
def test_check_virasoro_at_small_caps(group):
    # caps where the potential's levels (<= 3G - 3 + D) stay below the
    # level n + 1 that L_n differentiates in
    for degree, genus in ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1)):
        code, out = run_cli(["check", "virasoro", "--group", group,
                             "--degree", str(degree), "--genus", str(genus)])
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports
        for rep in reports:
            assert rep["max_residual"] == "0/1" and rep["violations"] == []


def test_check_mutation_fails_with_located_violation():
    mutate = json.dumps([[[1, 0, 1]], 0])
    code, out = run_cli(["check", "virasoro", "--group", Z2,
                         "--degree", "5", "--genus", "1",
                         "--mutate", mutate])
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    located = [v for rep in report["reports"] for v in rep["violations"]]
    assert located and "monomial" in located[0]

    # and at genus 0, where D <= 4 leaves every level of the potential
    # below the level n + 1 of some L_n
    code, out = run_cli(["check", "virasoro", "--group", Z2,
                         "--degree", "4", "--genus", "0",
                         "--mutate", json.dumps([[[0, 0, 3]], -2])])
    assert code == 1 and not json.loads(out)["passed"]

    # the KdV identity pulls three-point data, so mutate a genus-0 cube
    mutate = json.dumps([[[0, 0, 1], [0, 1, 2]], -2])
    code, out = run_cli(["check", "kdv", "--group", Z2,
                         "--degree", "4", "--genus", "1",
                         "--mutate", mutate])
    assert code == 1 and not json.loads(out)["passed"]

    # targets the degree-(D+5) potential does not store: degree 9 at genus
    # 0 (off dimension), and genus 3 above the genus cap 2; then malformed
    for target in ([[[0, 0, 9]], -2], [[[0, 0, 3]], 4], [[[0, 0, 1.5]], -2],
                   [[[0, 0]], -2], [[0, 0, 3], -2]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["check", "kdv", "--group", Z2,
                                 "--degree", "4", "--genus", "1",
                                 "--mutate", json.dumps(target)])
        assert code == 2 and out == ""
        assert err.getvalue().startswith("input error")


def parser_options(parser, path=()):
    """{command: set of option flags} over the leaves of the parser tree."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found.update(parser_options(child, path + (name,)))
    return found or {" ".join(path): {
        action.option_strings[-1] for action in parser._actions
        if action.option_strings and action.dest != "help"}}


def test_each_command_takes_only_the_options_it_reads():
    common = {"--group", "--format", "--out"}
    expected = {
        "group": set(),
        "chartable": {"--tol", "--seed"},
        "omega": {"--genus", "--work-cap", "--jobs", "--classes",
                  "--profile"},
        "correlator": {"--key"},
        "potential": {"--genus", "--degree", "--basis"},
        "check virasoro": {"--genus", "--degree", "--mutate", "--seed"},
        "check kdv": {"--genus", "--degree", "--mutate", "--seed"},
        "check factorization": {"--genus", "--degree", "--tol", "--seed"},
        "check cohft": {"--genus", "--seed", "--work-cap", "--jobs"},
        "check tensor": {"--genus", "--group2"},
    }
    found = parser_options(orbigw.cli.build_parser())
    assert found == {cmd: opts | common for cmd, opts in expected.items()}
    assert sum(map(len, found.values())) == 59


@pytest.mark.parametrize("argv", [
    ["check", "factorization", "--degree", "2", "--genus", "0",
     "--mutate", "[[[0,0,3]],-2]"],
    ["check", "cohft", "--genus", "0", "--degree", "3"],
    ["check", "tensor", "--group2", Z2, "--genus", "0", "--seed", "1"],
    ["check", "virasoro", "--degree", "2", "--genus", "0", "--tol", "1"],
    ["group", "--degree", "3"],
    ["group", "--work-cap", "1"],
    ["correlator", "--key", '{"genus":1,"insertions":[[1,0]]}',
     "--genus", "1"],
    ["potential", "--degree", "2", "--genus", "0", "--jobs", "2"],
    ["omega", "--genus", "0", "--tol", "1e-3"],
], ids=["factorization-mutate", "cohft-degree", "tensor-seed",
        "virasoro-tol", "group-degree", "group-work-cap", "correlator-genus",
        "potential-jobs", "omega-tol"])
def test_option_a_command_does_not_read_exits_2(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--group", Z2])
    assert exc.value.code == 2
    assert "unrecognized arguments" in err.getvalue()


@pytest.mark.parametrize("which", ["virasoro", "kdv"])
def test_virasoro_and_kdv_accept_seed(which):
    # the benchmark's virasoro and kdv workloads append --seed N; it draws
    # nothing, so the report bytes do not depend on it
    argv = ["check", which, "--group", Z2, "--degree", "2", "--genus", "0"]
    assert run_cli(argv + ["--seed", "5"]) == run_cli(argv)


def test_exit_codes_for_bad_input():
    code, _ = run_cli(["group", "--group", '{"name":"nope"}'])
    assert code == 2
    code, _ = run_cli(["group", "--group", "not json and not a file"])
    assert code == 2
    code, _ = run_cli(["omega", "--group", S3, "--genus", "2",
                       "--work-cap", "10"])
    assert code == 3
    # a 515-element non-associative loop (order-5 loop x Z_103)
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    table = [[loop5[l1][l2] * 103 + (z1 + z2) % 103
              for l2 in range(5) for z2 in range(103)]
             for l1 in range(5) for z1 in range(103)]
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(["group", "--group", json.dumps({"cayley": table})])
    assert code == 2 and "associativity" in err.getvalue()


@pytest.mark.parametrize("spec, message", [
    ('{"cayley": 5}', "group cayley must be a list of rows"),
    ('{"cayley": [0]}', "group cayley must be a list of rows"),
    ('{"generators": [5]}',
     "group generators must be a list of cycle strings"),
    # a string is not read one character at a time as the trivial group
    ('{"generators": "(0 1)"}',
     "group generators must be a list of cycle strings"),
    ('{"product": 5}', "group product must be a list of group specs"),
    ('{"name": 5}', "group name must be a string, got 5"),
    (str(Path(__file__).parent), "Is a directory"),
    # a spec is one form, and its form reads every key it carries
    ('{"cayley": [[0]], "name": "Z"}',
     "group spec names more than one form: ['name', 'cayley']"),
    ('{"name": "Z", "param": 2, "cayley": 5}',
     "group spec names more than one form: ['name', 'cayley']"),
    ('{"generators": ["(0 1)"], "param": 2}',
     "group spec 'generators' does not read ['param']"),
    # a cycle string is complete cycles and whitespace, nothing else
    ('{"generators": ["(0 1"]}', "malformed cycle string '(0 1'"),
    ('{"generators": ["0 1)"]}', "malformed cycle string '0 1)'"),
    ('{"generators": ["hello"]}', "malformed cycle string 'hello'"),
    ('{"generators": ["(0 1)x"]}', "malformed cycle string '(0 1)x'"),
    ('{"generators": ["(0 1) (2 3"]}',
     "malformed cycle string '(0 1) (2 3'"),
    ('{"generators": ["((0 1))"]}', "malformed cycle string '((0 1))'"),
    # a point is a non-negative integer; -2 indexed past the permutation
    ('{"generators": ["(0 -2)"]}', "malformed cycle string '(0 -2)'"),
], ids=["cayley-int", "cayley-row-int", "generator-int", "generators-string",
        "product-int", "name-int", "directory", "cayley-and-name",
        "name-and-cayley", "param-without-name", "cycle-unclosed",
        "cycle-unopened", "cycle-no-parens", "cycle-trailing-text",
        "cycle-second-unclosed", "cycle-nested", "cycle-negative-point"])
def test_malformed_group_spec_is_input_error(spec, message):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["group", "--group", spec])
    assert code == 2 and out == ""
    assert err.getvalue().startswith("input error: ")
    assert message in err.getvalue()


def test_input_errors_are_named(monkeypatch):
    # a virasoro --mutate target at genus G+1 is not stored in the
    # genus-G potential
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check", "virasoro", "--group", Z2,
                             "--degree", "5", "--genus", "1",
                             "--mutate", json.dumps([[[4, 0, 1]], 2])])
    assert code == 2 and out == ""
    assert err.getvalue() == ("input error: no stored coefficient at "
                              "(((4, 0), 1),) lambda^2\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check", "kdv", "--group", Z2, "--degree", "4",
                             "--genus", "1", "--mutate",
                             json.dumps([[[0, 0, 9]], -2])])
    assert code == 2 and out == ""
    assert err.getvalue().startswith("input error: no stored")
    assert "'" not in err.getvalue()
    # a malformed correlator key is an input error
    for key in ('{"genus": 1}', '[1]', '{"genus": 1, "insertions": [1]}'):
        with redirect_stderr(io.StringIO()):
            code, out = run_cli(["correlator", "--group", Z2, "--key", key])
        assert code == 2 and out == ""
    # an internal KeyError is a failure, not an input error
    def broken(*_args, **_kwargs):
        raise KeyError("internal")
    monkeypatch.setattr(orbigw.cli, "virasoro_check", broken)
    with pytest.raises(KeyError):
        run_cli(["check", "virasoro", "--group", Z2, "--degree", "4",
                 "--genus", "1"])


def test_table_size_cap_exits_3(monkeypatch):
    monkeypatch.setattr(orbigw.groups, "MAX_TABLE_BYTES",
                        orbigw.groups.table_bytes(23))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["group", "--group", '{"name":"S","param":4}'])
    assert code == 3 and out == ""
    assert err.getvalue().startswith("resource cap")


def test_omega_negative_genus_is_input_error():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["omega", "--group", S3, "--genus", "-1"])
    assert code == 2 and out == ""
    assert err.getvalue().startswith("input error")


@pytest.mark.parametrize("argv, message", [
    (["check", "virasoro", "--degree", "-1"], "--degree must be >= 0, got -1"),
    (["check", "kdv", "--degree", "-1"], "--degree must be >= 0, got -1"),
    (["check", "factorization", "--degree", "-2"],
     "--degree must be >= 0, got -2"),
    (["potential", "--genus", "-1"], "--genus must be >= 0, got -1"),
    (["check", "cohft", "--genus", "-1"], "--genus must be >= 0, got -1"),
    (["correlator", "--key",
      '{"genus": 0, "insertions": [[-1, 0], [1, 0], [1, 0], [0, 0], [0, 0]]}'],
     "descendant levels must be >= 0"),
], ids=["virasoro", "kdv", "factorization", "potential", "cohft",
        "correlator"])
def test_negative_caps_and_levels_are_input_errors(argv, message):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--group", Z2])
    assert code == 2 and out == ""
    assert err.getvalue() == f"input error: {message}\n"


def test_factorization_at_cli_defaults_on_q8():
    code, out = run_cli(["check", "factorization", "--group", '{"name":"Q8"}'])
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["reports"][0]["checked_monomials"] == 133206


@pytest.mark.parametrize("argv, tol", [
    (["check", "factorization", "--degree", "4", "--genus", "1"], "nan"),
    (["check", "factorization", "--degree", "4", "--genus", "1"], "inf"),
    (["chartable"], "nan"),
    (["chartable"], "-0.5"),
], ids=["factorization-nan", "factorization-inf", "chartable-nan",
        "chartable-negative"])
def test_tol_that_cannot_fail_is_input_error(argv, tol):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--group", Z2, "--tol", tol])
    assert code == 2 and out == ""
    assert err.getvalue() == (f"input error: --tol must be finite and "
                              f">= 0, got {float(tol)}\n")


def test_idempotent_rounding_is_a_failed_check(monkeypatch):
    # --tol 0 is a valid tolerance, and S3's float idempotent check then
    # fails on rounding: a failed check (exit 1), not an input error
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["chartable", "--group", S3, "--tol", "0"])
    assert code == 1 and out == ""
    assert err.getvalue() == "check failed: f_0 * f_2 residual 2.776e-17\n"
    # check factorization builds the basis at the table's own tolerance;
    # a table at tolerance 0 fails there the same way
    real = orbigw.virasoro.character_table
    monkeypatch.setattr(orbigw.virasoro, "character_table",
                        lambda group, cd: real(group, cd, tol=0))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check", "factorization", "--group", S3,
                             "--degree", "2", "--genus", "0"])
    assert code == 1 and out == ""
    assert err.getvalue() == "check failed: f_0 * f_2 residual 2.776e-17\n"


@pytest.mark.parametrize("argv, message", [
    (["correlator", "--group", Z2, "--key",
      '{"genus":1.5,"insertions":[[1,0]]}'],
     "--key genus must be an integer, got 1.5"),
    (["correlator", "--group", Z2, "--key",
      '{"genus":"1","insertions":[[1,0]]}'],
     "--key genus must be an integer, got '1'"),
    (["correlator", "--group", Z2, "--key",
      '{"genus":1,"insertions":[[1.9,0]]}'],
     "--key level must be an integer, got 1.9"),
    (["group", "--group", '{"name":"S","param":3.7}'],
     "group param must be an integer, got 3.7"),
    (["group", "--group", '{"cayley":[[0,1.5],[1,0]]}'],
     "cayley entry in row 0 must be an integer, got 1.5"),
], ids=["genus-float", "genus-string", "level-float", "param-float",
        "cayley-float"])
def test_json_integer_fields_must_be_integers(argv, message):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert err.getvalue() == f"input error: {message}\n"


@pytest.mark.parametrize("which", ["virasoro", "kdv"])
def test_empty_mutate_is_input_error(which):
    # an empty target is malformed, not "no mutation"
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check", which, "--group", Z2, "--mutate", ""])
    assert code == 2 and out == ""
    assert err.getvalue() == ("input error: --mutate '' is not "
                              "[[[a, m, exp], ...], lambda] in integers\n")


def test_byte_identical_reports():
    argv = ["check", "virasoro", "--group", Z2, "--degree", "4",
            "--genus", "1", "--seed", "7"]
    _code, first = run_cli(argv)
    _code, second = run_cli(argv)
    assert first == second

    argv = ["chartable", "--group", S3, "--seed", "3"]
    _code, first = run_cli(argv)
    _code, second = run_cli(argv)
    assert first == second


# sha256 of stdout; violation order, lhs/rhs and max_residual of the
# failing --mutate runs are pinned with the rest of the bytes
PINNED_REPORTS = [
    ("virasoro", Z2, 4, None,
     "71fb5893047ed6270eeb0980b97a4be27974e9dc09c834d2f6dea7585ba35168"),
    ("virasoro", S3, 4, None,
     "d6746ec7cb3db610ebf66e6a237da893a738229e6f4913805cba5e88dc64418a"),
    ("kdv", Z2, 4, None,
     "9ab7b4805b706a4f64fc0bc156e31de4094dcacb68d3add67e4106fb2d9bf849"),
    ("kdv", S3, 2, None,
     "0792e996a15ece732b6826db7f63cc42b26082f49830c50af1f7713a90fa33cd"),
    ("virasoro", Z2, 4, "[[[0,0,1],[0,1,2]],-2]",
     "c886b75aa2b4b01c7e4c1ad303b82e7f8108c27e6de5551a1206025fb6465926"),
    ("kdv", Z2, 4, "[[[0,0,1],[0,1,2]],-2]",
     "58f75ff28089d6620722225d104c3a24361847ef79ba90512009523e4c7fa64e"),
    # the n = -1 residual reaches its largest |c| at both signs, so this
    # pins which one max_residual reports
    ("virasoro", Z2, 4, "[[[0,0,3]],-2]",
     "bc6d4dc354cc62a1992803a19751ea7f95c1f2202b087bd225e78aeffd304ae2"),
    # Z3 has classes that are not self-inverse, so these pin the
    # inverse-class pairing of the diagonal operator; the mutated run's
    # largest |c| also comes at both signs
    ("virasoro", Z3, 4, None,
     "d337cd91ab4361f847c90e94b84495e86df2973d4e0e76ea4e4527bdeb1ab922"),
    ("virasoro", Z3, 4, "[[[0,1,1],[0,2,1],[0,0,1]],-2]",
     "d2a2d824d14dc61257cb43eb6d3f960b3181b47cf91dd2cad6c649137a43c99d"),
    # the exponent 2 makes the mutated KdV brackets carry M!/M'!
    ("kdv", S3, 3, "[[[0,1,1],[0,2,2],[1,1,1]],-2]",
     "db672a779713ef225d4920aa5b6fcc04c7301fee6c3c218622519cedb7ce1654"),
    ("kdv", Z3, 3, "[[[0,1,1],[1,1,1],[1,2,1],[2,2,1]],0]",
     "5dfe50a3938803c1c1e1f5e1153b2935f75f19c5669422fc4409bf63f3884e7b"),
    ("virasoro", S3, 4, "[[[0,1,1],[0,2,2],[1,1,1]],-2]",
     "99fd5d03d7b785650ac21e3a168a0fddc78afbbc347f337a7ee4ecdb3c2b0222"),
    # delta meets a glued pair: Z3's classes 1 and 2 are mutual inverses,
    # and the first target reaches the two-handle five-point bracket
    ("kdv", Z3, 3, "[[[0,0,1],[0,1,2],[0,2,2],[3,0,1]],-2]",
     "53bc9c7fce88d3eb594fedcd97201641dac4bc4722f72375226ffee8046d829f"),
    ("kdv", Z3, 3, "[[[0,0,1],[0,1,1],[0,2,1],[1,0,1]],-2]",
     "bb547cbc399db385a9bd7377888d4406d9241999577e2af58d5422944745a1ae"),
]


# sha256 of stdout at the defaults: chartable prints the float table and
# the nus of the idempotent basis, whose pairing check reads the class
# algebra's pairs; group prints the inverse classes and centralizer orders
# those pairs are made of
A5 = '{"generators":["(0 1 2)","(0 1 2 3 4)"]}'
S4xD4 = '{"product":[{"name":"S","param":4},{"name":"D","param":4}]}'
PINNED_TABLES = [
    ("chartable", S3,
     "058a9057d014d5644cb585f7dc79ad5183a94d99a74de163b375b15d7b4a5422"),
    ("chartable", '{"name":"Q8"}',
     "8d3f5cb074c3e3a01af6bac97e863685485f7edd8cb872ea793fc99ac519ade6"),
    ("chartable", '{"name":"Z","param":4}',
     "3b3c512b4b250212d0148415e86d614097666b78250102e508485a98e9e33e64"),
    ("chartable", A5,
     "bf0c83664eece3b054054ddfce21b0c800acc66d2b1398865533e72576e9fec2"),
    ("chartable", S4xD4,
     "33ace3df22d8b0c27b10d10124e71c35bef406c02c96cea749f5af1e113f25b2"),
    ("group", S3,
     "8d75a7daa3068f91811097c5c3705410bf6eeb74d1c1c7c44a51360655bc8be0"),
    ("group", Z3,
     "9ac6edb91f7fd26661e4dea6a1ed702d0898055f3ff3fe3fd5fe9d54971d3c0e"),
]


@pytest.mark.parametrize("command,group,digest", PINNED_TABLES,
                         ids=["chartable-S3", "chartable-Q8", "chartable-Z4",
                              "chartable-A5", "chartable-S4xD4", "group-S3",
                              "group-Z3"])
def test_table_bytes_pinned(command, group, digest):
    code, out = run_cli([command, "--group", group])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("which,group,degree,mutate,digest", PINNED_REPORTS)
def test_report_bytes_pinned(which, group, degree, mutate, digest):
    argv = ["check", which, "--group", group, "--degree", str(degree),
            "--genus", "1"]
    if mutate is not None:
        argv += ["--mutate", mutate]
    code, out = run_cli(argv)
    assert code == (0 if mutate is None else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [["omega", "--group", S3, "--genus", "1"],
                                  ["check", "cohft", "--group", Z2]],
                         ids=["omega", "cohft"])
def test_jobs_below_one_is_input_error(argv, jobs):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--jobs", jobs])
    assert code == 2 and out == ""
    assert err.getvalue() == f"input error: --jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("argv", [["omega", "--group", S3, "--genus", "1"],
                                  ["check", "cohft", "--group", Z2]],
                         ids=["omega", "cohft"])
def test_negative_work_cap_is_input_error(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--work-cap", "-5"])
    assert code == 2 and out == ""
    assert err.getvalue() == "input error: --work-cap must be >= 0, got -5\n"
    # a cap of 0 is a legal cap that any enumeration exceeds
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv + ["--work-cap", "0"])
    assert code == 3 and out == ""
    assert err.getvalue().startswith("resource cap: ")


def test_jobs_flag_does_not_change_output():
    base = ["omega", "--group", S3, "--genus", "2"]
    _c, one = run_cli(base + ["--jobs", "1"])
    _c, four = run_cli(base + ["--jobs", "4"])
    assert one == four


def test_text_format_and_out_file(tmp_path):
    out_path = tmp_path / "report.txt"
    code, stdout = run_cli(["group", "--group", Z2, "--format", "text",
                            "--out", str(out_path)])
    assert code == 0
    assert stdout == ""
    text = out_path.read_text()
    assert "order: 2" in text


def test_out_file_that_cannot_be_opened_is_input_error(tmp_path):
    # a directory, or a file in a missing directory, is named on stderr
    for out_path in (tmp_path, tmp_path / "missing" / "report.json"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, stdout = run_cli(["group", "--group", Z2,
                                    "--out", str(out_path)])
        assert code == 2 and stdout == ""
        assert err.getvalue().startswith("input error: ")
        assert str(out_path) in err.getvalue()


def test_out_is_checked_before_any_work(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the check ran")

    monkeypatch.setattr(orbigw.cli, "virasoro_check", unreachable)
    for out_path in (tmp_path, tmp_path / "missing" / "report.json"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, stdout = run_cli(["check", "virasoro", "--group", Z2,
                                    "--out", str(out_path)])
        assert code == 2 and stdout == ""
        assert str(out_path) in err.getvalue()


def test_existing_out_file_is_kept_until_the_report_is_ready(tmp_path,
                                                             monkeypatch):
    out_path = tmp_path / "report.json"
    out_path.write_text("earlier report\n")

    def interrupted(*args, **kwargs):
        assert out_path.read_text() == "earlier report\n"
        raise RuntimeError("the run stops midway")

    monkeypatch.setattr(orbigw.cli, "virasoro_check", interrupted)
    with pytest.raises(RuntimeError, match="midway"):
        run_cli(["check", "virasoro", "--group", Z2, "--out", str(out_path)])
    assert out_path.read_text() == "earlier report\n"


def test_degenerate_spectrum_is_not_an_input_error(monkeypatch):
    # the exact table raises it only on an internal fault
    from orbigw.algebra import DegenerateSpectrum

    def fault(*args, **kwargs):
        raise DegenerateSpectrum("internal fault")

    monkeypatch.setattr(orbigw.cli, "character_table", fault)
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(DegenerateSpectrum):
        run_cli(["chartable", "--group", S3])
    assert "input error" not in err.getvalue()


def run_cli_process(argv):
    """The CLI in a fresh interpreter that imports this same orbigw."""
    src = os.path.dirname(os.path.dirname(orbigw.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "orbigw.cli", *argv],
                          capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_cross_process_determinism():
    argv = ["chartable", "--group", S3, "--seed", "3"]
    first = run_cli_process(argv).stdout
    second = run_cli_process(argv).stdout
    assert first == second and first


def test_profile_goes_to_stderr():
    argv = ["omega", "--group", S3, "--genus", "1", "--profile"]
    done = run_cli_process(argv)
    assert b"tuples/s" in done.stderr
    assert json.loads(done.stdout)["agree"] is True
    # profiling must not perturb the report bytes
    plain = run_cli_process(argv[:-1])
    assert plain.stdout == done.stdout


def test_group_spec_from_file(tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text('{"product":[{"name":"Z","param":2},'
                    '{"name":"Z","param":3}]}')
    code, out = run_cli(["group", "--group", str(spec)])
    assert code == 0
    assert json.loads(out)["order"] == 6
