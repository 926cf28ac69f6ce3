"""Command-line front end.

Commands: group, chartable, omega, correlator, potential,
check {cohft|virasoro|kdv|factorization|tensor}.  ``OPTIONS`` holds every
option once; ``COMMANDS`` and ``CHECKS`` give each command only the
options its code reads, besides --group, --format and --out.  Reports are
JSON with sorted keys (or a plain-text rendering); identical
configurations produce byte-identical output.

Exit codes: 0 success / all checks pass, 1 check failure (an idempotent
basis that fails its float check at --tol included), 2 input error (an
option the command does not take included), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import checks
from .algebra import (IdempotencyCheckFailed, canonical_basis,
                      character_table)
from .correlators import (CANONICAL_RESCALED, CLASS_BASIS, CorrelatorKey,
                          MissingCoefficient, OrbifoldTheory, UnstableKey,
                          WorkCapExceeded, tensor_omega_check)
from .groups import (GroupTable, NotAGroup, OrderExceedsLimit,
                     UnsupportedName, group_from_spec)
from .series import SeriesCaps
from .util import float_str, rat_str
from .virasoro import kdv_check, factorization_check, virasoro_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


def _round_floats(obj):
    if isinstance(obj, float):
        return float_str(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, Fraction):
        return rat_str(obj)
    return obj


def emit(report: dict, args) -> None:
    report = _round_floats(report)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []

        def render(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    render(f"{prefix}{k}.", obj[k])
            elif isinstance(obj, list):
                lines.append(f"{prefix[:-1]}: {json.dumps(obj, sort_keys=True)}")
            else:
                lines.append(f"{prefix[:-1]}: {obj}")

        render("", report)
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(str(exc)) from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_group(args) -> GroupTable:
    spec = args.group.strip()
    if not spec.startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                spec = fh.read()
        except OSError as exc:
            raise ValueError(str(exc)) from exc
    return group_from_spec(spec)


def resolve_class_label(theory: OrbifoldTheory, label) -> int:
    """Class labels are indices or representative element names."""
    cd = theory.cd
    if isinstance(label, int):
        idx = label
    else:
        text = str(label).strip()
        try:
            idx = int(text)
        except ValueError:
            names = theory.group.element_names or ()
            if text not in names:
                raise ValueError(f"unknown element name {text!r}")
            return cd.class_of[names.index(text)]
    if not 0 <= idx < cd.r:
        raise ValueError(f"class index {idx} out of range 0..{cd.r - 1}")
    return idx


def cmd_group(args) -> int:
    theory = OrbifoldTheory(load_group(args))
    cd = theory.cd
    g = theory.group
    report = {
        "order": g.order,
        "num_classes": cd.r,
        "class_sizes": list(cd.class_size),
        "centralizer_orders": [cd.centralizer_of_class(k) for k in range(cd.r)],
        "inverse_classes": list(cd.inverse_class),
        "representatives": [g.name_of(cd.representative[k]) for k in range(cd.r)],
    }
    emit(report, args)
    return EXIT_OK


def cmd_chartable(args) -> int:
    theory = OrbifoldTheory(load_group(args))
    ct = character_table(theory.group, theory.cd, tol=args.tol)
    cb = canonical_basis(ct, theory.algebra)
    report = ct.to_json_dict()
    report["nu"] = [rat_str(nu) for nu in cb.nus]
    emit(report, args)
    return EXIT_OK


def cmd_omega(args) -> int:
    theory = OrbifoldTheory(load_group(args), work_cap=args.work_cap,
                            jobs=args.jobs)
    labels = [s for s in (args.classes or "").split(",") if s != ""]
    classes = tuple(resolve_class_label(theory, lab) for lab in labels)
    brute = theory.surface_count_brute(args.genus, classes)
    recursive = theory.surface_count(args.genus, classes)
    report = {
        "genus": args.genus,
        "classes": list(classes),
        "brute_force": rat_str(brute),
        "recursive": rat_str(recursive),
        "agree": brute == recursive,
    }
    if args.profile:
        prof = theory.profile()
        sys.stderr.write(
            f"profile: {prof['enumerated_tuples']} tuples in "
            f"{prof['enumeration_seconds']:.3f}s "
            f"({prof['tuples_per_second']:.3e} tuples/s)\n")
    emit(report, args)
    return EXIT_OK if report["agree"] else EXIT_CHECK_FAILED


def cmd_correlator(args) -> int:
    theory = OrbifoldTheory(load_group(args))
    try:
        key_spec = json.loads(args.key)
        genus = key_spec["genus"]
        raw = [(a, lab) for a, lab in key_spec["insertions"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"--key {args.key!r} is not {{\"genus\": g, "
                         f"\"insertions\": [[level, class], ...]}}") from exc
    for field, value in [("genus", genus), *(("level", a) for a, _ in raw)]:
        if type(value) is not int:
            raise ValueError(f"--key {field} must be an integer, "
                             f"got {value!r}")
    insertions = tuple((a, resolve_class_label(theory, lab)) for a, lab in raw)
    key = CorrelatorKey(genus=genus, insertions=insertions)
    value = theory.orbifold_correlator(key)
    report = {
        "genus": key.genus,
        "insertions": [[a, m] for a, m in key.insertions],
        "value": rat_str(value),
    }
    if not value:
        n = len(key.insertions)
        if n == 0:
            report["vanishing_reason"] = "empty correlator"
        elif sum(key.levels) != 3 * key.genus - 3 + n:
            report["vanishing_reason"] = "dimension"
        else:
            report["vanishing_reason"] = "surface count vanishes"
    emit(report, args)
    return EXIT_OK


def cmd_potential(args) -> int:
    theory = OrbifoldTheory(load_group(args))
    basis = CANONICAL_RESCALED if args.basis == "canonical" else CLASS_BASIS
    caps = SeriesCaps(degree=args.degree, genus=args.genus)
    # Z is exact at lambda <= 2G-2 with this padding (see
    # TruncatedSeries.exponential); F there is the unpadded potential
    padded = SeriesCaps(degree=caps.degree,
                        genus=caps.genus + (caps.degree - 1) // 3)
    phi = theory.potential(padded, basis=basis)

    def rows(series):
        return [row for row in series.to_json_list()
                if row["lambda"] <= caps.lam_ceiling]

    report = {
        "basis": args.basis,
        "caps": {"degree": caps.degree, "genus": caps.genus},
        "potential": rows(phi),
        "partition_function": rows(phi.exponential(genus=caps.genus)),
    }
    emit(report, args)
    return EXIT_OK


def parse_mutate(text):
    """The ``--mutate`` target as a (monomial, lambda) pair, if given."""
    if text is None:
        return None
    try:
        mono_spec, lam = json.loads(text)
        if all(type(x) is int for x in [lam, *sum(mono_spec, [])]):
            return tuple(((a, m), e) for a, m, e in mono_spec), lam
    except (TypeError, ValueError):
        pass
    raise ValueError(f"--mutate {text!r} is not "
                     f"[[[a, m, exp], ...], lambda] in integers")


def cmd_check(args) -> int:
    group = load_group(args)
    if args.which == "tensor":
        report = tensor_omega_check(group, group_from_spec(args.group2),
                                    genus_max=min(args.genus, 2), n_max=3)
    elif args.which == "cohft":
        theory = OrbifoldTheory(group, work_cap=args.work_cap, jobs=args.jobs)
        report = checks.cohft_check(theory, genus_max=min(args.genus, 2),
                                    n_max=4, seed=args.seed)
    else:
        theory = OrbifoldTheory(group)
        if args.which == "virasoro":
            reports = virasoro_check(theory, degree=args.degree,
                                     genus=args.genus,
                                     mutate=parse_mutate(args.mutate))
        elif args.which == "kdv":
            reports = kdv_check(theory, degree=min(args.degree, 4),
                                genus=min(args.genus, 1),
                                mutate=parse_mutate(args.mutate))
        else:
            reports = [factorization_check(theory, degree=args.degree,
                                           genus=args.genus, tol=args.tol)]
        report = {
            "check": args.which,
            "reports": [rep.to_json_dict() for rep in reports],
            "passed": all(rep.passed for rep in reports),
        }
    emit(report, args)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# Every option once; --group, --format and --out go to every command.
OPTIONS = {
    "--group": dict(required=True,
                    help="inline JSON or path to a group spec file"),
    "--group2": dict(required=True,
                     help="second factor for the tensor check"),
    "--genus": dict(type=int, default=2),
    "--degree": dict(type=int, default=6),
    "--tol": dict(type=float, default=1e-9),
    "--work-cap": dict(type=int, default=10 ** 9),
    "--jobs": dict(type=int, default=1),
    "--seed": dict(type=int, default=0),
    "--classes": dict(default="",
                      help="comma-separated class indices or element names"),
    "--profile": dict(action="store_true",
                      help="report enumeration throughput on stderr"),
    "--key": dict(required=True,
                  help='JSON like {"genus":1,"insertions":[[1,"0"]]}'),
    "--basis": dict(choices=("class", "canonical"), default="class"),
    "--mutate": dict(help="debug: JSON [monomial, lambda] coefficient to "
                          "double"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--out": dict(),
}

# (command, help, handler, options it reads besides the common three).
# --seed draws only in cohft.  The benchmark passes it to virasoro and
# kdv, and chartable and factorization keep it for scripts that pass it
# to every command; nothing reads it there.
COMMANDS = (
    ("group", "conjugacy structure report", cmd_group, ()),
    ("chartable", "character table and idempotent data", cmd_chartable,
     ("--tol", "--seed")),
    ("omega", "surface count by both algorithms", cmd_omega,
     ("--genus", "--work-cap", "--jobs", "--classes", "--profile")),
    ("correlator", "one descendant correlator", cmd_correlator, ("--key",)),
    ("potential", "truncated potential and partition function",
     cmd_potential, ("--genus", "--degree", "--basis")),
)

CHECKS = (
    ("cohft", "cutting and forgetting axioms",
     ("--genus", "--seed", "--work-cap", "--jobs")),
    ("virasoro", "Virasoro constraints, both operator families",
     ("--genus", "--degree", "--mutate", "--seed")),
    ("kdv", "KdV identity", ("--genus", "--degree", "--mutate", "--seed")),
    ("factorization", "potential through rescaled idempotent variables",
     ("--genus", "--degree", "--tol", "--seed")),
    ("tensor", "surface counts multiply over a direct product",
     ("--genus", "--group2")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbigw",
        description="Descendant Gromov-Witten theory of a finite group "
                    "classifying orbifold, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, help_text, options):
        p = subparsers.add_parser(name, help=help_text)
        for flag in ("--group", *options, "--format", "--out"):
            p.add_argument(flag, **OPTIONS[flag])
        return p

    for name, help_text, func, options in COMMANDS:
        add(sub, name, help_text, options).set_defaults(func=func)
    kinds = sub.add_parser("check", help="constraint verification") \
        .add_subparsers(dest="which", required=True)
    for name, help_text, options in CHECKS:
        add(kinds, name, help_text, options).set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("genus", "degree"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ValueError(f"--{flag} must be >= 0, got {value}")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        if getattr(args, "work_cap", 0) < 0:
            raise ValueError(f"--work-cap must be >= 0, got {args.work_cap}")
        tol = getattr(args, "tol", 0.0)
        if not 0 <= tol < math.inf:
            raise ValueError(f"--tol must be finite and >= 0, got {tol}")
        # emit opens --out only once the report is ready
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"--out {args.out} is a directory")
        if args.out and not os.path.isdir(
                os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out {args.out} lies in a missing directory")
        return args.func(args)
    except (NotAGroup, UnsupportedName, UnstableKey, ValueError,
            MissingCoefficient, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except IdempotencyCheckFailed as exc:
        # the idempotent basis is float: a --tol below its rounding fails
        # the check, it is not bad input
        sys.stderr.write(f"check failed: {exc}\n")
        return EXIT_CHECK_FAILED
    except (WorkCapExceeded, OrderExceedsLimit) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE_CAP


if __name__ == "__main__":
    sys.exit(main())
