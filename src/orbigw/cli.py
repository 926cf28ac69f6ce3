"""Command-line front end.

Commands: group, chartable, omega, correlator, potential,
check {cohft|virasoro|kdv|factorization|tensor}.  Reports are JSON with
sorted keys (or a plain-text rendering); identical configurations produce
byte-identical output.

Exit codes: 0 success / all checks pass, 1 check failure, 2 input error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import checks
from .algebra import (DegenerateSpectrum, IdempotencyCheckFailed,
                      canonical_basis, character_table)
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
    if isinstance(obj, complex):
        return [float_str(obj.real), float_str(obj.imag)]
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_group(args) -> GroupTable:
    spec = args.group
    if spec is None:
        raise ValueError("--group is required")
    spec = spec.strip()
    if not spec.startswith("{"):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = fh.read()
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
    ct = character_table(theory.group, theory.cd, tol=args.tol, seed=args.seed)
    cb = canonical_basis(ct, theory.algebra)
    r = ct.r
    worst = 0.0
    for a in range(r):
        for b in range(r):
            s = sum(theory.cd.class_size[k] * ct.values[a][k]
                    * ct.values[b][k].conjugate() for k in range(r))
            s = s / theory.group.order - (1.0 if a == b else 0.0)
            worst = max(worst, abs(s))
    report = ct.to_json_dict()
    report["orthogonality_residual"] = worst
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
    theory = OrbifoldTheory(load_group(args), work_cap=args.work_cap)
    try:
        key_spec = json.loads(args.key)
        genus = int(key_spec["genus"])
        raw = [(int(a), lab) for a, lab in key_spec["insertions"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"--key {args.key!r} is not {{\"genus\": g, "
                         f"\"insertions\": [[level, class], ...]}}") from exc
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
    theory = OrbifoldTheory(load_group(args), work_cap=args.work_cap)
    basis = CANONICAL_RESCALED if args.basis == "canonical" else CLASS_BASIS
    caps = SeriesCaps(degree=args.degree, genus=args.genus)
    phi = theory.potential(caps, basis=basis)
    # exact at lambda <= 2G-2 with this padding (see TruncatedSeries.exponential)
    padded = SeriesCaps(degree=caps.degree,
                        genus=caps.genus + (caps.degree - 1) // 3)
    z = theory.potential(padded, basis=basis).exponential()
    report = {
        "basis": args.basis,
        "caps": {"degree": caps.degree, "genus": caps.genus},
        "potential": phi.to_json_list(),
        "partition_function": [row for row in z.to_json_list()
                               if row["lambda"] <= caps.lam_ceiling],
    }
    emit(report, args)
    return EXIT_OK


def cmd_check(args) -> int:
    theory = OrbifoldTheory(load_group(args), work_cap=args.work_cap,
                            jobs=args.jobs)
    mutate = None
    if args.mutate:
        try:
            mono_spec, lam = json.loads(args.mutate)
            mutate = (tuple(((a, m), e) for a, m, e in mono_spec), lam)
            integral = all(type(x) is int for x in [lam, *sum(mono_spec, [])])
        except (TypeError, ValueError):
            integral = False
        if not integral:
            raise ValueError(f"--mutate {args.mutate!r} is not "
                             f"[[[a, m, exp], ...], lambda] in integers")

    if args.which == "cohft":
        report = checks.cohft_check(theory, genus_max=min(args.genus, 2),
                                    n_max=4, seed=args.seed)
        emit(report, args)
        return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED

    if args.which == "tensor":
        if args.group2 is None:
            raise ValueError("check tensor requires --group2")
        g2 = group_from_spec(args.group2)
        report = tensor_omega_check(theory.group, g2,
                                    genus_max=min(args.genus, 2), n_max=3,
                                    work_cap=args.work_cap)
        emit(report, args)
        return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED

    if args.which == "virasoro":
        reports = virasoro_check(theory, degree=args.degree, genus=args.genus,
                                 mutate=mutate)
    elif args.which == "kdv":
        reports = kdv_check(theory, degree=min(args.degree, 4),
                            genus=min(args.genus, 1), mutate=mutate)
    elif args.which == "factorization":
        reports = [factorization_check(theory, degree=args.degree,
                                       genus=args.genus, tol=args.tol,
                                       seed=args.seed)]
    else:
        raise ValueError(f"unknown check {args.which!r}")

    payload = {
        "check": args.which,
        "reports": [rep.to_json_dict() for rep in reports],
        "passed": all(rep.passed for rep in reports),
    }
    emit(payload, args)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbigw",
        description="Descendant Gromov-Witten theory of a finite group "
                    "classifying orbifold, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", required=False,
                       help="inline JSON or path to a group spec file")
        p.add_argument("--genus", type=int, default=2)
        p.add_argument("--degree", type=int, default=6)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--work-cap", type=int, default=10 ** 9)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("group", help="conjugacy structure report")
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("chartable", help="character table and idempotent data")
    common(p)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("omega", help="surface count by both algorithms")
    common(p)
    p.add_argument("--classes", default="",
                   help="comma-separated class indices or element names")
    p.add_argument("--profile", action="store_true",
                   help="report enumeration throughput on stderr")
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("correlator", help="one descendant correlator")
    common(p)
    p.add_argument("--key", required=True,
                   help='JSON like {"genus":1,"insertions":[[1,"0"]]}')
    p.set_defaults(func=cmd_correlator)

    p = sub.add_parser("potential", help="truncated potential and partition "
                                         "function")
    common(p)
    p.add_argument("--basis", choices=("class", "canonical"), default="class")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("check", help="constraint verification")
    common(p)
    p.add_argument("which",
                   choices=("cohft", "virasoro", "kdv", "factorization",
                            "tensor"))
    p.add_argument("--group2", default=None,
                   help="second factor for the tensor check")
    p.add_argument("--mutate", default=None,
                   help="debug: JSON [monomial, lambda] coefficient to double")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("genus", "degree"):
            value = getattr(args, flag)
            if value < 0:
                raise ValueError(f"--{flag} must be >= 0, got {value}")
        return args.func(args)
    except (NotAGroup, UnsupportedName, UnstableKey, ValueError,
            MissingCoefficient, json.JSONDecodeError, FileNotFoundError,
            DegenerateSpectrum, IdempotencyCheckFailed) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (WorkCapExceeded, OrderExceedsLimit) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE_CAP


if __name__ == "__main__":
    sys.exit(main())
