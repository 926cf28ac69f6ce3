"""Virasoro operators, the KdV identity, and the constraint checks.

Two operator families act on truncated partition functions:

* per-index operators, one family per idempotent index, acting on series
  in the rescaled canonical variables (slots = idempotent indices);
* the diagonal family acting on class-basis series, with the identity
  class in slot 0 and metric contractions in the quadratic terms.

Both have exact rational coefficients, so annihilation of the partition
function is checked coefficient by coefficient in exact arithmetic.

Lambda bookkeeping: the partition function is built from a potential
truncated at an internal genus cap ``G_max + headroom``.  A slice-e
coefficient of the truncated exponential misses only contributions of
degree >= 3*(g_big - e/2) + 1 (each absent factor beyond the cap forces
that many genus-zero factors of degree >= 3 into the product), so each
residual slice carries a certified degree computed from the pulls of the
operator terms; comparisons stay inside that region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import ClassAlgebra, CanonicalBasis, canonical_basis, character_table
from .correlators import CANONICAL_RESCALED, CLASS_BASIS, OrbifoldTheory
from .series import (EXACT, NUMERIC, LevelCapExceeded, SeriesCaps,
                     TruncatedSeries, max_abs_difference, mono_degree,
                     mono_from_vars)
from .util import Q, double_factorial, float_str, rat_str


class VariableSystemMismatch(Exception):
    pass


class ToleranceExceeded(Exception):
    pass


PER_INDEX = "per_index"
DIAGONAL = "diagonal"


@dataclass(frozen=True)
class VirasoroSpec:
    flavor: str            # PER_INDEX or DIAGONAL
    n: int                 # >= -1
    r: int                 # state-space dimension
    alpha: Optional[int] = None

    def __post_init__(self):
        if self.n < -1:
            raise ValueError("Virasoro index must be >= -1")
        if self.flavor == PER_INDEX:
            if self.alpha is None or not 0 <= self.alpha < self.r:
                raise ValueError("per-index operator needs 0 <= alpha < r")
        elif self.flavor != DIAGONAL:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @property
    def expected_system(self) -> str:
        return CANONICAL_RESCALED if self.flavor == PER_INDEX else CLASS_BASIS

    def label(self) -> dict:
        out = {"flavor": self.flavor, "n": self.n}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


def _coeff_first(n: int) -> Fraction:
    return Q(double_factorial(2 * n + 3), 2 ** (n + 1))


def _coeff_dilation(n: int, i: int) -> Fraction:
    return Q(double_factorial(2 * i + 2 * n + 1),
             double_factorial(2 * i - 1) * 2 ** (n + 1))


def _coeff_second(n: int, i: int) -> Fraction:
    return Q(double_factorial(2 * i + 1)
             * double_factorial(2 * (n - 1 - i) + 1), 2 ** (n + 1))


def apply_virasoro(spec: VirasoroSpec, series: TruncatedSeries, *,
                   algebra: Optional[ClassAlgebra] = None) -> TruncatedSeries:
    """Apply one constraint operator to a truncated series.

    The diagonal flavor needs the class algebra for its metric
    contractions.  The result watermark drops by one (first-order terms)
    or two (second-order terms, present for n >= 1).
    """
    if series.system is not None and series.system != spec.expected_system:
        raise VariableSystemMismatch(
            f"{spec.flavor} operator on {series.system!r} series")
    if spec.flavor == DIAGONAL and algebra is None:
        raise ValueError("diagonal operator requires the class algebra")
    n = spec.n
    caps = series.caps
    if n + 1 > caps.level:
        raise LevelCapExceeded(f"operator touches level {n + 1} > cap {caps.level}")

    slot0 = spec.alpha if spec.flavor == PER_INDEX else 0
    out = series.partial_derivative((n + 1, slot0)).scale(-_coeff_first(n))
    out = out.add(_dilation_term(spec, series))

    if n >= 1:
        half = Q(1, 2)
        for i in range(n):
            j = n - 1 - i
            b = _coeff_second(n, i) * half
            if spec.flavor == PER_INDEX:
                term = series.second_partial((i, spec.alpha), (j, spec.alpha))
                out = out.add(term.scale(b, lam_shift=2))
            else:
                cd = algebra.cd
                for m1 in range(spec.r):
                    m2 = cd.inverse_class[m1]
                    weight = b * cd.centralizer_of_class(m1)
                    term = series.second_partial((i, m1), (j, m2))
                    out = out.add(term.scale(weight, lam_shift=2))

    if n == -1:
        if spec.flavor == PER_INDEX:
            mono = mono_from_vars([(0, spec.alpha), (0, spec.alpha)])
            out = out.add(series.multiply_by_monomial(mono, Q(1, 2),
                                                      lam_shift=-2))
        else:
            cd = algebra.cd
            for m1 in range(spec.r):
                m2 = cd.inverse_class[m1]
                eta = Q(1, 2 * cd.centralizer_of_class(m1))
                mono = mono_from_vars([(0, m1), (0, m2)])
                out = out.add(series.multiply_by_monomial(mono, eta,
                                                          lam_shift=-2))

    if n == 0:
        const = Q(1, 16) if spec.flavor == PER_INDEX else Q(spec.r, 16)
        out = out.add(series.scale(const))
    return out


def _dilation_term(spec, series):
    """sum_i coeff(n, i) * v_i d/dv_{i+n}, one pass over the terms."""
    n = spec.n
    caps = series.caps
    out = TruncatedSeries(caps, mode=series.mode, system=series.system,
                          lam_floor=series.lam_floor,
                          valid_degree=series.valid_degree)
    coeff_cache = {}
    for mono, lc in series.terms.items():
        for (a, m), e in mono:
            if spec.flavor == PER_INDEX and m != spec.alpha:
                continue
            i = a - n
            if i < 0:
                continue
            if i > caps.level:
                raise LevelCapExceeded(
                    f"dilation shifts level {a} to {i} > cap {caps.level}")
            c = coeff_cache.get(i)
            if c is None:
                c = _coeff_dilation(n, i)
                coeff_cache[i] = c
            new_mono = _replace_var(mono, (a, m), (i, m))
            for lam, v in lc.items():
                out._set(new_mono, lam, v * e * c)
    return out


def _replace_var(mono, old, new):
    if old == new:
        return mono
    acc = dict(mono)
    if acc[old] == 1:
        del acc[old]
    else:
        acc[old] -= 1
    acc[new] = acc.get(new, 0) + 1
    return tuple(sorted(acc.items()))


# -- constraint reports -------------------------------------------------------


@dataclass
class ConstraintReport:
    """Outcome of one coefficientwise constraint comparison."""

    operator: dict
    checked_monomials: int
    max_residual: object          # Fraction in exact mode, float otherwise
    watermark: int                # degree actually compared
    violations: list = field(default_factory=list)
    window: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        res = self.max_residual
        res_str = rat_str(res) if isinstance(res, Fraction) else float_str(res)
        out = {
            "operator": self.operator,
            "checked_monomials": self.checked_monomials,
            "max_residual": res_str,
            "watermark": self.watermark,
            "violations": self.violations[:20],
        }
        if self.window is not None:
            out["window"] = self.window
        return out


def _mono_json(mono):
    return [[v[0], v[1], e] for v, e in mono]


def _missing_degree_floor(e: int, g_big: int) -> int:
    """Degree below which slice-e coefficients of the truncated partition
    function are complete (see module docstring)."""
    return 3 * (g_big - e // 2) + 1


def _virasoro_allowed_degree(n: int, e: int, g_big: int, degree: int) -> int:
    """Certified comparison degree for slice e of L_n applied to Z.

    Each operator term pulls Z at a shifted (degree, slice); the bound
    keeps every pull below the completeness floor of the truncation.
    """
    allowed = degree - (2 if n >= 1 else 1)
    allowed = min(allowed, _missing_degree_floor(e, g_big) - 2)   # d/dv pulls d+1
    if n >= 1:
        allowed = min(allowed, _missing_degree_floor(e - 2, g_big) - 3)
    if n == -1:
        allowed = min(allowed, _missing_degree_floor(e + 2, g_big) + 1)
    return allowed


def _report_virasoro_residual(spec, residual, z, *, genus_window, g_big,
                              degree) -> ConstraintReport:
    lam_max = 2 * genus_window - 2
    allowed = {e: _virasoro_allowed_degree(spec.n, e, g_big, degree)
               for e in range(residual.lam_floor, lam_max + 1, 2)}

    checked = 0
    seen = set()
    for source in (z, residual):
        for mono, lam, _c in source.iter_terms():
            key = (mono, lam)
            if key in seen:
                continue
            seen.add(key)
            if lam in allowed and mono_degree(mono) <= allowed[lam]:
                checked += 1

    violations = []
    worst = Q(0) if residual.mode == EXACT else 0.0
    for mono, lam, c in residual.iter_terms():
        if lam not in allowed or mono_degree(mono) > allowed[lam]:
            continue
        mag = abs(c)
        if mag > (0 if residual.mode == EXACT else 1e-12):
            if mag > abs(worst):
                worst = c if residual.mode == EXACT else abs(c)
            violations.append({
                "monomial": _mono_json(mono),
                "lambda": lam,
                "lhs": rat_str(c) if residual.mode == EXACT else float_str(abs(c)),
                "rhs": "0/1",
            })
    violations.sort(key=lambda v: (v["lambda"], v["monomial"]))
    return ConstraintReport(
        operator=spec.label(),
        checked_monomials=checked,
        max_residual=worst,
        watermark=min(allowed.values()) if allowed else -1,
        violations=violations,
        window={"lambda_min": residual.lam_floor, "lambda_max": lam_max,
                "allowed_degree": {str(e): d for e, d in sorted(allowed.items())}},
    )


def virasoro_caps(degree: int, genus_window: int, headroom: int) -> SeriesCaps:
    g_big = genus_window + headroom
    return SeriesCaps(degree=degree, level=3 * g_big - 2 + degree,
                      genus=g_big)


def virasoro_check(theory: OrbifoldTheory, *, n_values: Sequence[int] = (-1, 0, 1, 2),
                   degree: int = 6, genus: int = 2, headroom: int = 1,
                   families: str = "both", mutate=None) -> list:
    """Annihilation of the partition function by both operator families.

    Builds the potential at genus cap ``genus + headroom``, exponentiates,
    applies each requested operator, and reports residuals on the
    certified region (exact zeros expected).  ``mutate`` doubles one
    stored class-basis potential coefficient before exponentiating, for
    sensitivity tests; it applies to the diagonal family only.
    """
    g_big = genus + headroom
    caps = virasoro_caps(degree, genus, headroom)
    reports = []

    if families in ("both", PER_INDEX):
        phi_u = theory.potential(caps, basis=CANONICAL_RESCALED)
        z_u = phi_u.exponential()
        for alpha in range(theory.r):
            for n in n_values:
                spec = VirasoroSpec(PER_INDEX, n, theory.r, alpha=alpha)
                residual = apply_virasoro(spec, z_u)
                reports.append(_report_virasoro_residual(
                    spec, residual, z_u, genus_window=genus, g_big=g_big,
                    degree=degree))

    if families in ("both", DIAGONAL):
        phi_t = theory.potential(caps, basis=CLASS_BASIS, mutate=mutate)
        z_t = phi_t.exponential()
        for n in n_values:
            spec = VirasoroSpec(DIAGONAL, n, theory.r)
            residual = apply_virasoro(spec, z_t, algebra=theory.algebra)
            reports.append(_report_virasoro_residual(
                spec, residual, z_t, genus_window=genus, g_big=g_big,
                degree=degree))
    return reports


# -- operator algebra ---------------------------------------------------------


def random_test_series(caps: SeriesCaps, *, r: int, system: str,
                       seed: int = 0, n_terms: int = 12, max_degree: int = 3,
                       max_level: int = 3,
                       lam_values: Sequence[int] = (-2, 0, 2)) -> TruncatedSeries:
    rng = random.Random(seed)
    s = TruncatedSeries(caps, mode=EXACT, system=system,
                        lam_floor=min(lam_values))
    for _ in range(n_terms):
        deg = rng.randint(0, max_degree)
        variables = [(rng.randint(0, max_level), rng.randint(0, r - 1))
                     for _ in range(deg)]
        lam = rng.choice(list(lam_values))
        coeff = Q(rng.randint(1, 9), rng.randint(1, 9))
        s._set(mono_from_vars(variables), lam, coeff)
    return s


def commutator_check(spec1: VirasoroSpec, spec2: VirasoroSpec, *,
                     algebra: Optional[ClassAlgebra] = None,
                     seed: int = 0) -> ConstraintReport:
    """[L_m, L_n] = (m - n) L_{m+n} on a randomized polynomial series.

    The test series is padded inside caps so no truncation occurs; the
    identity then holds exactly.  Distinct per-index copies commute.
    """
    if spec1.flavor != spec2.flavor:
        raise ValueError("comparing operators of different flavors")
    m, n = spec1.n, spec2.n
    if m + n < -1:
        raise ValueError("bracket index below -1")
    r = spec1.r
    max_level = 3
    caps = SeriesCaps(degree=3 + 6, level=max_level + abs(m) + abs(n) + 3,
                      genus=4)
    s = random_test_series(caps, r=r, system=spec1.expected_system, seed=seed,
                           max_level=max_level)

    def op(spec, series):
        return apply_virasoro(spec, series, algebra=algebra)

    lhs = op(spec1, op(spec2, s)).add(op(spec2, op(spec1, s)).scale(Q(-1)))
    same_copy = (spec1.flavor == DIAGONAL or spec1.alpha == spec2.alpha)
    if same_copy:
        bracket_spec = VirasoroSpec(spec1.flavor, m + n, r, alpha=spec1.alpha)
        rhs = op(bracket_spec, s).scale(Q(m - n))
    else:
        rhs = TruncatedSeries(caps, mode=EXACT, system=s.system,
                              lam_floor=s.lam_floor)
    residual = lhs.add(rhs.scale(Q(-1)))

    violations = []
    worst = Q(0)
    for mono, lam, c in residual.iter_terms():
        if c:
            if abs(c) > abs(worst):
                worst = c
            violations.append({"monomial": _mono_json(mono), "lambda": lam,
                               "lhs": rat_str(c), "rhs": "0/1"})
    checked = len(s.support() | lhs.support() | rhs.support())
    return ConstraintReport(
        operator={"bracket": [spec1.label(), spec2.label()]},
        checked_monomials=checked, max_residual=worst,
        watermark=caps.degree, violations=violations)


# -- KdV ----------------------------------------------------------------------


def kdv_check(theory: OrbifoldTheory, *, a_max: int = 2, degree: int = 4,
              genus: int = 1, headroom: int = 1, mutate=None) -> list:
    """Coefficientwise KdV identity for every class-basis direction.

    For v = e_c and 1 <= a <= a_max:

      (2a+1) lam^-2 <<tau_a(v) tau_0 tau_0>> . eta
        = <<tau_{a-1}(v) tau_0>> . <<tau_0 tau_0 tau_0>> . eta eta
        + 2 <<tau_{a-1}(v) tau_0 tau_0>> . <<tau_0 tau_0>> . eta eta
        + 1/4 <<tau_{a-1}(v) tau_0 tau_0 tau_0 tau_0>> . eta eta

    where each double bracket is the matching mixed partial of the
    potential and dots are inverse-metric contractions.  Each bracket is
    generated from correlators over the compared region only (degree <=
    ``degree``, one extra genus), so the stated box is fully certified.
    ``mutate`` doubles one coefficient of the potential truncated at
    degree + 5, the most any bracket differentiates, and raises KeyError
    when that potential stores no coefficient there.
    """
    g_big = genus + headroom
    if mutate is not None:
        # raises KeyError when that potential stores no coefficient there
        theory.potential(SeriesCaps(degree=degree + 5,
                                    level=max(3 * g_big - 3 + degree + 5,
                                              a_max + 1),
                                    genus=g_big), mutate=mutate)
    # never binds: a free level is at most the level sum 3g - 3 + n of its
    # correlator, and a bracket has n <= degree + 5 insertions
    caps = SeriesCaps(degree=degree, level=3 * g_big - 3 + degree + 5,
                      genus=g_big)
    cd = theory.cd
    r = theory.r
    pairs = [(j, cd.inverse_class[j], Q(cd.centralizer_of_class(j)))
             for j in range(r)]

    # Derivatives commute, so memoize on the sorted variable tuple.
    factor_memo = {}

    def factor(*variables):
        key = tuple(sorted(variables))
        got = factor_memo.get(key)
        if got is None:
            got = theory.potential_derivative(key, caps, mutate=mutate)
            factor_memo[key] = got
        return got

    zero = TruncatedSeries(caps, mode=EXACT, system=CLASS_BASIS, lam_floor=-4)
    triple = {}   # sum_k z_k <<tau_0(m) tau_0(k) tau_0(k^-1)>>, per class m
    for m in range(r):
        acc = zero
        for k, kinv, zk in pairs:
            acc = acc.add(factor((0, m), (0, k), (0, kinv)).scale(zk))
        triple[m] = acc

    reports = []
    lam_max = 2 * genus - 2
    for a in range(1, a_max + 1):
        for c in range(r):
            lhs = zero
            for j, jinv, zj in pairs:
                lhs = lhs.add(factor((a, c), (0, j), (0, jinv)).scale(zj))
            lhs = lhs.scale(Q(2 * a + 1), lam_shift=-2)

            rhs = zero
            for j, jinv, zj in pairs:
                rhs = rhs.add(factor((a - 1, c), (0, j)).scale(zj)
                              .multiply(triple[jinv], floor=-4, max_degree=degree))
            for j, jinv, zj in pairs:
                for k, kinv, zk in pairs:
                    t2 = factor((a - 1, c), (0, j), (0, k)).scale(2 * zj * zk)
                    rhs = rhs.add(t2.multiply(factor((0, jinv), (0, kinv)),
                                              floor=-4, max_degree=degree))
                    t3 = factor((a - 1, c), (0, j), (0, jinv),
                                (0, k), (0, kinv)).scale(Q(zj * zk, 4))
                    rhs = rhs.add(t3)

            residual = lhs.add(rhs.scale(Q(-1)))
            checked = 0
            violations = []
            worst = Q(0)
            seen = set()
            for source in (lhs, rhs, residual):
                for mono, lam, cval in source.iter_terms():
                    if lam > lam_max or mono_degree(mono) > degree:
                        continue
                    key = (mono, lam)
                    if key not in seen:
                        seen.add(key)
                        checked += 1
                    if source is residual and cval:
                        if abs(cval) > abs(worst):
                            worst = cval
                        violations.append({
                            "monomial": _mono_json(mono), "lambda": lam,
                            "lhs": rat_str(lhs.coefficient(mono, lam)),
                            "rhs": rat_str(rhs.coefficient(mono, lam)),
                        })
            violations.sort(key=lambda v: (v["lambda"], v["monomial"]))
            reports.append(ConstraintReport(
                operator={"kdv_a": a, "direction_class": c},
                checked_monomials=checked, max_residual=worst,
                watermark=degree, violations=violations,
                window={"lambda_min": residual.lam_floor,
                        "lambda_max": lam_max}))
    return reports


# -- factorization -------------------------------------------------------------


def factorization_check(theory: OrbifoldTheory, *, degree: int = 6,
                        genus: int = 2, tol: float = 1e-8, seed: int = 0,
                        cb: Optional[CanonicalBasis] = None,
                        strict: bool = False) -> ConstraintReport:
    """Class-basis potential transported to rescaled canonical variables
    matches the sum of point potentials, within tolerance.

    The transport substitutes t_a^m = sum_alpha F[alpha][m]
    nu_alpha^{(a-1)/3} u~_a^alpha (numeric), so the comparison tolerance
    absorbs the character-table floats and the real cube roots.  With
    ``strict`` a failing comparison raises ToleranceExceeded naming the
    worst monomial instead of returning a failing report.
    """
    caps = SeriesCaps(degree=degree, level=max(3 * genus - 3 + degree, degree),
                      genus=genus)
    if cb is None:
        ct = character_table(theory.group, theory.cd, seed=seed)
        cb = canonical_basis(ct, theory.algebra)
    r = theory.r
    phi_t = theory.potential(caps, basis=CLASS_BASIS).to_numeric()

    def matrix_for_level(a):
        scale = [float(cb.nus[alpha]) ** ((a - 1) / 3.0) for alpha in range(r)]
        return [[cb.vectors[alpha][m] * scale[alpha] for alpha in range(r)]
                for m in range(r)]

    transported = phi_t.substitute_linear(matrix_for_level, r)
    transported.system = CANONICAL_RESCALED
    target = theory.potential(caps, basis=CANONICAL_RESCALED).to_numeric()
    worst = max_abs_difference(transported, target)
    violations = []
    if worst > tol:
        for mono, lam in sorted(transported.support() | target.support()):
            d = abs(complex(transported.coefficient(mono, lam))
                    - complex(target.coefficient(mono, lam)))
            if d > tol:
                violations.append({
                    "monomial": _mono_json(mono), "lambda": lam,
                    "lhs": float_str(abs(complex(
                        transported.coefficient(mono, lam)))),
                    "rhs": float_str(abs(complex(
                        target.coefficient(mono, lam)))),
                })
    checked = len(transported.support() | target.support())
    report = ConstraintReport(
        operator={"check": "factorization", "tol": tol},
        checked_monomials=checked, max_residual=worst,
        watermark=degree, violations=violations)
    if strict and not report.passed:
        raise ToleranceExceeded(
            f"worst monomial {violations[0]['monomial']} at "
            f"lambda^{violations[0]['lambda']}: residual {worst:.3e} > {tol}")
    return report


# -- mutation sensitivity --------------------------------------------------------


def mutation_targets(theory: OrbifoldTheory, *, degree: int = 4,
                     max_genus: int = 1) -> list:
    """Stored class-basis potential coefficients with genus <= max_genus."""
    caps = SeriesCaps(degree=degree, level=3 * max_genus - 3 + degree + 2,
                      genus=max_genus)
    phi = theory.potential(caps, basis=CLASS_BASIS)
    return sorted((mono, lam) for mono, lam, _c in phi.iter_terms())


def mutation_sensitivity(theory: OrbifoldTheory, *, target_degree: int = 4,
                         n_values=(-1, 0, 1, 2), a_max: int = 2,
                         max_genus_mutated: int = 1, targets=None) -> dict:
    """Double each stored low-genus coefficient; every mutation must trip
    at least one Virasoro or KdV residual.

    Doubling the coefficient c of M adds c*M to the potential, so the
    mutated partition function is Z * exp(c M); that factor is short and
    lets the sweep reuse one cached Z per stage.  Both comparison regions
    are strict sub-regions of the degree-6 checks, so any failure found
    here is a failure of those.  Survivors escalate to the KdV identity
    before being reported as undetected.
    """
    if targets is None:
        targets = mutation_targets(theory, degree=target_degree,
                                   max_genus=max_genus_mutated)
    stages = [(5, 1, tuple(n for n in n_values if n <= 0) or (-1, 0)),
              (6, 2, tuple(n_values))]
    prepared = {}

    def stage_data(degree, genus):
        key = (degree, genus)
        if key not in prepared:
            caps = virasoro_caps(degree, genus, 1)
            phi = theory.potential(caps, basis=CLASS_BASIS)
            prepared[key] = (caps, phi, phi.exponential())
        return prepared[key]

    undetected = []
    for mono, lam in targets:
        detected = False
        for degree, genus, ns in stages:
            caps, phi, z = stage_data(degree, genus)
            delta = phi.coefficient(mono, lam)
            if not delta:
                raise KeyError(f"no stored coefficient at {mono} "
                               f"lambda^{lam}")
            bump = TruncatedSeries.from_monomial(
                caps, mono, delta, lam=lam,
                system=CLASS_BASIS).exponential(floor=z.lam_floor)
            z_mut = z.multiply(bump)
            g_big = genus + 1
            for n in ns:
                spec = VirasoroSpec(DIAGONAL, n, theory.r)
                residual = apply_virasoro(spec, z_mut,
                                          algebra=theory.algebra)
                rep = _report_virasoro_residual(
                    spec, residual, z_mut, genus_window=genus, g_big=g_big,
                    degree=degree)
                if not rep.passed:
                    detected = True
                    break
            if detected:
                break
        if not detected:
            reports = kdv_check(theory, a_max=a_max, degree=4, genus=1,
                                mutate=(mono, lam))
            detected = any(not rep.passed for rep in reports)
        if not detected:
            undetected.append({"monomial": _mono_json(mono), "lambda": lam})
    return {"mutated": len(targets), "undetected": undetected,
            "passed": not undetected}


# -- diagonal operator as a rescaled combination (numeric check) -----------------


def diagonal_combination_residual(theory: OrbifoldTheory, m: int, *,
                                  seed: int = 0,
                                  cb: Optional[CanonicalBasis] = None) -> float:
    """Residual of L_m = sum_alpha nu_alpha^{-m/3} L_m^{(alpha)} on a random
    series, transported between variable systems numerically."""
    import numpy as np

    if cb is None:
        ct = character_table(theory.group, theory.cd, seed=seed)
        cb = canonical_basis(ct, theory.algebra)
    r = theory.r
    max_level = 3
    caps = SeriesCaps(degree=6, level=max_level + abs(m) + 4, genus=4)
    s_t = random_test_series(caps, r=r, system=CLASS_BASIS, seed=seed,
                             max_level=max_level).to_numeric()

    def forward(a):
        return [[cb.vectors[alpha][mm] * float(cb.nus[alpha]) ** ((a - 1) / 3.0)
                 for alpha in range(r)] for mm in range(r)]

    def backward(a):
        mat = np.array(forward(a), dtype=complex)
        return np.linalg.inv(mat).tolist()  # rows indexed by alpha

    s_u = s_t.substitute_linear(forward, r)
    s_u.system = CANONICAL_RESCALED
    combo = TruncatedSeries(caps, mode=NUMERIC, system=CANONICAL_RESCALED,
                            lam_floor=s_u.lam_floor)
    for alpha in range(r):
        spec = VirasoroSpec(PER_INDEX, m, r, alpha=alpha)
        term = apply_virasoro(spec, s_u)
        combo = combo.add(term.scale(float(cb.nus[alpha]) ** (-m / 3.0)))
    combo_t = combo.substitute_linear(backward, r)
    combo_t.system = CLASS_BASIS

    diag = apply_virasoro(VirasoroSpec(DIAGONAL, m, r), s_t,
                          algebra=theory.algebra)
    return max_abs_difference(diag, combo_t)
