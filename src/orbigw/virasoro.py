"""Virasoro operators, the KdV identity, and the constraint checks.

One operator L_n^{(v)}, for v in a Frobenius algebra, acts on truncated
partition functions; its terms are read from a ``FrobeniusTable``:

* the split table on rescaled canonical variables, where the idempotent
  v = f_alpha gives the per-index family;
* the class table on class-basis series, where the unit v = e_0 gives the
  diagonal family, with metric contractions in its quadratic terms.

Both have exact rational coefficients, so the constraints are checked
coefficient by coefficient in exact arithmetic.  Each exact check states
the region both sides are exact in and hands the terms of its identity
to ``_compare``, which alone decides what is compared and counted.

The check runs on the potential F, not on Z = exp(F): L_n Z = 0 is
equivalent to R_n(F) = e^{-F} L_n e^{F} = 0 (see ``fform_residual``).  Its
genus-<=G part needs F only up to genus G, so F truncated at degree D and
genus G fixes every coefficient of degree <= D-1 (n <= 0) or D-2 (n >= 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import add
from typing import Optional

from .algebra import (ClassAlgebra, canonical_basis, character_table,
                      frobenius_product)
from .correlators import CANONICAL_RESCALED, CLASS_BASIS, OrbifoldTheory
from .series import (SeriesCaps, TruncatedSeries, mono_degree, mono_factorial,
                     mono_from_vars)
from .util import Q, double_factorial, float_str, rat_str


class VariableSystemMismatch(Exception):
    pass


@dataclass(frozen=True)
class FrobeniusTable:
    """e_i e_j = sum_k a[i][j][k] e_k, eps(e_k) = counit[k], the inverse
    metric sum z e_m (x) e_m' over ``pairs`` (m, m', z), H = sum z e_m e_m',
    the unit, and the ``system`` of the variables t_{(a, k)}; ``flavor``
    only labels the operators."""

    a: tuple
    counit: tuple
    pairs: tuple
    handle: tuple
    unit: tuple
    system: str
    flavor: str

    def product(self, x, y) -> tuple:
        return frobenius_product(self.a, x, y)

    def eps(self, x) -> Fraction:
        return sum((xk * ek for xk, ek in zip(x, self.counit)), Q(0))


def _basis(r: int, k: int) -> tuple:
    return tuple(int(j == k) for j in range(r))


def class_table(algebra: ClassAlgebra) -> FrobeniusTable:
    """Class algebra: eps(e_k) = delta_{k0}/|G|, pairs (m, m^-1, |C(m)|)."""
    return FrobeniusTable(
        algebra.structure_constants(),
        tuple(Q(int(k == 0), algebra.group.order) for k in range(algebra.r)),
        algebra.pairs(), algebra.handle_element(), algebra.unit(),
        CLASS_BASIS, "diagonal")


def split_table(r: int) -> FrobeniusTable:
    """The split algebra of rank r: f_a f_b = delta_ab f_a, eps(f_a) = 1."""
    a = tuple(tuple(_basis(r, i) if i == j else (0,) * r for j in range(r))
              for i in range(r))
    return FrobeniusTable(a, (Q(1),) * r, tuple((m, m, 1) for m in range(r)),
                          (1,) * r, (1,) * r, CANONICAL_RESCALED, "per_index")


@dataclass(frozen=True)
class VirasoroSpec:
    """L_n^{(v)} on ``table``, for the basis vector e_v (the unit if None)."""

    n: int                 # >= -1
    table: FrobeniusTable
    v: Optional[int] = None

    def __post_init__(self):
        if self.n < -1:
            raise ValueError("Virasoro index must be >= -1")
        if self.v is not None and not 0 <= self.v < len(self.table.unit):
            raise ValueError("operator vector needs 0 <= v < r")

    def times(self, m=None) -> tuple:
        """v e_m, or v (v times the unit) when m is None."""
        unit = self.table.unit
        v = unit if self.v is None else _basis(len(unit), self.v)
        return v if m is None else self.table.product(v, _basis(len(v), m))

    def label(self) -> dict:
        out = {"flavor": self.table.flavor, "n": self.n}
        if self.v is not None:
            out["alpha"] = self.v
        return out


def _coeff_first(n: int) -> Fraction:
    return Q(double_factorial(2 * n + 3), 2 ** (n + 1))


@lru_cache(maxsize=None)
def _coeff_dilation(n: int, i: int) -> Fraction:
    return Q(double_factorial(2 * i + 2 * n + 1),
             double_factorial(2 * i - 1) * 2 ** (n + 1))


def _coeff_second(n: int, i: int) -> Fraction:
    return Q(double_factorial(2 * i + 1)
             * double_factorial(2 * (n - 1 - i) + 1), 2 ** (n + 1))


def _first_order_terms(spec: VirasoroSpec) -> list:
    """(var, w) for each term w d/d var of -c_n d/dt_{(n+1, v)}."""
    return [((spec.n + 1, k), -_coeff_first(spec.n) * w)
            for k, w in enumerate(spec.times()) if w]


def _second_order_terms(spec: VirasoroSpec) -> list:
    """(v1, v2, w) for each second-order term w lambda^2 d/dv1 d/dv2: b_i
    sum_m z_m d/dt_{(i, v e_m)} d/dt_{(n-1-i, m')}."""
    n = spec.n
    out = []
    for i in range(n):
        b = _coeff_second(n, i) / 2
        for m, m2, z in spec.table.pairs:
            out.extend(((i, k), (n - 1 - i, m2), b * z * w)
                       for k, w in enumerate(spec.times(m)) if w)
    return out


def _multiplication_terms(spec: VirasoroSpec) -> list:
    """(monomial, w) for each multiplication term w lambda^-2 monomial:
    eps(v e_a e_b)/2 t_{(0, a)} t_{(0, b)} at n = -1."""
    t, r = spec.table, len(spec.table.unit)
    eps = [[t.eps(t.product(spec.times(a), _basis(r, b))) for b in range(r)]
           for a in range(r)] if spec.n == -1 else []
    return [(mono_from_vars([(0, a), (0, b)]), w / 2)
            for a, row in enumerate(eps) for b, w in enumerate(row) if w]


def _constant_term(spec: VirasoroSpec) -> Fraction:
    """eps(v H)/16 at n = 0."""
    t = spec.table
    return t.eps(t.product(spec.times(), t.handle)) / 16 if spec.n == 0 else 0


def _check_operator(spec, series):
    if series.system is not None and series.system != spec.table.system:
        raise VariableSystemMismatch(
            f"{spec.table.flavor} operator on {series.system!r} series")


def apply_virasoro(spec: VirasoroSpec,
                   series: TruncatedSeries) -> TruncatedSeries:
    """Apply L_n^{(v)}, its terms read from the spec's class or split table,
    to a truncated series.  The result is exact one degree below the caps
    of the series (first-order terms), or two below for n >= 1
    (second-order terms)."""
    _check_operator(spec, series)
    out = TruncatedSeries(series.caps, system=series.system)
    for var, w in _first_order_terms(spec):
        out.iadd(series.partial_derivative(var), w)
    out.iadd(_dilation_term(spec, series))
    for v1, v2, w in _second_order_terms(spec):
        out.iadd(series.second_partial(v1, v2), w, lam_shift=2)
    for mono, w in _multiplication_terms(spec):
        out.iadd(series.multiply_by_monomial(mono, w, lam_shift=-2))
    const = _constant_term(spec)
    if const:
        out.iadd(series, const)
    return out


def fform_residual(spec: VirasoroSpec, potential: TruncatedSeries, *,
                   max_degree: Optional[int] = None) -> TruncatedSeries:
    """R_n(F) = e^{-F} L_n e^{F} for the potential F, up to ``max_degree``:
    the sum of the terms of ``_fform_terms``.

    ``virasoro_check`` compares those terms with ``_compare``; this sum is
    what the Z-form oracle test checks against L_n exp(F).
    """
    out = TruncatedSeries(potential.caps, system=potential.system)
    for series, value, lam_shift in _fform_terms(spec, potential,
                                                 max_degree=max_degree):
        out.iadd(series, value, lam_shift=lam_shift)
    return out


def _fform_terms(spec, potential, *, max_degree=None):
    """Yield the terms (series, value, lam_shift) of R_n(F), each standing
    for value * lambda^lam_shift * series, up to ``max_degree``.

    Built from the operator terms of ``apply_virasoro``: R_n(F) - R_n(0),
    the delta terms of F over the zero potential (``_fform_delta_terms``),
    then R_n(0), the multiplication and constant terms applied to 1.
    """
    caps = potential.caps
    kind = dict(system=potential.system)
    yield from _fform_delta_terms(spec, None, potential, max_degree=max_degree)
    for mono, w in _multiplication_terms(spec):
        yield TruncatedSeries.from_monomial(caps, mono, w, lam=-2, **kind), 1, 0
    const = _constant_term(spec)
    if const:
        yield TruncatedSeries.constant(caps, const, **kind), 1, 0


def _fform_delta_terms(spec, potential, delta, *, max_degree=None):
    """Yield the terms of R_n(F + delta) - R_n(F) for the potential F (zero
    if None), as ``_fform_terms`` does, up to ``max_degree``.

    The multiplication and constant terms do not depend on F and drop
    out.  What is left is the first-order part and the dilation term
    applied to delta, and w lambda^2 (d1 d2 delta + d1 F d2 delta + d1 delta
    d2 F + d1 delta d2 delta) per second-order term.  Truncation is linear,
    so the terms sum to the difference exactly.  F is differentiated for
    n >= 1 only: for n <= 0 the difference is linear in delta.
    """
    _check_operator(spec, delta)
    dcap = delta.caps.degree if max_degree is None else max_degree
    d = lru_cache(maxsize=None)(delta.partial_derivative)
    d_f = None if potential is None else lru_cache(maxsize=None)(
        potential.partial_derivative)
    for var, w in _first_order_terms(spec):
        yield d(var), w, 0
    yield _dilation_term(spec, delta, dcap), 1, 0
    for v1, v2, w in _second_order_terms(spec):
        yield d(v1).partial_derivative(v2), w, 2
        if d_f is not None:
            yield d_f(v1).multiply(d(v2), max_degree=dcap), w, 2
            yield d(v1).multiply(d_f(v2), max_degree=dcap), w, 2
        yield d(v1).multiply(d(v2), max_degree=dcap), w, 2


def _dilation_term(spec, series, max_degree=None):
    """sum_{i,m} c(n, i) t_{(i,m)} d/dt_{(i+n, v e_m)} over the terms of
    degree <= max_degree (kept by the operator), via ``_dilation_moves``."""
    rows = [spec.times(m) for m in range(len(spec.table.unit))]
    moves = lru_cache(maxsize=None)(partial(_dilation_moves, spec.n, rows))
    return series.vector_field(moves, max_degree)


def _dilation_moves(n, rows, var):
    """(new var, c) for each dilation move of var = (a, k): t_{(a, k)} goes
    to c(n, a-n) (v e_m)_k t_{(a-n, m)}, with rows[m] = v e_m."""
    a, k = var
    return [((a - n, m), _coeff_dilation(n, a - n) * row[k])
            for m, row in enumerate(rows) if row[k] and a >= n]


# -- constraint reports -------------------------------------------------------


@dataclass
class ConstraintReport:
    """Outcome of one coefficientwise constraint comparison.

    ``checked_monomials`` counts the (monomial, lambda) positions of the
    compared region where at least one term of the identity is nonzero
    before cancellation: the union of the supports of both sides; for
    ``factorization_check`` it counts every key of the compared box.
    ``max_residual`` is the compared residual of largest |value|, the
    negative one on a sign tie.  ``watermark`` is the highest monomial
    degree compared.  Every exact report is made by ``_compare``.
    """

    operator: dict
    checked_monomials: int
    max_residual: object          # Fraction if exact, float if toleranced
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


def _compare(operator, caps, lhs, rhs, *, max_degree, lam_max,
             window=None) -> ConstraintReport:
    """Exact comparison of two sides at every coefficient of degree <=
    ``max_degree`` and lambda <= ``lam_max``.

    Each side is an iterable of terms (series, value, lam_shift), standing
    for value * lambda^lam_shift * series.  ``checked_monomials`` is the
    union of the term supports inside the region, ``max_residual`` the
    residual lhs - rhs of largest absolute value there, the negative one
    when x and -x tie, and each violation shows the sums of both sides.
    The report depends on the residual values alone, not on term order.
    """
    support = set()

    def summed(terms):
        total = TruncatedSeries(caps)
        for series, value, lam_shift in terms:
            total.iadd(series, value, lam_shift=lam_shift)
            support.update((mono, lam + lam_shift)
                           for mono, lam in series.support()
                           if lam + lam_shift <= lam_max
                           and mono_degree(mono) <= max_degree)
        return total

    residual = summed(lhs)
    rhs_sum = summed(rhs)
    residual.iadd(rhs_sum, -1)
    violations, worst = [], Q(0)
    for mono, lam, c in residual.iter_terms():
        if lam > lam_max or mono_degree(mono) > max_degree:
            continue
        worst = max(worst, c, key=lambda x: (abs(x), -x))
        r = rhs_sum.coefficient(mono, lam)
        violations.append({"monomial": _mono_json(mono), "lambda": lam,
                           "lhs": rat_str(c + r), "rhs": rat_str(r)})
    violations.sort(key=lambda v: (v["lambda"], v["monomial"]))
    return ConstraintReport(
        operator=operator, checked_monomials=len(support),
        max_residual=worst, watermark=max_degree, violations=violations,
        window=window)


def _fform_report(spec, potential, *, degree):
    """R_n(F) against zero at every degree <= D-1 (n <= 0) or D-2 (n >= 1),
    over genus 0 to G."""
    watermark = degree - (2 if spec.n >= 1 else 1)
    lam_max = potential.caps.lam_ceiling
    return _compare(
        spec.label(), potential.caps,
        _fform_terms(spec, potential, max_degree=watermark),
        (), max_degree=watermark, lam_max=lam_max,
        window={"lambda_min": -2, "lambda_max": lam_max})


# The operators checked.  [L_m, L_n] = (m - n) L_{m+n}, which
# ``commutator_check`` verifies, builds every L_n (n >= -1) from L_{-1} and
# L_2, so whatever these annihilate every L_n annihilates.
VIRASORO_N = (-1, 0, 1, 2)


def virasoro_check(theory: OrbifoldTheory, *, degree: int = 6, genus: int = 2,
                   mutate=None) -> list:
    """Annihilation of the partition function by both operator families.

    Builds the potential F at degree ``degree`` and genus ``genus`` and
    checks R_n(F) = e^{-F} L_n e^{F} = 0 (see the module docstring) for
    n = -1, 0, 1, 2 (``VIRASORO_N``: they generate every L_n), per-index
    operators first, exactly, at every coefficient of degree <= D-1
    (n <= 0) or D-2 (n >= 1) and genus <= G.  ``mutate`` names one stored
    class-basis potential coefficient, for sensitivity tests: the diagonal
    family checks F + delta (``_mutation``), which has it doubled, and
    MissingCoefficient is raised when F stores no coefficient there.
    """
    caps = SeriesCaps(degree=degree, genus=genus)
    delta = _mutation(theory, mutate, caps)
    phi_u = theory.potential(caps, basis=CANONICAL_RESCALED)
    split = split_table(theory.r)
    reports = [_fform_report(VirasoroSpec(n, split, alpha), phi_u,
                             degree=degree)
               for alpha in range(theory.r) for n in VIRASORO_N]
    phi_t = theory.potential(caps, basis=CLASS_BASIS).iadd(delta)
    table = class_table(theory.algebra)
    return reports + [_fform_report(VirasoroSpec(n, table), phi_t,
                                    degree=degree) for n in VIRASORO_N]


def _mutation(theory, target, caps) -> TruncatedSeries:
    """delta = c t^M lambda^l, with c the class-basis potential's stored
    coefficient at target = (M, l) and ``caps``, so F + delta has it
    doubled; MissingCoefficient if F stores none there, zero if target is
    None."""
    if target is None:
        return TruncatedSeries(caps, system=CLASS_BASIS)
    return TruncatedSeries.from_monomial(
        caps, target[0], theory.stored_coefficient(target, caps),
        lam=target[1], system=CLASS_BASIS)


# -- operator algebra ---------------------------------------------------------


def random_test_series(caps: SeriesCaps, table: FrobeniusTable, *,
                       seed: int = 0) -> TruncatedSeries:
    rng = random.Random(seed)
    s = TruncatedSeries(caps, system=table.system)
    for _ in range(12):
        deg = rng.randint(0, 3)
        variables = [(rng.randint(0, 3), rng.randint(0, len(table.unit) - 1))
                     for _ in range(deg)]
        lam = rng.choice([-2, 0, 2])
        coeff = Q(rng.randint(1, 9), rng.randint(1, 9))
        s.add_term(mono_from_vars(variables), lam, coeff)
    return s


def commutator_check(spec1: VirasoroSpec, spec2: VirasoroSpec, *,
                     seed: int = 0) -> ConstraintReport:
    """[L_m^{(u)}, L_n^{(v)}] = (m - n) L_{m+n}^{(uv)} on a randomized
    polynomial series, for two operators of one table.

    The test series is padded inside caps so no truncation occurs; the
    identity then holds exactly.  L^{(uv)} is expanded in the basis, so
    distinct idempotents (uv = 0) commute.
    """
    m, n = spec1.n, spec2.n
    if m + n < -1 or spec1.table != spec2.table:
        raise ValueError("a bracket needs m + n >= -1 and one table")
    table = spec1.table
    caps = SeriesCaps(degree=3 + 6, genus=4)
    s = random_test_series(caps, table, seed=seed)
    op = apply_virasoro

    # one side: L_m L_n s - L_n L_m s - (m - n) L_{m+n} s
    terms = [(op(spec1, op(spec2, s)), 1, 0),
             (op(spec2, op(spec1, s)), -1, 0)]
    uv = table.product(spec1.times(), spec2.times())
    terms += [(op(VirasoroSpec(m + n, table, k), s).scale(Q(m - n) * w), -1, 0)
              for k, w in enumerate(uv) if w]
    return _compare({"bracket": [spec1.label(), spec2.label()]}, caps,
                    terms, (), max_degree=caps.degree,
                    lam_max=caps.lam_ceiling)


# -- KdV ----------------------------------------------------------------------


def kdv_check(theory: OrbifoldTheory, *, degree: int = 4, genus: int = 1,
              mutate=None) -> list:
    """Coefficientwise KdV identity for every class-basis direction.

    For v = e_c and a = 1, 2:

      (2a+1) lam^-2 <<tau_a(v) tau_0 tau_0>> . eta
        = <<tau_{a-1}(v) tau_0>> . <<tau_0 tau_0 tau_0>> . eta eta
        + 2 <<tau_{a-1}(v) tau_0 tau_0>> . <<tau_0 tau_0>> . eta eta
        + 1/4 <<tau_{a-1}(v) tau_0 tau_0 tau_0 tau_0>> . eta eta

    where each double bracket is the matching mixed partial of the
    potential and dots are inverse-metric contractions; a pair contracted
    inside one bracket is a glued handle (``potential_derivative``).  Every
    bracket is generated from correlators over the compared region only
    (degree <= ``degree``, and one genus above ``genus`` because the left
    side carries lam^-2), so the stated box is fully certified.  Both sides
    start at lam^-4: lam^-2 times a genus-0 bracket, or a product of two.
    ``mutate`` doubles one coefficient of the potential truncated at
    degree + 5, the most any bracket differentiates: each bracket gets the
    matching derivative of delta (``_mutation``), its handles contracted
    pair by pair, as delta is no potential.  MissingCoefficient is raised
    when that potential stores no coefficient there.
    """
    caps = SeriesCaps(degree=degree, genus=genus + 1)
    delta = _mutation(theory, mutate, replace(caps, degree=degree + 5))
    pairs = class_table(theory.algebra).pairs

    def bracket(fixed, handles=0):
        got = theory.potential_derivative(fixed, caps, handles)
        d_delta = reduce(TruncatedSeries.partial_derivative, fixed, delta)
        for _ in range(handles):
            glued = TruncatedSeries(delta.caps, system=CLASS_BASIS)
            for m, m2, z in pairs:
                glued.iadd(d_delta.second_partial((0, m), (0, m2)), z)
            d_delta = glued
        for mono, lam, c in d_delta.iter_terms():
            got.iadd(TruncatedSeries.from_monomial(
                caps, mono, c, lam=lam, system=CLASS_BASIS))
        return got

    # cross-term brackets recur across (a, c), and derivatives commute
    memo = lru_cache(maxsize=None)(bracket)

    def factor(*variables):
        return memo(tuple(sorted(variables)))

    triple = [bracket(((0, m),), 1) for m in range(theory.r)]
    lam_max = 2 * genus - 2

    def report(a, c):
        rhs = bracket(((a - 1, c),), 2).scale(Q(1, 4))
        for j, jinv, zj in pairs:
            rhs.iadd(factor((a - 1, c), (0, j)).multiply(
                triple[jinv], max_degree=degree), zj)
            for k, kinv, zk in pairs:
                rhs.iadd(factor((a - 1, c), (0, j), (0, k)).multiply(
                    factor((0, jinv), (0, kinv)), max_degree=degree),
                    2 * zj * zk)
        return _compare({"kdv_a": a, "direction_class": c}, caps,
                        [(bracket(((a, c),), 1), Q(2 * a + 1), -2)],
                        [(rhs, 1, 0)], max_degree=degree, lam_max=lam_max,
                        window={"lambda_min": -4, "lambda_max": lam_max})

    return [report(a, c) for a in (1, 2) for c in range(theory.r)]


# -- factorization -------------------------------------------------------------


def factorization_check(theory: OrbifoldTheory, *, degree: int = 6,
                        genus: int = 2,
                        tol: float = 1e-8) -> ConstraintReport:
    """Class-basis potential transported to rescaled canonical variables
    matches the sum of point potentials, within tolerance, key by key.

    Under t_a^m = sum_alpha f_alpha[m] nu_alpha^{(a-1)/3} u_a^alpha the
    genus-g coefficient of a key U = prod_i u_{(a_i, alpha_i)} is
    psi_g(a)/U! prod_i nu_{alpha_i}^{(a_i-1)/3} eps(f_{alpha_1} ...
    f_{alpha_n} H^g) (Mednykh's formula in Frobenius form).  Every key of
    ``theory.class_keys``, with idempotent indices in place of classes
    (both run over r slots), is compared with the canonical potential:
    psi/U! when the indices agree, else 0.  The tolerance absorbs the
    complex evaluation of the exact characters and the real cube roots;
    violations name each key above ``tol``.
    """
    caps = SeriesCaps(degree=degree, genus=genus)
    ct = character_table(theory.group, theory.cd)
    cb = canonical_basis(ct, theory.algebra)
    table = class_table(theory.algebra)
    target = theory.potential(caps, basis=CANONICAL_RESCALED)
    nus = [float(nu) for nu in cb.nus]

    @lru_cache(maxsize=None)
    def eps(g, alphas):
        """eps(f_{alpha_1} ... f_{alpha_n} H^g) in the class table."""
        factors = [cb.vectors[alpha] for alpha in alphas] + [table.handle] * g
        return complex(table.eps(reduce(table.product, factors, table.unit)))

    checked, worst, violations = 0, 0.0, []
    for g, variables, psi in theory.class_keys(caps):
        mono = mono_from_vars(variables)
        alphas = tuple(sorted(alpha for _a, alpha in variables))
        scale = math.prod(nus[alpha] ** ((a - 1) / 3)
                          for a, alpha in variables)
        lhs = float(psi / mono_factorial(mono)) * scale * eps(g, alphas)
        rhs = float(target.coefficient(mono, 2 * g - 2))
        worst = max(worst, abs(lhs - rhs))
        checked += 1
        if abs(lhs - rhs) > tol:
            violations.append((mono, 2 * g - 2, abs(lhs), abs(rhs)))
    return ConstraintReport(
        operator={"check": "factorization", "tol": tol},
        checked_monomials=checked, max_residual=worst, watermark=degree,
        violations=[{"monomial": _mono_json(mono), "lambda": lam,
                     "lhs": float_str(lhs), "rhs": float_str(rhs)}
                    for mono, lam, lhs, rhs in sorted(violations)])


# -- mutation sensitivity --------------------------------------------------------


def mutation_targets(theory: OrbifoldTheory) -> list:
    """Stored class-basis potential coefficients of degree <= 4 and genus
    <= 1, the targets ``mutation_sensitivity`` detects."""
    caps = SeriesCaps(degree=4, genus=1)
    phi = theory.potential(caps, basis=CLASS_BASIS)
    return sorted((mono, lam) for mono, lam, _c in phi.iter_terms())


def mutation_sensitivity(theory: OrbifoldTheory, *, targets=None) -> dict:
    """Double each stored low-genus coefficient; every mutation must trip
    an n = -1 or n = 0 residual of the diagonal family at D5 G1.

    R_-1(F) and R_0(F) are built once; each target's delta (``_mutation``,
    doubling that coefficient) adds only its terms R_n(F + delta) - R_n(F)
    (``_fform_delta_terms``), compared as in ``virasoro_check``.  R_-1
    changes by -d_{(0,0)} delta + dilation(delta), whose dilation part
    raises one level of delta's monomial per variable with coefficient 1:
    distinct monomials of its degree that cannot cancel and that lie in
    the compared region (degree <= 4, lambda <= 0) when delta has degree
    <= 4 and genus <= 1.  So every such target is caught by construction:
    the sweep shows that the check compares, not that the constraints
    determine F.  A target of degree > 4 raises ValueError, and one the
    potential does not store raises MissingCoefficient.  ``targets``
    defaults to every ``mutation_targets`` entry.
    """
    if targets is None:
        targets = mutation_targets(theory)
    caps = SeriesCaps(degree=5, genus=1)
    watermark = caps.degree - 1
    table = class_table(theory.algebra)
    base = theory.potential(caps)
    residuals = [(spec, fform_residual(spec, base, max_degree=watermark))
                 for spec in (VirasoroSpec(n, table) for n in (-1, 0))]
    undetected = []
    for mono, lam in targets:
        if mono_degree(mono) > 4:
            raise ValueError(f"mutation target {mono} has degree > 4")
        delta = _mutation(theory, (mono, lam), caps)
        if all(_compare(spec.label(), caps,
                        [(residual, 1, 0),
                         *_fform_delta_terms(spec, base, delta,
                                             max_degree=watermark)],
                        (), max_degree=watermark,
                        lam_max=caps.lam_ceiling).passed
               for spec, residual in residuals):
            undetected.append({"monomial": _mono_json(mono), "lambda": lam})
    return {"mutated": len(targets), "undetected": undetected,
            "passed": not undetected}


# -- diagonal operator as a rescaled combination (numeric check) -----------------

# Source levels of the dilation term compared, from the lowest it moves.
COMBINATION_LEVELS = 4


def _operator_entries(spec: VirasoroSpec) -> list:
    """(slots, index, w) for each coefficient w of L_n^{(v)}, read from its
    builders, a slot being ("d", a) for d/dt_a or ("t", a) for t_a: the
    first-order vector, the dilation matrix per source level, the
    second-order matrix per i, the multiplication matrix, the constant."""
    n, r = spec.n, len(spec.table.unit)
    rows = [spec.times(m) for m in range(r)]
    out = [((("d", a),), (k,), w) for (a, k), w in _first_order_terms(spec)]
    out += [((("t", b), ("d", a)), (m, k), c)
            for a in range(max(n, 0), max(n, 0) + COMBINATION_LEVELS)
            for k in range(r)
            for (b, m), c in _dilation_moves(n, rows, (a, k))]
    out += [((("d", i), ("d", j)), (k, m), w)
            for (i, k), (j, m), w in _second_order_terms(spec)]
    for mono, w in _multiplication_terms(spec):
        (_a, x), (_b, y) = [var for var, e in mono for _ in range(e)]
        out += [((("t", 0),) * 2, xy, w / 2) for xy in ((x, y), (y, x))]
    return out + [((), (), _constant_term(spec))]


def diagonal_combination_residual(theory: OrbifoldTheory, m: int) -> float:
    """Largest entry of L_m - sum_alpha nu_alpha^{-m/3} L_m^{(alpha)}, term
    by term (``_operator_entries``), class table against split table.

    With t_a = M_a u_a, M_a[k][alpha] = f_alpha[k] nu_alpha^{(a-1)/3}, so
    d/du_a^alpha = sum_k M_a[k][alpha] d/dt_a^k: each derivative slot of a
    split term moves by M_a, each variable slot of a class term by M_a^T.
    """
    ct = character_table(theory.group, theory.cd)
    cb = canonical_basis(ct, theory.algebra)
    f, r = cb.vectors, theory.r                     # f[alpha][k]
    nus = [float(nu) for nu in cb.nus]
    sides = [(VirasoroSpec(m, class_table(theory.algebra)), 1.0, "t")]
    sides += [(VirasoroSpec(m, split_table(r), alpha),
               -nus[alpha] ** (-m / 3), "d") for alpha in range(r)]
    total = {}
    for spec, weight, moved in sides:
        for slots, index, w in _operator_entries(spec):
            arr = [weight * float(w)]
            for (kind, a), i in zip(slots, index):
                if kind != moved:
                    vec = [float(k == i) for k in range(r)]
                elif kind == "t":           # row i of M_a
                    vec = [f[alpha][i] * nus[alpha] ** ((a - 1) / 3)
                           for alpha in range(r)]
                else:                       # column i of M_a
                    vec = [x * nus[i] ** ((a - 1) / 3) for x in f[i]]
                arr = [x * y for x in arr for y in vec]
            old = total.get(slots)
            total[slots] = arr if old is None else list(map(add, old, arr))
    return max(abs(x) for arr in total.values() for x in arr)
