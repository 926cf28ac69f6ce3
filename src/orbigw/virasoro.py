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
equivalent to R_n(F) = e^{-F} L_n e^{F} = 0, which the F-form reference
of ``tests/test_virasoro.py`` checks against L_n exp(F).  Its
genus-<=G part needs F only up to genus G, so F truncated at degree D and
genus G fixes every coefficient of degree <= D-1 (n <= 0) or D-2 (n >= 1).
Every report, like the KdV identity, generates each bracket (a partial
of F) from correlators over the compared region only, with contracted
pairs glued as handles or separating nodes and the first-order unit as
a level with no class (``OrbifoldTheory.bracket_family``).  The
per-index family is r copies of the point's diagonal family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import groupby, product
from operator import add
from typing import Optional

from .algebra import (FLOAT_TOLERANCE, ClassAlgebra, canonical_basis,
                      character_table, frobenius_product)
from .correlators import CANONICAL_RESCALED, CLASS_BASIS, OrbifoldTheory
from .groups import named_group
from .series import SeriesCaps, TruncatedSeries, mono_degree, mono_from_vars
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


def _zero_terms(spec, caps, system) -> list:
    """R_n(0) as terms at ``caps``: the multiplication and constant terms."""
    kind = dict(system=system)
    out = [(TruncatedSeries.from_monomial(caps, mono, w, lam=-2, **kind), 1, 0)
           for mono, w in _multiplication_terms(spec)]
    const = _constant_term(spec)
    if const:
        out.append((TruncatedSeries.constant(caps, const, **kind), 1, 0))
    return out


def _order(n: int) -> int:
    """L_n's order in d/dt: R_n(F) is exact to degree D - order, F at D."""
    return 2 if n >= 1 else 1


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


def _dilation_term(spec, series):
    """sum_{i,m} c(n, i) t_{(i,m)} d/dt_{(i+n, v e_m)}, via
    ``_dilation_moves``; it keeps each term's degree."""
    rows = [spec.times(m) for m in range(len(spec.table.unit))]
    moves = lru_cache(maxsize=None)(partial(_dilation_moves, spec.n, rows))
    return series.vector_field(moves)


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
    union of the term supports inside the region, read from each term's
    store at lambda <= lam_max - lam_shift (``positions``; degrees are
    read only for a region below the caps' degree: every check here
    compares up to its caps).  ``max_residual`` is the residual lhs - rhs
    of largest absolute value, the negative one when x and -x tie, and
    each violation shows the sums of both sides.
    The report depends on the residual values alone, not on term order.
    """
    support = set()

    def summed(terms):
        total = TruncatedSeries(caps)
        for series, value, lam_shift in terms:
            total.iadd(series, value, lam_shift=lam_shift)
            support.update(series.positions(lam_max - lam_shift, max_degree,
                                            lam_shift))
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


def _bracket_terms(spec, bracket) -> list:
    """The terms of R_n(F) - R_n(0) on the diagonal family (v the unit),
    from the brackets ``bracket`` hands out: those of F
    (``_bracket_source``), or of delta alone at n <= 0 (``_delta_bracket``).
    They are the first-order bracket, with the unit glued at level n+1
    (forgetting tails); the dilation term on the empty bracket; per i,
    weighted b_i, a handle glued at levels (i, n-1-i) (cutting loops) for
    the r second partials sum_m z_m d_{(i,m)} d_{(n-1-i,m')} F, and a node
    on (i | n-1-i) (cutting trees) for the r products d_{(i,m)}F
    d_{(n-1-i,m')}F, each with the support of its r terms (correlators >=
    0, z_m > 0).  The second-order brackets are read at lambda^2.

    So no series product is formed, and each report tests the point's
    recursion times the surface counts, not their splitting identity;
    that rests on ``check cohft``, the Frobenius-table tests, the
    separating-node test on every acceptance group and the node oracle.
    """
    n = spec.n
    [((a, k), w)] = _first_order_terms(spec)
    assert k == 0, "v is the unit e_0, so d/dt_{(n+1,0)} alone"
    terms = [(bracket((), ((a,),)), w, 0),
             (_dilation_term(spec, bracket(())), 1, 0)]
    for i in range(n):
        b = _coeff_second(n, i) / 2
        terms += [(bracket((), (tuple(sorted((i, n - 1 - i))),),
                           lam_shift=2), b, 2),
                  (bracket((), node=tuple(sorted(((i,), (n - 1 - i,)))),
                           lam_shift=2), b, 2)]
    return terms


def _generated_report(spec, terms, caps):
    """R_n(F) against zero on ``caps`` = (D - order, G), from its terms:
    the bracket terms (``_bracket_terms``), each generated up to the
    lambda it is read at (2G-4 for the second-order ones, 2G-2 for the
    rest), and R_n(0) (``_zero_terms``), compared at degree <= D - order
    and lambda <= 2G-2."""
    lam_max = caps.lam_ceiling
    return _compare(spec.label(), caps, terms, (), max_degree=caps.degree,
                    lam_max=lam_max,
                    window={"lambda_min": -2, "lambda_max": lam_max})


# The operators checked.  [L_m, L_n] = (m - n) L_{m+n}, which
# ``commutator_check`` verifies, builds every L_n (n >= -1) from L_{-1} and
# L_2, so whatever these annihilate every L_n annihilates.
VIRASORO_N = (-1, 0, 1, 2)


def virasoro_check(theory: OrbifoldTheory, *, degree: int = 6, genus: int = 2,
                   mutate=None) -> list:
    """Annihilation of the partition function by both operator families.

    Checks R_n(F) = e^{-F} L_n e^{F} = 0 (see the module docstring) for
    n = -1, 0, 1, 2 (``VIRASORO_N``: they generate every L_n), per-index
    operators first, exactly, at every coefficient of degree <= D - order
    (``_order``) and genus <= G, for D = ``degree`` and G = ``genus``.
    Every report is generated (``_generated_report``), with no potential
    and no series product.  In rescaled canonical variables F is r copies
    of the point's potential, L_n^{(f_alpha)} acting on copy alpha as the
    point's L_n: the point's diagonal reports, copied to each alpha with
    violations at class alpha, are the per-index ones.  ``mutate`` names
    one stored class-basis coefficient: the diagonal brackets are those
    of F + delta (``_mutation``), which has it doubled; MissingCoefficient
    is raised when F stores none there.
    """
    caps = SeriesCaps(degree=degree, genus=genus)
    diagonal = _diagonal_reports(theory, caps, mutate)
    at_point = _diagonal_reports(OrbifoldTheory(named_group("Z", 1)), caps)
    split = split_table(theory.r)
    return [replace(rep, operator=VirasoroSpec(n, split, alpha).label(),
                    violations=[{**v, "monomial": [
                        [a, alpha, e] for a, _k, e in v["monomial"]]}
                        for v in rep.violations])
            for alpha in range(theory.r)
            for n, rep in zip(VIRASORO_N, at_point)] + diagonal


def _diagonal_reports(theory, caps, mutate=None) -> list:
    """The diagonal reports of ``theory``, its brackets those of F + delta
    (``_mutation``), each order's at caps (D - order, G), D, G = caps."""
    delta = _mutation(theory, mutate, caps)
    table = class_table(theory.algebra)
    reports = []
    for order, ns in groupby(VIRASORO_N, key=_order):
        generated = replace(caps, degree=caps.degree - order)
        # brackets recur across n and i; the last source is freed first
        bracket = lru_cache(maxsize=None)(
            _bracket_source(theory, generated, delta, generated.lam_ceiling))
        reports += [_generated_report(
            spec, _bracket_terms(spec, bracket)
            + _zero_terms(spec, generated, CLASS_BASIS), generated)
            for spec in (VirasoroSpec(n, table) for n in ns)]
    return reports


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


def _delta_bracket(delta, pairs, caps, lam_max, fixed, handles=()):
    """delta's part of the bracket on the sorted (level, class) variables
    ``fixed`` with ``handles`` glued (``OrbifoldTheory.bracket_family``),
    over ``caps`` and up to lambda ``lam_max``, the bound of its family.
    delta is no potential, so it is differentiated: d_{(a,0)} for a unit
    at level a, and each handle contracted pair by pair over the inverse
    metric ``pairs`` (sum_m z_m d_{(i,m)} d_{(j,m')})."""
    d_delta = reduce(TruncatedSeries.partial_derivative, fixed, delta)
    for entry in handles:
        if len(entry) == 1:             # the unit e_0 at that level
            d_delta = d_delta.partial_derivative((entry[0], 0))
            continue
        i, j = entry
        glued = TruncatedSeries(delta.caps, system=CLASS_BASIS)
        for m, m2, z in pairs:
            glued.iadd(d_delta.second_partial((i, m), (j, m2)), z)
        d_delta = glued
    out = TruncatedSeries(caps, system=CLASS_BASIS)
    for mono, lam, c in d_delta.iter_terms():
        if lam <= lam_max:
            out.iadd(TruncatedSeries.from_monomial(
                caps, mono, c, lam=lam, system=CLASS_BASIS))
    return out


def _bracket_source(theory, caps, delta, lam_max):
    """bracket(fixed, handles, node, lam_shift): the class-basis bracket
    of F + delta on the sorted (level, class) variables ``fixed`` with a
    handle glued at each level pair of ``handles`` and the unit at each
    single level there, or with the node ``node``
    (``OrbifoldTheory.bracket_family``), over ``caps``, for a comparison
    up to lambda ``lam_max`` that reads it at lambda^lam_shift: its family
    is generated only up to lambda lam_max - lam_shift.

    A family is generated when one of its brackets is first asked for,
    and each bracket is handed out once: a second ask raises
    AssertionError.  Each bracket gets delta's part up to the same bound
    (``_delta_bracket``).  A node bracket gets, pair by pair, the cross
    terms dF d(delta), d(delta) dF and d(delta) d(delta) of its two
    factors.  delta is one monomial, so each is a product by a monomial,
    and a factor of F is generated only where delta's other factor is
    nonzero, up to the node's bound minus delta's lambda: the lambda it
    is read at.  d(delta) d(delta), at twice delta's lambda, is added
    only up to the bound.
    """
    pairs = class_table(theory.algebra).pairs
    families = {}
    plain = lru_cache(maxsize=None)(partial(theory.bracket_family, caps=caps))

    def bracket(fixed, handles=(), node=None, lam_shift=0):
        bound = lam_max - lam_shift
        signature = (tuple(a for a, _ in fixed), handles, node, bound)
        family = families.get(signature)
        if family is None:
            family = families[signature] = theory.bracket_family(
                signature[0], caps, handles, node=node, lam_max=bound)
        got = family.pop(fixed, None)
        if got is None:
            raise AssertionError(f"bracket {fixed} with handles {handles} "
                                 f"and node {node} asked for twice")
        if node is None:
            return got.iadd(_delta_bracket(delta, pairs, caps, bound, fixed,
                                           handles))
        if not delta.support():
            return got
        [(_mono, delta_lam, _c)] = delta.iter_terms()
        # the i-th levels of the two sides contracted, the rest handles
        k = min(map(len, node))
        sides = [tuple(zip(side[k::2], side[k + 1::2])) for side in node]
        for chosen in product(pairs, repeat=k):
            a = tuple(sorted(fixed + tuple(
                (lv, m) for lv, (m, _m2, _z) in zip(node[0], chosen))))
            b = tuple(sorted(
                (lv, m2) for lv, (_m, m2, _z) in zip(node[1], chosen)))
            # a factor of delta meets one at lambda >= -2
            da = _delta_bracket(delta, pairs, caps, bound + 2, a, sides[0])
            db = _delta_bracket(delta, pairs, caps, bound + 2, b, sides[1])
            factors = []
            if db.support():
                f_a = plain(tuple(v[0] for v in a), handles=sides[0],
                            lam_max=bound - delta_lam)[a]
                factors.append((f_a, db))
            if da.support():
                f_b = plain(tuple(v[0] for v in b), handles=sides[1],
                            lam_max=bound - delta_lam)[b]
                factors.append((f_b, da))
                if 2 * delta_lam <= bound:
                    factors.append((db, da))
            weight = math.prod(z for _m, _m2, z in chosen)
            for x, y in factors:
                for mono, lam, c in y.iter_terms():
                    got.iadd(x.multiply_by_monomial(mono, c * weight,
                                                    lam_shift=lam))
        return got

    return bracket


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
    potential and dots are inverse-metric contractions.  Every bracket is
    generated from correlators over the compared region only: degree <=
    ``degree``, and lambda <= 2G-2 minus the shift it is read at, for G =
    ``genus``.  So the left side, which carries lam^-2, and the node
    brackets, whose lambda^{2(g1+g2)-4} reaches 2G-2 at g1 + g2 = G + 1,
    are built one genus above ``genus``; the two-handle bracket stops at
    ``genus``.  The stated box is fully certified.  Both sides
    start at lam^-4: lam^-2 times a genus-0 bracket, or a product of two.
    Brackets come from ``_bracket_source``.  A pair contracted inside one
    bracket is a glued handle at levels (0, 0).  Each product of two
    brackets is one node bracket, with side levels (a-1, 0 | 0, 0, 0) and
    (a-1, 0, 0 | 0, 0): the first contraction joins the two surfaces at a
    separating node, and the others are handles.  So no series product is
    formed, and each report tests the point's KdV recursion times the
    surface counts, not their splitting identity; that rests on ``check
    cohft``, the Frobenius-table tests, the separating-node test on every
    acceptance group and the node oracle.  ``mutate`` doubles one
    coefficient of the potential truncated at degree + 5, the most any
    bracket differentiates, and each bracket gets the matching derivative
    of delta (``_mutation``).  MissingCoefficient is raised when that
    potential stores no coefficient there.
    """
    caps = SeriesCaps(degree=degree, genus=genus + 1)
    delta = _mutation(theory, mutate, replace(caps, degree=degree + 5))
    lam_max = 2 * genus - 2
    bracket = _bracket_source(theory, caps, delta, lam_max)
    handle = ((0, 0),)

    def report(a, c):
        fixed = ((a - 1, c),)
        rhs = [(bracket(fixed, node=((0,), (0, 0, 0))), 1, 0),
               (bracket(fixed, node=((0, 0), (0, 0))), 2, 0),
               (bracket(fixed, handle * 2), Q(1, 4), 0)]
        return _compare({"kdv_a": a, "direction_class": c}, caps,
                        [(bracket(((a, c),), handle, lam_shift=-2),
                          Q(2 * a + 1), -2)],
                        rhs, max_degree=degree, lam_max=lam_max,
                        window={"lambda_min": -4, "lambda_max": lam_max})

    return [report(a, c) for a in (1, 2) for c in range(theory.r)]


# -- factorization -------------------------------------------------------------


def idempotent_transport(theory: OrbifoldTheory):
    """(f, rescale) for t_a^k = sum_alpha f[alpha][k] rescale(a, alpha)
    u_a^alpha: the idempotents f_alpha in the class basis and the float
    rescaling rescale(a, alpha) = nu_alpha^{(a-1)/3}."""
    cb = canonical_basis(character_table(theory.group, theory.cd),
                         theory.algebra)
    nus = [float(nu) for nu in cb.nus]

    def rescale(a, alpha):
        return nus[alpha] ** ((a - 1) / 3)
    return cb.vectors, rescale


def factorization_check(theory: OrbifoldTheory, *, degree: int = 6,
                        genus: int = 2,
                        tol: float = FLOAT_TOLERANCE) -> ConstraintReport:
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
    f, rescale = idempotent_transport(theory)
    table = class_table(theory.algebra)
    target = theory.potential(caps, basis=CANONICAL_RESCALED)

    @lru_cache(maxsize=None)
    def eps(g, alphas):
        """eps(f_{alpha_1} ... f_{alpha_n} H^g) in the class table."""
        factors = [f[alpha] for alpha in alphas] + [table.handle] * g
        return complex(table.eps(reduce(table.product, factors, table.unit)))

    checked, worst, violations = 0, 0.0, []
    for g, variables, psi, mono, factorial in theory.class_keys(caps):
        alphas = tuple(sorted(alpha for _a, alpha in variables))
        scale = math.prod(rescale(a, alpha) for a, alpha in variables)
        lhs = float(psi / factorial) * scale * eps(g, alphas)
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
    <= 1, the targets ``mutation_sensitivity`` detects: the class keys
    whose surface count is nonzero (psi is), read with no potential
    built."""
    return sorted(
        (mono, 2 * genus - 2) for genus, variables, _psi, mono, _factorial
        in theory.class_keys(SeriesCaps(degree=4, genus=1))
        if theory.surface_count(genus, [c for _a, c in variables]))


def mutation_sensitivity(theory: OrbifoldTheory, *, targets=None) -> dict:
    """Double each stored low-genus coefficient; every mutation must trip
    an n = -1 or n = 0 diagonal report of ``virasoro_check`` at D5 G1.

    Those reports are generated at caps (4, 1).  R_n(F) is summed once
    from the bracket terms of F (``_bracket_terms``) and R_n(0); each
    target's delta (``_mutation``, doubling that coefficient) adds only
    its own bracket terms (``_delta_bracket``, as under ``--mutate``), and
    each report is compared as in ``virasoro_check``: the n <= 0 half of
    ``check virasoro --degree 5 --genus 1 --mutate`` that target, with no
    potential built.

    R_-1 changes by -d_{(0,0)} delta + dilation(delta), whose dilation
    part raises one level of delta's monomial per variable with
    coefficient 1: distinct monomials of its degree that cannot cancel and
    that lie in the compared region (degree <= 4, lambda <= 0) when delta
    has degree <= 4 and genus <= 1.  So every such target is caught by
    construction: the sweep shows that the check compares, not that the
    constraints determine F.  A target of degree > 4 raises ValueError,
    and one the potential does not store raises MissingCoefficient.
    ``targets`` defaults to every ``mutation_targets`` entry.
    """
    if targets is None:
        targets = mutation_targets(theory)
    caps = SeriesCaps(degree=4, genus=1)
    lam_max = caps.lam_ceiling
    table = class_table(theory.algebra)
    bracket = lru_cache(maxsize=None)(_bracket_source(
        theory, caps, _mutation(theory, None, caps), lam_max))
    residuals = []
    for spec in (VirasoroSpec(n, table) for n in (-1, 0)):
        # R_n(F), summed once: empty when F satisfies the constraint
        residual = TruncatedSeries(caps, system=CLASS_BASIS)
        for series, value, lam_shift in (_bracket_terms(spec, bracket)
                                         + _zero_terms(spec, caps,
                                                       CLASS_BASIS)):
            residual.iadd(series, value, lam_shift=lam_shift)
        residuals.append((spec, residual))
    undetected = []
    for mono, lam in targets:
        if mono_degree(mono) > 4:
            raise ValueError(f"mutation target {mono} has degree > 4")
        delta_brackets = partial(
            _delta_bracket, _mutation(theory, (mono, lam), caps), table.pairs,
            caps, lam_max)
        if all(_generated_report(
                spec,
                [(residual, 1, 0), *_bracket_terms(spec, delta_brackets)],
                caps).passed for spec, residual in residuals):
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

    With t_a = M_a u_a, M_a[k][alpha] = f_alpha[k] nu_alpha^{(a-1)/3}
    (``idempotent_transport``), so d/du_a^alpha = sum_k M_a[k][alpha]
    d/dt_a^k: each derivative slot of a split term moves by M_a, each
    variable slot of a class term by M_a^T.  The weight nu_alpha^{-m/3}
    is the rescaling at level a = 1 - m.
    """
    f, rescale = idempotent_transport(theory)       # f[alpha][k]
    r = theory.r
    sides = [(VirasoroSpec(m, class_table(theory.algebra)), 1.0, "t")]
    sides += [(VirasoroSpec(m, split_table(r), alpha),
               -rescale(1 - m, alpha), "d") for alpha in range(r)]
    total = {}
    for spec, weight, moved in sides:
        for slots, index, w in _operator_entries(spec):
            arr = [weight * float(w)]
            for (kind, a), i in zip(slots, index):
                if kind != moved:
                    vec = [float(k == i) for k in range(r)]
                elif kind == "t":           # row i of M_a
                    vec = [f[alpha][i] * rescale(a, alpha)
                           for alpha in range(r)]
                else:                       # column i of M_a
                    vec = [x * rescale(a, i) for x in f[i]]
                arr = [x * y for x in arr for y in vec]
            old = total.get(slots)
            total[slots] = arr if old is None else list(map(add, old, arr))
    return max(abs(x) for arr in total.values() for x in arr)
