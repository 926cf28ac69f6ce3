import dataclasses
import math
import sys
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, product

import pytest

from orbigw import virasoro
from orbigw.algebra import ClassAlgebra
from orbigw.correlators import (CANONICAL_RESCALED, CLASS_BASIS,
                                MissingCoefficient, OrbifoldTheory)
from orbigw.groups import named_group
from orbigw.series import (SeriesCaps, TruncatedSeries, mono_degree,
                           mono_factorial, mono_from_vars)
from orbigw.util import Q
from orbigw.virasoro import (VariableSystemMismatch, VirasoroSpec,
                             apply_virasoro, class_table, commutator_check,
                             diagonal_combination_residual,
                             factorization_check, fform_residual, kdv_check,
                             mutation_sensitivity, split_table,
                             virasoro_check)

CAPS = SeriesCaps(degree=6, genus=3)


@pytest.fixture(scope="module")
def z2():
    return OrbifoldTheory(named_group("Z", 2))


@pytest.fixture(scope="module")
def s3():
    return OrbifoldTheory(named_group("S", 3))


def assert_frobenius_data(table):
    """Unit, splitting sum_m z_m eps(x e_m) eps(e_m' y) = eps(xy), and the
    handle H = sum_m z_m e_m e_m', on basis vectors."""
    t, r = table, len(table.unit)

    def e(k):
        return tuple(int(j == k) for j in range(r))

    for x in range(r):
        assert t.product(t.unit, e(x)) == e(x)
        for y in range(r):
            split = sum(z * t.eps(t.product(e(x), e(m)))
                        * t.eps(t.product(e(m2), e(y)))
                        for m, m2, z in t.pairs)
            assert split == t.eps(t.product(e(x), e(y))), (x, y)
    handle = [0] * r
    for m, m2, z in t.pairs:
        handle = [h + z * c for h, c in zip(handle, t.product(e(m), e(m2)))]
    assert tuple(handle) == t.handle


def test_frobenius_tables():
    for name, param in (("S", 3), ("Z", 3), ("S", 4)):
        algebra = ClassAlgebra(named_group(name, param))
        table = class_table(algebra)
        assert_frobenius_data(table)
        assert table.handle == algebra.handle_element()
        assert table.eps(table.handle) == algebra.r
    for r in (1, 2, 3):
        table = split_table(r)
        assert_frobenius_data(table)
        for alpha in range(r):
            f_alpha = tuple(int(j == alpha) for j in range(r))
            assert table.eps(table.product(f_alpha, table.handle)) == 1


def test_first_term_coefficient():
    # leading term of L_1 is -(5!!/4) d/du_2
    s = TruncatedSeries.from_monomial(CAPS, mono_from_vars([(2, 0)]), Q(1),
                                      system=CANONICAL_RESCALED)
    out = apply_virasoro(VirasoroSpec(1, split_table(1), 0), s)
    assert out.coefficient((), 0) == Q(-15, 4)


def test_constant_terms():
    one_u = TruncatedSeries.constant(CAPS, 1, system=CANONICAL_RESCALED)
    out = apply_virasoro(VirasoroSpec(0, split_table(1), 0), one_u)
    assert out.coefficient((), 0) == Q(1, 16)

    s3 = OrbifoldTheory(named_group("S", 3))
    one_t = TruncatedSeries.constant(CAPS, 1, system=CLASS_BASIS)
    out = apply_virasoro(VirasoroSpec(0, class_table(s3.algebra)), one_t)
    assert out.coefficient((), 0) == Q(3, 16)


def test_string_operator_on_constant_is_not_zero():
    # L_{-1} applied to Z = 1 leaves the quadratic lambda^-2 term, so the
    # constant series is not annihilated
    one_u = TruncatedSeries.constant(CAPS, 1, system=CANONICAL_RESCALED)
    out = apply_virasoro(VirasoroSpec(-1, split_table(1), 0), one_u)
    assert out.coefficient(mono_from_vars([(0, 0), (0, 0)]), -2) == Q(1, 2)


def test_dilation_shift():
    # dilation part of L_1 maps u_3 to ((2*2+2+1)!!/(3!! * 4)) u_2
    s = TruncatedSeries.from_monomial(CAPS, mono_from_vars([(3, 0)]), Q(1),
                                      system=CANONICAL_RESCALED)
    out = apply_virasoro(VirasoroSpec(1, split_table(1), 0), s)
    assert out.coefficient(mono_from_vars([(2, 0)]), 0) == \
        Q(105, 3 * 4)


def test_variable_system_mismatch():
    s = TruncatedSeries.constant(CAPS, 1, system=CLASS_BASIS)
    with pytest.raises(VariableSystemMismatch):
        apply_virasoro(VirasoroSpec(0, split_table(1), 0), s)


def test_spec_validation():
    with pytest.raises(ValueError):
        VirasoroSpec(-2, split_table(1), 0)
    with pytest.raises(ValueError):
        VirasoroSpec(0, split_table(2), 2)
    with pytest.raises(ValueError):
        VirasoroSpec(0, split_table(2), -1)


def test_bracket_antisymmetry_and_relation():
    rep = commutator_check(VirasoroSpec(0, split_table(2), 0),
                           VirasoroSpec(0, split_table(2), 0), seed=1)
    assert rep.passed
    rep = commutator_check(VirasoroSpec(1, split_table(2), 0),
                           VirasoroSpec(-1, split_table(2), 0), seed=2)
    assert rep.passed
    rep = commutator_check(VirasoroSpec(2, split_table(2), 0),
                           VirasoroSpec(1, split_table(2), 0), seed=3)
    assert rep.passed


def test_bracket_distinct_indices_commute():
    rep = commutator_check(VirasoroSpec(1, split_table(3), 1),
                           VirasoroSpec(-1, split_table(3), 2), seed=4)
    assert rep.passed


def test_bracket_diagonal(s3):
    # Z3 has classes that are not self-inverse (m' != m)
    for theory in (s3, OrbifoldTheory(named_group("Z", 3))):
        table = class_table(theory.algebra)
        for m, n in ((1, -1), (2, 0), (2, -1), (0, 0)):
            rep = commutator_check(VirasoroSpec(m, table),
                                   VirasoroSpec(n, table), seed=5)
            assert rep.passed, (theory.r, m, n)


def test_bracket_needs_one_table(s3):
    z3 = OrbifoldTheory(named_group("Z", 3))
    with pytest.raises(ValueError):
        commutator_check(VirasoroSpec(0, class_table(s3.algebra)),
                         VirasoroSpec(0, class_table(z3.algebra)))
    with pytest.raises(ValueError):
        commutator_check(VirasoroSpec(-1, split_table(2), 0),
                         VirasoroSpec(-1, split_table(2), 1))


def test_virasoro_annihilation_trivial_group():
    triv = OrbifoldTheory(named_group("Z", 1))
    reports = virasoro_check(triv, degree=6, genus=2)
    assert len(reports) == 8
    for rep in reports:
        assert rep.passed, rep.operator
        assert rep.max_residual == 0
        assert rep.checked_monomials > 0


def test_virasoro_annihilation_z2(z2):
    reports = virasoro_check(z2, degree=5, genus=1)
    assert all(rep.passed for rep in reports)


def zform_fform_mismatches(theory, spec, monkeypatch, *, degree, genus,
                           drop_products=False):
    """Positions of degree <= D-2 and lambda <= 2G-2 where L_n exp(F) and
    exp(F) R_n(F) differ, for the potential F at degree D and genus G.

    The identity is algebraic for polynomial F, so F is the potential
    with its k-th coefficient times (k+2)/(k+1): both sides are then
    nonzero.  F is moved into caps one genus higher, so that no product
    is lambda-truncated: above the cap a term could come back down
    through a lambda^-2 factor.
    """
    phi = theory.potential(SeriesCaps(degree=degree, genus=genus),
                           basis=spec.table.system)
    caps = SeriesCaps(degree=degree, genus=genus + 1)
    f = TruncatedSeries(caps, system=phi.system)
    for k, (mono, lam, c) in enumerate(sorted(phi.iter_terms())):
        f.add_term(mono, lam, c * Q(k + 2, k + 1))
    z = f.exponential()
    with monkeypatch.context() as m:
        if drop_products:   # d1F d2F is the only product in R_n(F)
            m.setattr(TruncatedSeries, "multiply",
                      lambda self, other, **kw: TruncatedSeries(
                          self.caps, system=self.system))
        r_n = fform_residual(spec, f, max_degree=degree - 2)
    lhs = apply_virasoro(spec, z)
    rhs = z.multiply(r_n, max_degree=degree - 2)
    region = [(mono, lam) for mono, lam in lhs.support() | rhs.support()
              if mono_degree(mono) <= degree - 2 and lam <= 2 * genus - 2]
    assert region
    return [(mono, lam) for mono, lam in region
            if lhs.coefficient(mono, lam) != rhs.coefficient(mono, lam)]


def test_fform_matches_zform(z2, monkeypatch):
    # e^{-F} L_n e^{F} = R_n(F) on Z1 and Z2 at D4 G1, both families, and
    # the diagonal family on Z3, whose classes are not all self-inverse
    z1 = OrbifoldTheory(named_group("Z", 1))
    z3 = OrbifoldTheory(named_group("Z", 3))
    cases = [(th, VirasoroSpec(n, class_table(th.algebra)))
             for th in (z1, z2, z3) for n in (-1, 0, 1, 2)]
    cases += [(th, VirasoroSpec(n, split_table(th.r), alpha))
              for th in (z1, z2) for alpha in range(th.r)
              for n in (-1, 0, 1, 2)]
    for theory, spec in cases:
        assert not zform_fform_mismatches(theory, spec, monkeypatch,
                                          degree=4, genus=1), spec
        # without d1F d2F the identity must fail where it shows
        if spec.n == 2:
            assert zform_fform_mismatches(theory, spec, monkeypatch,
                                          degree=4, genus=1,
                                          drop_products=True), spec


def family_series(spec, potential, watermark):
    """The six term families of R_n(F), each summed into one series from
    the operator builders of ``apply_virasoro``, exact at degree <=
    ``watermark``."""
    caps, kind = potential.caps, dict(system=potential.system)
    d = lru_cache(maxsize=None)(potential.partial_derivative)
    second = virasoro._second_order_terms(spec)

    def total(terms):
        out = TruncatedSeries(caps, **kind)
        for series, w, lam_shift in terms:
            out.iadd(series, w, lam_shift=lam_shift)
        return out

    return {
        "first-order": total((d(var), w, 0) for var, w
                             in virasoro._first_order_terms(spec)),
        "dilation": virasoro._dilation_term(spec, potential, watermark),
        "second-order": total((d(v1).partial_derivative(v2), w, 2)
                              for v1, v2, w in second),
        "product": total((d(v1).multiply(d(v2), max_degree=watermark), w, 2)
                         for v1, v2, w in second),
        "multiplication": total(
            (TruncatedSeries.from_monomial(caps, mono, w, lam=-2, **kind),
             1, 0) for mono, w in virasoro._multiplication_terms(spec)),
        "constant": TruncatedSeries.constant(
            caps, virasoro._constant_term(spec), **kind),
    }


def point_factorization(theory, caps, *, with_v=True):
    """{(v, n, family): (compared, mismatches)} for the identity

      M! T^{(e_v)}(F)[M, lam^{2g-2}]
        = eps(e_v prod_{(a,c) in M} e_c H^g) L! T^pt(F^pt)[L, lam^{2g-2}]

    over every v, every n in VIRASORO_N and each term family T of R_n,
    with F^pt the point potential and L the level multiset of M.  The
    positions compared are the class support in the region of degree <=
    D-1 (n <= 0) or D-2 (n >= 1) plus every class assignment of the point
    support there, so a missing class coefficient counts as a mismatch.
    ``with_v=False`` drops e_v from the factor.
    """
    table = class_table(theory.algebra)
    point = OrbifoldTheory(named_group("Z", 1))
    point_table = class_table(point.algebra)
    phi, phi_pt = theory.potential(caps), point.potential(caps)
    r = theory.r

    def e(k):
        return tuple(int(j == k) for j in range(r))

    @lru_cache(maxsize=None)
    def factor(v, classes, g):
        vectors = [e(v)] * with_v + [e(c) for c in classes]
        vectors += [table.handle] * g
        return table.eps(reduce(table.product, vectors, table.unit))

    out = {}
    for n in virasoro.VIRASORO_N:
        watermark = caps.degree - (2 if n >= 1 else 1)
        point_families = family_series(VirasoroSpec(n, point_table), phi_pt,
                                       watermark)
        for v in range(r):
            families = family_series(VirasoroSpec(n, table, v), phi,
                                     watermark)
            for name, series in families.items():
                pt = point_families[name]
                region = {(mono, lam) for mono, lam in series.support()
                          if mono_degree(mono) <= watermark}
                for levels, lam in pt.support():
                    if mono_degree(levels) > watermark:
                        continue
                    for chosen in product(*(
                            combinations_with_replacement(range(r), k)
                            for _var, k in levels)):
                        region.add((mono_from_vars(
                            (a, c) for ((a, _m), _k), cs
                            in zip(levels, chosen) for c in cs), lam))
                mismatches = []
                for mono, lam in region:
                    variables = [var for var, k in mono for _ in range(k)]
                    levels = mono_from_vars((a, 0) for a, _c in variables)
                    classes = tuple(sorted(c for _a, c in variables))
                    lhs = mono_factorial(mono) * series.coefficient(mono, lam)
                    rhs = (factor(v, classes, (lam + 2) // 2)
                           * mono_factorial(levels)
                           * pt.coefficient(levels, lam))
                    if lhs != rhs:
                        mismatches.append((mono, lam))
                out[v, n, name] = (len(region), mismatches)
    return out


# the families with a position at degree <= D-1 (n <= 0) or D-2 (n >= 1):
# multiplication at n = -1, the constant at n = 0, lambda^2 terms at n >= 1,
# and products first at n = 2 (degree <= 2 at n = 1 leaves them no room)
FAMILIES_PRESENT_AT_D4_G1 = (
    [(n, family) for n in virasoro.VIRASORO_N
     for family in ("first-order", "dilation")]
    + [(-1, "multiplication"), (0, "constant"), (1, "second-order"),
       (2, "second-order"), (2, "product")])


@pytest.mark.parametrize("name,param", [("S", 3), ("Z", 3), ("Q8", 0)])
def test_class_residuals_factor_through_the_point(name, param):
    # each term family of R_n^{(e_v)} on the class potential is a
    # Frobenius number times the same family on the point potential
    theory = OrbifoldTheory(named_group(name, param))
    caps = SeriesCaps(degree=4, genus=1)
    got = point_factorization(theory, caps)
    assert not {key: m for key, (_c, m) in got.items() if m}
    present = {(v, n, family) for (v, n, family), (compared, _m)
               in got.items() if compared}
    assert present == {(v, n, family) for v in range(theory.r)
                       for n, family in FAMILIES_PRESENT_AT_D4_G1}


def test_point_factor_needs_the_operator_vector(s3):
    # with e_v dropped from the factor, v = e_1 fails in every family
    got = point_factorization(s3, SeriesCaps(degree=4, genus=1),
                              with_v=False)
    for n, family in FAMILIES_PRESENT_AT_D4_G1:
        assert got[1, n, family][1], (n, family)


def test_virasoro_mutation_detected(z2):
    target = ((((1, 0), 1),), 0)
    reports = virasoro_check(z2, degree=5, genus=1, mutate=target)
    assert any(not rep.passed for rep in reports)
    bad = next(rep for rep in reports if not rep.passed)
    assert bad.violations  # located violation with monomial and lambda
    assert "monomial" in bad.violations[0]


def test_compare_report_is_free_of_term_order():
    # the residual holds +3 and -3: max_residual is -3 in every order of
    # the terms and of the terms inside a series
    caps = SeriesCaps(degree=2, genus=1)
    x, y = mono_from_vars([(0, 0)]), mono_from_vars([(0, 1)])

    def series(*pairs):
        s = TruncatedSeries(caps)
        for mono, c in pairs:
            s.add_term(mono, 0, Q(c))
        return s

    one, two = series((x, 3), (y, -3)), series((y, 1), (x, 1))
    orders = [[one, two], [two, one],
              [series((y, -3), (x, 3)), series((x, 1), (y, 1))]]
    reports = [virasoro._compare({}, caps, [(s, 1, 0) for s in terms],
                                 [(two, 1, 0)], max_degree=2, lam_max=0)
               for terms in orders]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].max_residual == -3
    assert reports[0].checked_monomials == 2


def test_kdv_trivial_and_z2(z2):
    triv = OrbifoldTheory(named_group("Z", 1))
    for theory in (triv, z2):
        reports = kdv_check(theory, degree=4, genus=1)
        assert reports and all(rep.passed for rep in reports)
        assert all(rep.checked_monomials > 0 for rep in reports)


def handed_brackets(theory, check, monkeypatch, **kw):
    """(signatures, brackets) of one ``check`` run on ``theory``: the
    (fixed levels, caps, handles, node, lambda bound) of every family the
    generator produced, and (fixed variables, handles, node, lambda bound,
    bracket) for every bracket the check was handed, as the check used
    it: mutated in place when it mutates.  No family is generated
    twice."""
    families, signatures = [], []
    generate = theory.bracket_family

    def record(fixed_levels, caps, handles=(), node=None, lam_max=None):
        family = generate(fixed_levels, caps, handles, node, lam_max)
        signatures.append((tuple(fixed_levels), caps, handles, node,
                           lam_max))
        families.append((handles, node, lam_max, family,
                         list(family.items())))
        return family

    with monkeypatch.context() as m:
        m.setattr(theory, "bracket_family", record)
        check(theory, **kw)
    assert len(set(signatures)) == len(signatures)
    # a bracket handed out has left its family
    return signatures, [(fixed, handles, node, lam_max, got)
                        for handles, node, lam_max, family, made in families
                        for fixed, got in made if fixed not in family]


def differentiated_brackets(theory, caps, mutate):
    """reference(fixed, handles, node, caps): the bracket the generator
    should hand out, from the potential at ``caps`` with the mutated
    coefficient doubled, differentiated by the variables ``fixed``, with
    each handle (i, j) contracted as an explicit sum over the
    inverse-metric pairs of d_{(i,m)} d_{(j,m')} and each unit (a,) as
    d_{(a,0)}, its terms kept in the given caps.

    A node (side-1 levels, side-2 levels) is the explicit sum over the
    pairs of the products of two such brackets: the fixed variables and
    side 1's levels on one, side 2's on the other, the i-th levels of the
    two sides contracted and the rest of the longer side contracted as
    handles there.  A node stores lambda <= 2G-4 (genus g1 + g2 <= G).
    """
    phi = theory.potential(caps)
    if mutate is not None:
        phi.add_term(*mutate, phi.coefficient(*mutate))
    pairs = class_table(theory.algebra).pairs
    derivs = {(): phi}

    def deriv(fixed):
        if fixed not in derivs:
            derivs[fixed] = deriv(fixed[:-1]).partial_derivative(fixed[-1])
        return derivs[fixed]

    @lru_cache(maxsize=None)
    def glued(fixed, handles, degree):
        if not handles:
            return deriv(tuple(sorted(fixed))).truncated_to_degree(degree)
        entry, rest = handles[0], handles[1:]
        if len(entry) == 1:
            return glued(fixed + ((entry[0], 0),), rest, degree)
        i, j = entry
        out = TruncatedSeries(caps)
        for m, m2, z in pairs:
            out.iadd(glued(fixed + ((i, m), (j, m2)), rest, degree), z)
        return out

    def reference(fixed, handles, node, in_caps):
        if node is None:
            return restricted(glued(fixed, handles, in_caps.degree), in_caps)
        k = min(map(len, node))
        sides = [tuple(zip(side[k::2], side[k + 1::2])) for side in node]
        out = TruncatedSeries(caps)
        for chosen in product(pairs, repeat=k):
            a = fixed + tuple((lv, m) for lv, (m, _, _) in zip(node[0], chosen))
            b = tuple((lv, m2) for lv, (_, m2, _) in zip(node[1], chosen))
            z = math.prod(z for _m, _m2, z in chosen)
            out.iadd(glued(a, sides[0], in_caps.degree).multiply(
                glued(b, sides[1], in_caps.degree),
                max_degree=in_caps.degree), z)
        return restricted(out, in_caps)

    return reference


def restricted(series, caps, lam_max=None):
    """The terms of ``series`` inside ``caps``, and at lambda <= lam_max if
    given, as a series in ``caps``."""
    out = TruncatedSeries(caps)
    for mono, lam, c in series.iter_terms():
        if mono_degree(mono) <= caps.degree and (lam_max is None
                                                 or lam <= lam_max):
            out.add_term(mono, lam, c)
    return out


def as_stated(series, lam_max):
    """A bracket where it is stated: at lambda <= lam_max, the bound its
    family was generated to, which is the lambda it is read at.  Above
    it, the terms of a mutation are not truncated alike.  A node bracket,
    read at lambda shift 0 in KdV (caps G+1) and 2 in Virasoro (caps G),
    is stated up to 2G-4 of its caps either way."""
    return restricted(series, series.caps, lam_max)


def assert_brackets_match(brackets, reference):
    for fixed, handles, node, lam_max, got in brackets:
        want = reference(fixed, handles, node, got.caps)
        assert as_stated(got, lam_max) == as_stated(want, lam_max), (
            fixed, handles, node)


# (handles, node) of every bracket KdV is handed, and the lambda shift it
# is read at: the left side with one handle (lambda^-2), the five-point
# bracket with two, and the two node brackets
KDV_SHAPES = {(((0, 0),), None): -2, (((0, 0), (0, 0)), None): 0,
              ((), ((0,), (0, 0, 0))): 0, ((), ((0, 0), (0, 0))): 0}


def test_kdv_brackets_match_differentiated_potential(z2, s3, monkeypatch):
    # oracle: differentiate the potential truncated at degree D + 5 (the
    # most any bracket differentiates), with the mutated coefficient
    # doubled, contract each handle as an explicit sum over inverse-metric
    # pairs and each node as an explicit sum of products, and drop
    # monomials above degree D
    z3 = OrbifoldTheory(named_group("Z", 3))
    cases = [(th, d, None) for th in (z2, s3) for d in (1, 2, 3)]
    cases += [(z3, 1, None),
              (z2, 3, ((((0, 0), 1), ((0, 1), 2)), -2)),
              (s3, 3, ((((0, 1), 1), ((0, 2), 2), ((1, 1), 1)), -2)),
              (z3, 1, ((((0, 0), 1), ((0, 1), 1), ((0, 2), 1)), -2))]
    plain = {}
    for theory, degree, mutate in cases:
        _signatures, calls = handed_brackets(
            theory, kdv_check, monkeypatch, degree=degree, genus=1,
            mutate=mutate)
        caps = SeriesCaps(degree=degree + 5, genus=2)
        assert_brackets_match(calls, differentiated_brackets(theory, caps,
                                                             mutate))
        # each generated up to lambda 0 (genus 1) minus its shift
        assert {(handles, node, lam_max)
                for _f, handles, node, lam_max, _g in calls} \
            == {(handles, node, -shift)
                for (handles, node), shift in KDV_SHAPES.items()}
        assert len(calls) == len(KDV_SHAPES) * 2 * theory.r
        stated = {(fixed, node): as_stated(got, lam_max)
                  for fixed, _h, node, lam_max, got in calls if node}
        if mutate is None:
            plain[theory, degree] = stated
        else:                       # the target reaches a node bracket
            assert stated != plain[theory, degree]


# (fixed levels, handles, node, lambda shift) of the families the
# diagonal reports generate, by degree drop.  R_-1 and R_0 (drop 1): the
# first order, with the unit glued at level n + 1, and the dilation term
# on the empty family.  R_1 and R_2 (drop 2): those, the glued handles at
# (i, n-1-i), and the nodes on (i | n-1-i), sorted, so n = 2 asks for one
# (0 | 1).  The second-order terms are read at lambda^2, so their
# families stop 2 below the ceiling
VIRASORO_FAMILIES = {
    1: {((), ((0,),), None, 0), ((), ((1,),), None, 0), ((), (), None, 0)},
    2: {((), ((2,),), None, 0), ((), ((3,),), None, 0), ((), (), None, 0),
        ((), ((0, 0),), None, 2), ((), ((0, 1),), None, 2),
        ((), (), ((0,), (0,)), 2), ((), (), ((0,), (1,)), 2)}}


@pytest.mark.parametrize("name,param,target", [
    ("Z", 2, ((((0, 0), 1), ((0, 1), 2)), -2)),
    # classes 1 and 2 are mutual inverses
    ("Z", 3, ((((0, 0), 1), ((0, 1), 1), ((0, 2), 1)), -2)),
    ("S", 3, ((((0, 1), 2), ((0, 2), 1)), -2))])
def test_virasoro_brackets_match_differentiated_potential(
        name, param, target, monkeypatch):
    # oracle: each bracket the diagonal reports generate (first order,
    # dilation, glued handles, nodes) is the potential at degree D, with
    # the mutated coefficient doubled, differentiated (a glued unit at
    # level a as d_{(a,0)}), its handles contracted as pair sums at their
    # levels, a node as the pair sum of the explicit products d_{(i,m)}F
    # d_{(n-1-i,m')}F, and truncated at D-1 or D-2
    theory = OrbifoldTheory(named_group(name, param))
    for degree, genus in ((4, 1), (5, 2)):
        for mutate in (None, target):
            caps = SeriesCaps(degree=degree, genus=genus)
            signatures, calls = handed_brackets(
                theory, virasoro_check, monkeypatch, degree=degree,
                genus=genus, mutate=mutate)
            made = {(degree - c.degree, (levels, handles, node,
                                         None if lam_max is None
                                         else c.lam_ceiling - lam_max))
                    for levels, c, handles, node, lam_max in signatures}
            expected = {(drop, family) for drop, families
                        in VIRASORO_FAMILIES.items() for family in families}
            # under --mutate, a node's factors of F where delta's are not
            # 0, unbounded
            assert made - expected <= (
                set() if mutate is None
                else {(2, ((a,), (), None, None)) for a in (0, 1)})
            assert made >= expected
            assert all(c.genus == genus for _l, c, _h, _n, _b in signatures)
            handed = {(degree - got.caps.degree, fixed, handles, node)
                      for fixed, handles, node, _b, got in calls}
            assert handed == {
                (drop, (), handles, node)
                for drop, families in VIRASORO_FAMILIES.items()
                for _levels, handles, node, _shift in families}
            assert_brackets_match(
                calls, differentiated_brackets(theory, caps, mutate))
            if mutate is not None:      # the target reaches both caps
                plain = differentiated_brackets(theory, caps, None)
                changed = {(degree - got.caps.degree, node is not None)
                           for fixed, handles, node, lam_max, got in calls
                           if as_stated(got, lam_max) != as_stated(
                               plain(fixed, handles, node, got.caps),
                               lam_max)}
                assert changed == {(1, False), (2, False), (2, True)}


def test_plain_checks_form_no_series_product(z2, s3, monkeypatch):
    # brackets, handles and nodes are generated: a plain KdV run forms no
    # series product, and a plain Virasoro run forms them only in the
    # per-index reports on the canonical potential (``_fform_delta_terms``);
    # a mutated run adds products by delta's monomial
    callers = []
    multiply = TruncatedSeries.multiply

    def record(self, other, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return multiply(self, other, **kw)

    monkeypatch.setattr(TruncatedSeries, "multiply", record)
    for theory in (z2, s3):
        assert all(rep.passed for rep in kdv_check(theory, degree=4, genus=1))
        assert callers == []
        assert all(rep.passed for rep in virasoro_check(theory, degree=5,
                                                        genus=2))
        assert callers and set(callers) == {"_fform_delta_terms"}
        callers.clear()
    kdv_check(z2, degree=4, genus=1, mutate=((((0, 0), 1), ((0, 1), 2)), -2))
    assert callers and set(callers) == {"multiply_by_monomial"}


def test_generated_terms_are_all_compared(z2, s3, monkeypatch):
    # a plain check generates only what it compares: every stored
    # (monomial, lambda) of every term handed to _compare lies in the
    # compared region, lambda + shift <= lambda_max and degree <=
    # max_degree.  The per-index reports are exempt: they still
    # differentiate the canonical potential at degree D (ROADMAP item 6)
    compare = virasoro._compare
    seen, outside = [], []

    def record(operator, caps, lhs, rhs, **kw):
        lhs, rhs = list(lhs), list(rhs)
        if operator.get("flavor") != "per_index":
            seen.append(operator)
            outside.extend(
                (operator, mono, lam, lam_shift)
                for series, _value, lam_shift in lhs + rhs
                for mono, lam in series.support()
                if lam + lam_shift > kw["lam_max"]
                or mono_degree(mono) > kw["max_degree"])
        return compare(operator, caps, lhs, rhs, **kw)

    monkeypatch.setattr(virasoro, "_compare", record)
    z3 = OrbifoldTheory(named_group("Z", 3))
    for theory in (z2, z3, s3):
        for degree in range(1, 5):
            for genus in (1, 2):
                reports = kdv_check(theory, degree=degree, genus=genus)
                assert all(rep.passed for rep in reports)
    assert {rep.operator["flavor"]
            for rep in virasoro_check(s3, degree=5, genus=2)
            + virasoro_check(z2, degree=6, genus=3)
            if rep.passed} == {"per_index", "diagonal"}
    assert {"kdv_a" in op for op in seen} == {True, False}
    assert outside == []


def test_virasoro_builds_no_class_potential(z2, monkeypatch):
    # the diagonal reports generate their brackets, plain and mutated: the
    # one potential virasoro_check builds is the per-index family's
    # canonical one, and a missing target is refused before any
    bases = []
    build = z2.potential

    def record(caps, *, basis=CLASS_BASIS):
        bases.append(basis)
        return build(caps, basis=basis)

    monkeypatch.setattr(z2, "potential", record)
    plain = virasoro_check(z2, degree=4, genus=1)
    mutated = virasoro_check(z2, degree=4, genus=1,
                             mutate=((((0, 0), 1), ((0, 1), 2)), -2))
    with pytest.raises(MissingCoefficient):
        virasoro_check(z2, degree=4, genus=1, mutate=((((0, 0), 9),), -2))
    assert bases == [CANONICAL_RESCALED] * 2
    assert all(rep.passed for rep in plain)
    assert not all(rep.passed for rep in mutated[-4:])


def test_kdv_mutation_builds_no_potential(z2, monkeypatch):
    # the target is checked from its own correlator, not by building the
    # degree-(D+5) potential
    def no_potential(*_args, **_kwargs):
        raise AssertionError("kdv_check built a potential")

    monkeypatch.setattr(z2, "potential", no_potential)
    reports = kdv_check(z2, degree=4, genus=1,
                        mutate=((((0, 0), 1), ((0, 1), 2)), -2))
    assert any(not rep.passed for rep in reports)
    with pytest.raises(MissingCoefficient):
        kdv_check(z2, degree=4, genus=1, mutate=((((0, 0), 9),), -2))


def test_kdv_check_leaves_no_state_behind():
    # brackets are handed out once and delta is added to them in place:
    # plain, mutated and plain again on one theory report what fresh
    # theories report.  The target reaches the two-handle bracket through
    # Z3's mutually inverse classes 1 and 2.
    target = ((((0, 0), 1), ((0, 1), 2), ((0, 2), 2), ((3, 0), 1)), -2)

    def fresh(**kw):
        return kdv_check(OrbifoldTheory(named_group("Z", 3)), degree=3,
                         genus=1, **kw)

    theory = OrbifoldTheory(named_group("Z", 3))
    runs = [kdv_check(theory, degree=3, genus=1, mutate=mutate)
            for mutate in (None, target, None)]
    plain, mutated = fresh(), fresh(mutate=target)
    assert runs == [plain, mutated, plain]
    assert all(rep.passed for rep in plain)
    assert not all(rep.passed for rep in mutated)


def test_kdv_vanishing_slice(z2):
    # with v in the nontrivial class both sides vanish in the genus-0
    # degree-0 slice: the lhs coefficient of the empty monomial is zero
    reports = kdv_check(z2, degree=2, genus=0)
    assert all(rep.passed for rep in reports)


def test_factorization_z2(z2):
    rep = factorization_check(z2, degree=6, genus=2, tol=1e-9)
    assert rep.passed
    assert rep.max_residual < 1e-9
    # every key of the box is compared, also those whose class-basis
    # expansion cancels
    assert rep.checked_monomials == 1606


def test_factorization_s3(s3):
    rep = factorization_check(s3, degree=4, genus=1, tol=1e-8)
    assert rep.passed


def test_factorization_trivial_group_exact():
    triv = OrbifoldTheory(named_group("Z", 1))
    rep = factorization_check(triv, degree=5, genus=1, tol=1e-12)
    assert rep.passed


def test_factorization_failure_is_located(z2):
    rep = factorization_check(z2, degree=4, genus=1, tol=1e-30)
    assert not rep.passed
    assert all("monomial" in v and "lambda" in v for v in rep.violations)


def test_factorization_complex_characters():
    # cyclic groups beyond Z_2 have idempotents in conjugate pairs; the
    # transport must come back real within tolerance
    for n in (3, 4, 5):
        th = OrbifoldTheory(named_group("Z", n))
        rep = factorization_check(th, degree=4, genus=1, tol=1e-8)
        assert rep.passed, n


def test_factorization_catches_one_doubled_coefficient():
    theory = OrbifoldTheory(named_group("S", 3))
    caps = SeriesCaps(degree=4, genus=1)
    mono, lam, _c = sorted(
        theory.potential(caps, basis=CANONICAL_RESCALED).iter_terms())[5]
    real = theory.potential

    def doubled(caps, *, basis=CLASS_BASIS):
        phi = real(caps, basis=basis)
        if basis == CANONICAL_RESCALED:
            phi.add_term(mono, lam, phi.coefficient(mono, lam))
        return phi

    theory.potential = doubled
    rep = factorization_check(theory, degree=4, genus=1)
    assert [(v["monomial"], v["lambda"]) for v in rep.violations] \
        == [([[a, m, e] for (a, m), e in mono], lam)]


def test_virasoro_complex_characters_and_q8():
    z3 = OrbifoldTheory(named_group("Z", 3))
    assert all(r.passed for r in virasoro_check(z3, degree=4, genus=1))
    assert all(r.passed for r in kdv_check(z3, degree=3, genus=1))
    q8 = OrbifoldTheory(named_group("Q8"))
    assert all(r.passed for r in virasoro_check(q8, degree=4, genus=1))


def test_diagonal_is_rescaled_sum(z2, s3):
    # Z3's classes are not self-inverse: its multiplication and
    # second-order matrices have off-diagonal entries
    z3 = OrbifoldTheory(named_group("Z", 3))
    q8 = OrbifoldTheory(named_group("Q8"))
    for theory in (z2, s3, z3, q8):
        for m in (-1, 0, 1, 2):
            assert diagonal_combination_residual(theory, m) < 1e-8


def test_diagonal_combination_catches_a_wrong_counit(s3, monkeypatch):
    # counit 2 doubles the multiplication (m = -1) and constant (m = 0)
    # terms of the per-index family and leaves the others alone
    real = virasoro.split_table
    monkeypatch.setattr(virasoro, "split_table", lambda r: dataclasses.replace(
        real(r), counit=(Q(2),) * r))
    assert diagonal_combination_residual(s3, -1) > 0.1
    assert diagonal_combination_residual(s3, 0) > 0.1
    assert diagonal_combination_residual(s3, 1) < 1e-8


def test_mutation_sensitivity_z2(z2):
    out = mutation_sensitivity(z2)
    assert out["passed"]
    assert out["mutated"] > 20


def test_mutation_sensitivity_rejects_degree_above_4(z2):
    # stored in the D5 G1 potential, but outside its compared degree <= 4
    target = ((((0, 0), 3), ((1, 0), 2)), -2)
    assert z2.stored_coefficient(target, SeriesCaps(degree=5, genus=1))
    with pytest.raises(ValueError, match="degree > 4"):
        mutation_sensitivity(z2, targets=[target])


SWEEP_CAPS = SeriesCaps(degree=5, genus=1)


def rebuilt_mutation_sweep(theory, targets):
    """The sweep without delta updates: each target rebuilds F + delta and
    compares R_-1 and R_0 of it in full."""
    table = class_table(theory.algebra)
    base = theory.potential(SWEEP_CAPS)
    undetected = []
    for mono, lam in targets:
        if mono_degree(mono) > 4:
            raise ValueError(f"mutation target {mono} has degree > 4")
        phi = base.add(virasoro._mutation(theory, (mono, lam), SWEEP_CAPS))
        if all(virasoro._fform_report(VirasoroSpec(n, table), phi,
                                      degree=SWEEP_CAPS.degree).passed
               for n in (-1, 0)):
            undetected.append({"monomial": virasoro._mono_json(mono),
                               "lambda": lam})
    return {"mutated": len(targets), "undetected": undetected,
            "passed": not undetected}


def test_fform_delta_terms_sum_to_the_difference(z2, s3):
    # oracle: R_n(F + delta) - R_n(F), both built in full, at the compared
    # degree, for degree-3 genus-0 and low-degree genus-1 targets; at
    # n = 1, 2 the products of F's derivatives with delta's must matter
    exercised = set()
    for theory in (z2, s3):
        base = theory.potential(SWEEP_CAPS)
        targets = virasoro.mutation_targets(theory)
        picked = [t for t in targets if t[1] == -2 and mono_degree(t[0]) == 3]
        picked += sorted((t for t in targets if t[1] == 0),
                         key=lambda t: mono_degree(t[0]))[:2]
        assert len(picked) >= 4
        for n in virasoro.VIRASORO_N:
            spec = VirasoroSpec(n, class_table(theory.algebra))
            watermark = SWEEP_CAPS.degree - (2 if n >= 1 else 1)
            before = fform_residual(spec, base, max_degree=watermark)
            for target in picked:
                delta = virasoro._mutation(theory, target, SWEEP_CAPS)
                want = fform_residual(spec, base.add(delta),
                                      max_degree=watermark).iadd(before, -1)
                got, alone = (TruncatedSeries(SWEEP_CAPS) for _ in range(2))
                for total, phi in ((got, base), (alone, None)):
                    for series, value, lam_shift in virasoro._fform_delta_terms(
                            spec, phi, delta, max_degree=watermark):
                        total.iadd(series, value, lam_shift=lam_shift)
                assert want.support() and got == want, (n, target)
                if alone != want:
                    exercised.add(n)
    assert exercised == {1, 2}


def test_mutation_sweep_matches_the_rebuilt_sweep(s3):
    for theory in (OrbifoldTheory(named_group("Z", 1)),
                   OrbifoldTheory(named_group("Z", 2)), s3):
        targets = virasoro.mutation_targets(theory)
        assert mutation_sensitivity(theory) == \
            rebuilt_mutation_sweep(theory, targets)


def test_mutation_sweep_misses_the_one_target_a_wrong_potential_lacks(
        z2, monkeypatch):
    # F - c t^M has a nonzero residual, which only F - c t^M + delta_M
    # repairs: the sweep misses exactly M
    targets = virasoro.mutation_targets(z2)
    mono, lam = targets[len(targets) // 2]
    real = z2.potential

    def lacking(caps, **kwargs):
        phi = real(caps, **kwargs)
        phi.add_term(mono, lam, -phi.coefficient(mono, lam))
        return phi

    monkeypatch.setattr(z2, "potential", lacking)
    assert fform_residual(VirasoroSpec(-1, class_table(z2.algebra)),
                          z2.potential(SWEEP_CAPS), max_degree=4).support()
    want = {"mutated": len(targets), "passed": False,
            "undetected": [{"monomial": virasoro._mono_json(mono),
                            "lambda": lam}]}
    assert rebuilt_mutation_sweep(z2, targets) == want
    assert mutation_sensitivity(z2, targets=targets) == want


def test_mutation_sweep_rejects_an_unstored_target(z2):
    # unstable at genus 0, and above the genus cap
    for target in (((((0, 0), 1),), -2), ((((4, 0), 1),), 2)):
        for sweep in (mutation_sensitivity, rebuilt_mutation_sweep):
            with pytest.raises(MissingCoefficient):
                sweep(z2, targets=[target])


def test_mutation_sweep_builds_two_residuals(s3, monkeypatch):
    # R_-1(F) and R_0(F) are built once; each target adds only its delta
    # terms, however many targets there are
    builds = []
    full = virasoro._fform_terms

    def counted(*args, **kwargs):
        builds.append(args[0].n)
        return full(*args, **kwargs)

    monkeypatch.setattr(virasoro, "_fform_terms", counted)
    out = mutation_sensitivity(s3)
    assert out["mutated"] == 161 and out["passed"]
    assert sorted(builds) == [-1, 0]


def test_mutation_sweep_on_larger_groups():
    total = 0
    for name, param in (("Z", 3), ("Q8", 0), ("D", 4), ("S", 4)):
        theory = OrbifoldTheory(named_group(name, param))
        out = mutation_sensitivity(theory)
        assert out["passed"], name
        assert out["mutated"] == len(virasoro.mutation_targets(theory))
        total += out["mutated"]
    assert total == 1864


def test_reports_serialize(z2):
    reports = virasoro_check(z2, degree=4, genus=1)
    payload = [rep.to_json_dict() for rep in reports]
    for row in payload:
        assert set(row) >= {"operator", "checked_monomials", "max_residual",
                            "watermark", "violations"}
        assert row["max_residual"] == "0/1"
