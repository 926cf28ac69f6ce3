import hashlib
import json
import math
import os
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import pytest

import orbigw.correlators
from orbigw.algebra import canonical_basis, character_table
from orbigw.correlators import (CANONICAL_RESCALED, CLASS_BASIS,
                                CorrelatorKey,
                                MissingCoefficient, OrbifoldTheory,
                                UnstableKey, WorkCapExceeded,
                                genus0_closed_form, psi_correlator,
                                tensor_omega_check)
from orbigw.checks import cohft_check, cutting_loops_check
from orbigw.groups import named_group
from orbigw.series import (SeriesCaps, TruncatedSeries, mono_factorial,
                           mono_from_vars)
from orbigw.util import Q


@pytest.fixture(scope="module")
def s3():
    return OrbifoldTheory(named_group("S", 3))


@pytest.fixture(scope="module")
def z2():
    return OrbifoldTheory(named_group("Z", 2))


def classes_by_size(theory):
    cd = theory.cd
    return {cd.class_size[k]: k for k in range(cd.r)}


# -- psi intersection numbers --------------------------------------------------

def test_psi_normalization():
    assert psi_correlator(0, (0, 0, 0)) == 1


def test_psi_genus_one():
    assert psi_correlator(1, (1,)) == Q(1, 24)
    assert psi_correlator(1, (0, 2)) == Q(1, 24)
    assert psi_correlator(1, (1, 1)) == Q(1, 24)
    assert psi_correlator(1, (0, 0, 3)) == Q(1, 24)
    assert psi_correlator(1, (0, 1, 2)) == Q(1, 12)
    assert psi_correlator(1, (1, 1, 1)) == Q(1, 12)


def test_psi_higher_genus_one_point():
    assert psi_correlator(2, (4,)) == Q(1, 1152)
    assert psi_correlator(3, (7,)) == Q(1, 82944)


def test_psi_genus_two_and_three_two_point():
    assert psi_correlator(2, (0, 5)) == Q(1, 1152)
    assert psi_correlator(2, (1, 4)) == Q(1, 384)
    assert psi_correlator(2, (2, 3)) == Q(29, 5760)
    assert psi_correlator(3, (1, 7)) == Q(5, 82944)
    assert psi_correlator(3, (2, 6)) == Q(77, 414720)
    assert psi_correlator(3, (3, 5)) == Q(503, 1451520)
    assert psi_correlator(3, (4, 4)) == Q(607, 1451520)


def test_psi_genus_zero_closed_form():
    # independent oracle: (n-3)!/prod a_i!, checked for all n <= 7
    for n in range(3, 8):
        target = n - 3
        for levels in combinations_with_replacement(range(target + 1), n):
            if sum(levels) != target:
                continue
            oracle = Q(math.factorial(n - 3))
            for a in levels:
                oracle /= math.factorial(a)
            assert psi_correlator(0, levels) == oracle == \
                genus0_closed_form(levels)


def test_psi_selection_rules():
    assert psi_correlator(1, (2,)) == 0          # dimension violated
    assert psi_correlator(0, (1, 1, 1)) == 0
    with pytest.raises(UnstableKey):
        psi_correlator(0, (0, 0))
    with pytest.raises(UnstableKey):
        psi_correlator(1, ())
    with pytest.raises(ValueError):
        psi_correlator(1, (-1, 2))


def test_psi_string_equation_consistency():
    # <tau_0 X>_g = sum of lowered insertions, on keys solved by the
    # descendant recursion rather than the string path
    cases = [(1, (1, 2)), (2, (2, 3)), (1, (1, 1, 1)), (2, (1, 4))]
    for g, levels in cases:
        lhs = psi_correlator(g, (0,) + levels)
        rhs = Q(0)
        for j in range(len(levels)):
            if levels[j] == 0:
                continue
            lowered = levels[:j] + (levels[j] - 1,) + levels[j + 1:]
            rhs += psi_correlator(g, lowered)
        assert lhs == rhs


def test_psi_dilaton_equation():
    # <tau_1 X>_g = (2g - 2 + n) <X>_g
    cases = [(1, (0, 2)), (2, (4,)), (0, (0, 0, 0)), (2, (2, 3))]
    for g, levels in cases:
        lhs = psi_correlator(g, (1,) + levels)
        assert lhs == (2 * g - 2 + len(levels)) * psi_correlator(g, levels)


# -- surface counts -------------------------------------------------------------

def test_surface_count_examples(s3, z2):
    assert z2.surface_count_brute(1, ()) == 2
    assert s3.surface_count_brute(1, ()) == 3
    sizes = classes_by_size(s3)
    t, c = sizes[3], sizes[2]
    assert s3.surface_count_brute(0, (t, t, c)) == 1
    assert s3.surface_count(0, (t, t, c)) == 1
    # 2-point pairing and empty/singleton conventions
    assert s3.surface_count(0, (t, t)) == Q(1, 2)
    assert s3.surface_count(0, ()) == Q(1, 6)
    assert s3.surface_count(0, (0,)) == Q(1, 6)
    assert s3.surface_count(0, (t,)) == 0


def test_surface_count_brute_vs_recursive(s3):
    q8 = OrbifoldTheory(named_group("Q8"))
    for theory in (s3, q8):
        r = theory.r
        for genus in range(3):
            for n in range(4):
                for cls in combinations_with_replacement(range(r), n):
                    assert theory.surface_count(genus, cls) == \
                        theory.surface_count_brute(genus, cls), (genus, cls)


def test_brute_force_recursion_below_the_last_handle(s3):
    # genus 3 is the least genus whose enumeration recurses once more
    # before the last handle's leaves
    for cls in combinations_with_replacement(range(s3.r), 2):
        assert s3.surface_count_brute(3, cls) == s3.surface_count(3, cls), cls


def test_brute_force_matches_recursion_on_d6_at_genus_3():
    # 12^6 tuples, the benchmark's deepest oracle run
    theory = OrbifoldTheory(named_group("D", 6))
    for n in range(3):
        for cls in combinations_with_replacement(range(theory.r), n):
            assert theory.surface_count_brute(3, cls) \
                == theory.surface_count(3, cls), cls
    assert theory.profile()["enumerated_tuples"] == 12 ** 6


def test_enumerated_tuples_is_the_counted_total(monkeypatch):
    s4 = named_group("S", 4)
    theory = OrbifoldTheory(s4)
    theory.commutator_distribution(2)
    theory.commutator_distribution(1)
    assert theory.profile()["enumerated_tuples"] == 24 ** 4 + 24 ** 2
    # a dropped batch is an internal fault, not an input error
    chunk = orbigw.correlators._distribution_chunk

    def dropped(args):
        counts = chunk(args)
        counts[0] -= 1
        return counts

    monkeypatch.setattr(orbigw.correlators, "_distribution_chunk", dropped)
    with pytest.raises(AssertionError, match="counted 331775 of 331776"):
        OrbifoldTheory(s4).commutator_distribution(2)


def test_genus_one_empty_count_is_class_number():
    for group in (named_group("S", 4), named_group("D", 5),
                  named_group("Q8")):
        theory = OrbifoldTheory(group)
        assert theory.surface_count(1, ()) == theory.r
        assert theory.surface_count_brute(1, ()) == theory.r


def test_three_point_matches_triple_enumeration(s3):
    # independent oracle for the genus-0 3-point values: iterate all
    # element triples with product 1 and weight each by 1/|G|
    g = s3.group
    cd = s3.cd
    for c1 in range(s3.r):
        for c2 in range(s3.r):
            for c3 in range(s3.r):
                count = 0
                for x in cd.classes[c1]:
                    for y in cd.classes[c2]:
                        for z in cd.classes[c3]:
                            if g.mul(g.mul(x, y), z) == g.identity:
                                count += 1
                assert s3.surface_count(0, (c1, c2, c3)) \
                    == Q(count, g.order)


def test_empty_surface_count_closed_form():
    # Mednykh: Omega_g() = sum_alpha (|G|/d_alpha)^(2g-2), exact at genera
    # far beyond what enumeration reaches
    for name, param in (("S", 3), ("S", 4), ("Q8", 0), ("D", 5), ("S", 5)):
        theory = OrbifoldTheory(named_group(name, param))
        n = theory.group.order
        degrees = character_table(theory.group, theory.cd).degrees
        for genus in range(7):
            expected = sum(Q(n, d) ** (2 * genus - 2) for d in degrees)
            assert theory.surface_count(genus, ()) == expected, (name, genus)


def test_wrong_handle_element_is_detected(monkeypatch):
    theory = OrbifoldTheory(named_group("S", 3))
    alg, cd = theory.algebra, theory.cd
    a = alg.structure_constants()
    unweighted = tuple(sum(a[z][cd.inverse_class[z]][k] for z in range(cd.r))
                       for k in range(cd.r))
    monkeypatch.setattr(alg, "handle_element", lambda: unweighted)
    assert not cutting_loops_check(theory, genus_max=2, n_max=2)["passed"]
    assert any(theory.surface_count(genus, cls)
               != theory.surface_count_brute(genus, cls)
               for genus in (1, 2) for n in range(3)
               for cls in combinations_with_replacement(range(cd.r), n))


def test_surface_count_rejects_invalid_keys(s3):
    for genus, classes in ((-1, ()), (0, (7,)), (0, (7, 7)), (1, (-1,))):
        with pytest.raises(ValueError):
            s3.surface_count(genus, classes)


def test_surface_count_brute_rejects_invalid_keys(s3):
    for genus, classes in ((-1, ()), (0, (7,)), (0, (7, 7)), (1, (-1,))):
        with pytest.raises(ValueError):
            s3.surface_count_brute(genus, classes)


def test_work_cap(s3):
    small = OrbifoldTheory(named_group("S", 3), work_cap=10)
    with pytest.raises(WorkCapExceeded):
        small.surface_count_brute(2, (1, 1))


def test_jobs_do_not_change_counts(monkeypatch):
    # a real forked pool, which these orders reach only with the tuple
    # threshold lowered
    monkeypatch.setattr(orbigw.correlators, "POOL_MIN_TUPLES", 0)
    base = OrbifoldTheory(named_group("S", 3), jobs=1)
    forked = OrbifoldTheory(named_group("S", 3), jobs=3)
    for genus in (1, 2):
        assert base.commutator_distribution(genus) \
            == forked.commutator_distribution(genus)


def in_process_pool(monkeypatch, sizes):
    """Replace the fork context by one whose pool records its size and
    runs each chunk in-process."""
    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(orbigw.correlators, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    sizes = []
    in_process_pool(monkeypatch, sizes)
    monkeypatch.setattr(orbigw.correlators, "POOL_MIN_TUPLES", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    s4 = named_group("S", 4)
    serial = OrbifoldTheory(s4).commutator_distribution(1)
    assert OrbifoldTheory(s4, jobs=5000).commutator_distribution(1) == serial
    assert sizes == [2]


def test_no_pool_below_the_tuple_threshold(monkeypatch):
    sizes = []
    in_process_pool(monkeypatch, sizes)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    d6 = named_group("D", 6)
    # the default threshold keeps D6 at genus 3 in one process
    assert 12 ** 6 < orbigw.correlators.POOL_MIN_TUPLES
    serial = OrbifoldTheory(d6, jobs=2).commutator_distribution(3)
    assert sizes == []
    # one tuple below the threshold stays; at the threshold the pool starts
    monkeypatch.setattr(orbigw.correlators, "POOL_MIN_TUPLES", 12 ** 4 + 1)
    assert OrbifoldTheory(d6, jobs=2).commutator_distribution(2) \
        == OrbifoldTheory(d6).commutator_distribution(2)
    assert sizes == []
    monkeypatch.setattr(orbigw.correlators, "POOL_MIN_TUPLES", 12 ** 6)
    assert OrbifoldTheory(d6, jobs=2).commutator_distribution(3) == serial
    assert sizes == [2]


# -- correlators ----------------------------------------------------------------

def test_orbifold_correlator_examples(s3, z2):
    assert z2.orbifold_correlator(CorrelatorKey(1, ((1, 0),))) == Q(1, 12)
    assert s3.orbifold_correlator(CorrelatorKey(1, ((1, 0),))) == Q(1, 8)
    # selection rule
    assert s3.orbifold_correlator(CorrelatorKey(1, ((2, 0),))) == 0
    # empty correlators vanish; unstable keys are rejected
    assert s3.orbifold_correlator(CorrelatorKey(2, ())) == 0
    with pytest.raises(UnstableKey):
        s3.orbifold_correlator(CorrelatorKey(1, ()))
    with pytest.raises(UnstableKey):
        s3.orbifold_correlator(CorrelatorKey(0, ((0, 0), (0, 1))))


def test_orbifold_correlator_rejects_invalid_keys(s3):
    for genus, insertions in ((-1, ((0, 0),)), (0, ((0, 7), (0, 0), (0, 0))),
                              (1, ((1, 3),))):
        with pytest.raises(ValueError):
            s3.orbifold_correlator(CorrelatorKey(genus, insertions))


def test_flat_identity_string_consistency(s3):
    # an extra level-0 identity-class insertion obeys the string relation
    keys = [
        (1, ((1, 1), (1, 2))),
        (1, ((2, 1),)),
        (0, ((1, 0), (0, 1), (0, 1))),
        (2, ((3, 1), (2, 2))),
    ]
    for genus, insertions in keys:
        extended = CorrelatorKey(genus, ((0, 0),) + insertions)
        total = Q(0)
        for j, (a, m) in enumerate(insertions):
            if a == 0:
                continue
            lowered = insertions[:j] + ((a - 1, m),) + insertions[j + 1:]
            total += s3.orbifold_correlator(CorrelatorKey(genus, lowered))
        assert s3.orbifold_correlator(extended) == total


def test_canonical_correlator(s3):
    ct = character_table(s3.group, s3.cd)
    cb = canonical_basis(ct, s3.algebra)
    nus = cb.nus
    alpha2 = nus.index(Q(1, 9))  # the degree-2 representation
    val = s3.canonical_correlator(0, nus, ((0, alpha2),) * 3)
    assert val == Q(1, 9)
    # mixed indices vanish
    other = (alpha2 + 1) % s3.r
    assert s3.canonical_correlator(
        0, nus, ((0, alpha2), (0, alpha2), (0, other))) == 0
    # trivial group: plain intersection numbers
    triv = OrbifoldTheory(named_group("Z", 1))
    assert triv.canonical_correlator(1, (Q(1),), ((1, 0),)) == Q(1, 24)


def test_canonical_correlator_matches_multilinear_expansion():
    # float cross-check of nu^{1-g} <tau> for equal indices, and of 0 for
    # mixed ones, against expanding every idempotent in the class basis
    # over all class tuples, g <= 2
    for name, param in (("S", 3), ("Q8", 0)):
        theory = OrbifoldTheory(named_group(name, param))
        ct = character_table(theory.group, theory.cd)
        cb = canonical_basis(ct, theory.algebra)
        f = cb.vectors    # f[alpha][m]
        r = theory.r
        keys = [(0, (0, 0, 0)), (0, (1, 0, 0, 0)), (1, (1,)), (1, (2, 0)),
                (2, (4,)), (2, (3, 2))]
        for genus, levels in keys:
            expansion = {
                cls: complex(theory.orbifold_correlator(
                    CorrelatorKey(genus, tuple(zip(levels, cls)))))
                for cls in product(range(r), repeat=len(levels))}
            for _ in levels:    # class slot m -> idempotent slot alpha
                expansion = {
                    rest + (alpha,): sum(expansion[(m,) + rest] * f[alpha][m]
                                         for m in range(r))
                    for rest in product(range(r), repeat=len(levels) - 1)
                    for alpha in range(r)}
            for alphas in product(range(r), repeat=len(levels)):
                expected = complex(theory.canonical_correlator(
                    genus, cb.nus, tuple(zip(levels, alphas))))
                assert abs(expansion[alphas] - expected) < 1e-9, \
                    (name, genus, levels, alphas)


# -- potential -------------------------------------------------------------------

def test_potential_trivial_group():
    triv = OrbifoldTheory(named_group("Z", 1))
    phi = triv.potential(SeriesCaps(degree=3, genus=0))
    assert len(phi.support()) == 1
    assert phi.coefficient((((0, 0), 3),), -2) == Q(1, 6)
    empty = triv.potential(SeriesCaps(degree=2, genus=0))
    assert empty.support() == set()


def test_potential_z2_genus_one_term(z2):
    phi = z2.potential(SeriesCaps(degree=3, genus=1))
    assert phi.coefficient((((1, 0), 1),), 0) == Q(1, 12)


def test_potential_symmetry_factor(z2):
    # coefficient of (t_0^1)^2 t_1^1 at genus 0 is <tau_0 tau_0 tau_1> * Omega / 2!
    phi = z2.potential(SeriesCaps(degree=4, genus=1))
    omega = z2.surface_count(0, (1, 1, 0))
    mono = (((0, 1), 2), ((1, 0), 1))
    want = psi_correlator(0, (0, 0, 1)) * omega / 2
    assert phi.coefficient(mono, -2) == want


def test_potential_calls_return_independent_series(z2):
    # each call builds its own series: changing one in place leaves the
    # next call's untouched
    caps = SeriesCaps(degree=4, genus=1)
    for basis in (CLASS_BASIS, CANONICAL_RESCALED):
        first = z2.potential(caps, basis=basis)
        want = first.to_json_list()
        for mono, lam, c in list(first.iter_terms()):
            first.add_term(mono, lam, c)
        assert first.to_json_list() != want
        assert z2.potential(caps, basis=basis).to_json_list() == want


def test_potential_canonical_is_disjoint_point_copies(z2):
    caps = SeriesCaps(degree=4, genus=1)
    phi = z2.potential(caps, basis=CANONICAL_RESCALED)
    triv = OrbifoldTheory(named_group("Z", 1))
    point = triv.potential(caps, basis=CANONICAL_RESCALED)
    for mono, lam, c in point.iter_terms():
        for alpha in range(2):
            relabeled = tuple(sorted((((a, alpha), e))
                                     for (a, _m), e in mono))
            assert phi.coefficient(relabeled, lam) == c
    # no mixed-index monomials at all
    for mono, _lam, _c in phi.iter_terms():
        assert len({m for (_a, m), _e in mono}) == 1


def brute_class_keys(theory, caps, fixed_levels):
    """Every multiset of (level, class) variables with degree <= D, genus
    <= G, stable and meeting sum levels = 3g - 3 + k + n: one entry per key,
    levels bounded by the largest total the constraint allows."""
    k, fixed = len(fixed_levels), sum(fixed_levels)
    top = 3 * caps.genus - 3 + k + caps.degree - fixed
    variables = [(a, c) for a in range(max(top, 0) + 1)
                 for c in range(theory.r)]
    keys = []
    for genus in range(caps.genus + 1):
        for n in range(caps.degree + 1):
            if 2 * genus - 2 + k + n <= 0:
                continue
            for combo in combinations_with_replacement(variables, n):
                if sum(a for a, _c in combo) + fixed == 3 * genus - 3 + k + n:
                    keys.append((genus, combo))
    return keys


@pytest.mark.parametrize("name,param,degree,genus", [
    ("Z", 1, 6, 2), ("Z", 2, 5, 2), ("S", 3, 4, 1), ("Z", 3, 4, 1)])
@pytest.mark.parametrize("fixed_levels", [(), (1,), (0, 0)],
                         ids=["free", "level-1", "handle"])
def test_class_keys_match_brute_force(name, param, degree, genus,
                                      fixed_levels):
    theory = OrbifoldTheory(named_group(name, param))
    caps = SeriesCaps(degree=degree, genus=genus)
    walked = list(theory.class_keys(caps, fixed_levels))
    keys = [(g, variables) for g, variables, *_rest in walked]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(brute_class_keys(theory, caps,
                                                   fixed_levels))
    for g, variables, psi, mono, factorial in walked:
        assert list(variables) == sorted(variables)
        assert psi == psi_correlator(
            g, fixed_levels + tuple(a for a, _c in variables))
        assert mono == mono_from_vars(variables)
        assert factorial == mono_factorial(mono)


@pytest.mark.parametrize("name,param,degree,genus,count", [
    ("S", 3, 6, 2, 10349), ("S", 3, 4, 1, 302), ("Z", 3, 4, 1, 302)])
def test_class_key_counts(name, param, degree, genus, count):
    # the checked_monomials of factorization_check at these caps
    theory = OrbifoldTheory(named_group(name, param))
    caps = SeriesCaps(degree=degree, genus=genus)
    assert sum(1 for _key in theory.class_keys(caps)) == count


def test_bracket_family_shape(s3):
    # one bracket per class multiset on the fixed levels, prod C(r+k-1, k)
    # over the blocks of k equal levels, and each bracket's coefficient at
    # t^M lambda^{2g-2} is its own correlator over M!
    caps = SeriesCaps(degree=2, genus=1)
    family = s3.bracket_family((1, 0, 1, 0, 1), caps)
    assert len(family) == math.comb(3 + 1, 2) * math.comb(3 + 2, 3) == 60
    for fixed, bracket in family.items():
        assert list(fixed) == sorted(fixed)
        assert tuple(a for a, _c in fixed) == (0, 0, 1, 1, 1)
        want = TruncatedSeries(caps)
        for genus, variables, _psi, mono, _f in s3.class_keys(
                caps, (0, 0, 1, 1, 1)):
            key = CorrelatorKey(genus, fixed + variables)
            want.add_term(mono, 2 * genus - 2, s3.orbifold_correlator(key)
                          / mono_factorial(mono))
        assert bracket == want
    assert any(family.values())


def test_bracket_family_with_a_handle_at_levels_0_1(s3):
    # a handle glued at levels (0, 1) is the pair sum over the inverse
    # metric: each coefficient at t^M lambda^{2g-2} is sum_m z_m
    # <tau_0(e_m) tau_1(e_m') tau(v) tau(M)>_g / M!
    caps = SeriesCaps(degree=3, genus=1)
    pairs = s3.algebra.pairs()
    family = s3.bracket_family((1,), caps, ((0, 1),))
    assert sorted(family) == [((1, c),) for c in range(3)]
    for fixed, bracket in family.items():
        want = TruncatedSeries(caps)
        for genus, variables, _psi, mono, _f in s3.class_keys(
                caps, (0, 1, 1)):
            value = sum(z * s3.orbifold_correlator(CorrelatorKey(
                genus, ((0, m), (1, m2)) + fixed + variables))
                for m, m2, z in pairs)
            want.add_term(mono, 2 * genus - 2, value / mono_factorial(mono))
        assert bracket == want
        assert len(bracket.support()) > 5
    # the two levels of the pair are not interchangeable with (0, 0)
    assert s3.bracket_family((1,), caps, ((0, 0),)) != family


def test_bracket_family_with_the_unit_glued(s3):
    # the unit glued at level a adds psi's level and no genus: each
    # coefficient at t^M lambda^{2g-2} is <tau_a(e_0) tau(M)>_g / M!, as
    # in the class-0 member of the level-a family
    caps = SeriesCaps(degree=3, genus=2)
    for a in range(4):
        family = s3.bracket_family((), caps, ((a,),))
        assert list(family) == [()]
        want = TruncatedSeries(caps)
        for genus, variables, _psi, mono, _f in s3.class_keys(caps, (a,)):
            key = CorrelatorKey(genus, ((a, 0),) + variables)
            want.add_term(mono, 2 * genus - 2, s3.orbifold_correlator(key)
                          / mono_factorial(mono))
        assert family[()] == want == s3.bracket_family((a,), caps)[((a, 0),)]
        assert len(want.support()) > 5
    # a unit and a handle: one genus, from the pair alone
    caps = SeriesCaps(degree=2, genus=1)
    pairs = s3.algebra.pairs()
    want = TruncatedSeries(caps)
    for genus, variables, _psi, mono, _f in s3.class_keys(caps, (0, 1, 2)):
        value = sum(z * s3.orbifold_correlator(CorrelatorKey(
            genus, ((2, 0), (0, m), (1, m2)) + variables))
            for m, m2, z in pairs)
        want.add_term(mono, 2 * genus - 2, value / mono_factorial(mono))
    assert s3.bracket_family((), caps, ((2,), (0, 1)))[()] == want
    assert want.support()


def test_potential_is_the_empty_family(s3):
    # the potential is the one bracket on no fixed levels, a term per
    # class key with the key's correlator over M!
    caps = SeriesCaps(degree=4, genus=2)
    family = s3.bracket_family((), caps)
    phi = s3.potential(caps)
    assert list(family) == [()] and family[()] == phi
    want = TruncatedSeries(caps)
    for genus, variables, _psi, mono, _f in s3.class_keys(caps):
        want.add_term(mono, 2 * genus - 2, s3.orbifold_correlator(
            CorrelatorKey(genus, variables)) / mono_factorial(mono))
    assert phi == want and len(phi.support()) > 100


def test_stored_coefficient_example(z2):
    caps = SeriesCaps(degree=3, genus=1)
    mono = (((1, 0), 1),)
    assert z2.stored_coefficient((mono, 0), caps) == Q(1, 12)
    with pytest.raises(KeyError):
        z2.stored_coefficient(((((5, 0), 1),), 0), caps)


def test_check_stored_matches_the_potential(z2, s3):
    # stored_coefficient is the potential's coefficient at every stored
    # position; over every target of degree <= 4 (one above the cap) with
    # levels <= 4, classes up to one out of range and lambda in -4..5 it
    # raises MissingCoefficient exactly where the potential stores nothing
    caps = SeriesCaps(degree=3, genus=2)
    malformed = [(((0, 0), 1), ((0, 0), 2)), (((0, 0), 0), ((0, 1), 3)),
                 (((-1, 0), 1), ((0, 0), 3)), (((0, 0), -1),)]
    for theory in (z2, s3):
        phi = theory.potential(caps)
        for mono, lam, c in phi.iter_terms():
            assert theory.stored_coefficient((mono, lam), caps) == c
        stored = phi.support()
        variables = [(a, m) for a in range(5) for m in range(theory.r + 1)]
        monos = [mono_from_vars(combo) for n in range(5)
                 for combo in combinations_with_replacement(variables, n)]
        missing = 0
        for mono in monos + malformed:
            for lam in range(-4, 6):
                if (mono, lam) in stored:
                    continue
                with pytest.raises(MissingCoefficient) as got:
                    theory.stored_coefficient((mono, lam), caps)
                assert str(got.value) == (f"no stored coefficient at "
                                          f"{tuple(sorted(mono))} lambda^{lam}")
                missing += 1
        assert missing < 10 * (len(monos) + len(malformed))


# -- tensor products and axioms ---------------------------------------------------

def test_tensor_check_z2_z3():
    report = tensor_omega_check(named_group("Z", 2), named_group("Z", 3),
                                genus_max=2, n_max=2)
    assert report["passed"]
    assert report["checked"] > 0


def test_tensor_check_reports_a_perturbed_product_count(monkeypatch):
    g1, g2 = named_group("Z", 2), named_group("Z", 3)
    real = OrbifoldTheory.surface_count

    def perturbed(self, genus, classes):
        value = real(self, genus, classes)
        if self.group.order == 6 and genus == 1 and len(classes) == 1:
            return value + 1
        return value

    monkeypatch.setattr(OrbifoldTheory, "surface_count", perturbed)
    report = tensor_omega_check(g1, g2, genus_max=2, n_max=2)
    assert not report["passed"]
    assert len(report["mismatches"]) == 6      # one per class of Z2 x Z3
    assert {m["genus"] for m in report["mismatches"]} == {1}
    assert all(len(m["pairs"]) == 1 and m["product"] != m["factors"]
               for m in report["mismatches"])
    # both sides print as "p/q", integers included
    assert [(m["product"], m["factors"]) for m in report["mismatches"]] == \
        [("7/1", "6/1")] + [("1/1", "0/1")] * 5


def test_tensor_with_trivial_factor(s3):
    report = tensor_omega_check(named_group("Z", 1), named_group("S", 3),
                                genus_max=2, n_max=2)
    assert report["passed"]


def test_memoized_counts_equal_fresh_recomputation(s3):
    fresh = OrbifoldTheory(named_group("S", 3))
    for genus in range(3):
        for cls in ((), (1,), (1, 2), (2, 2, 1)):
            repeat = s3.surface_count(genus, cls)
            assert repeat == s3.surface_count(genus, cls)
            assert repeat == fresh.surface_count(genus, cls)


def test_abelian_product_counts():
    # abelian groups: commutators trivial, so the genus-g closed count is
    # |G|^{2g-1} for the empty insertion list
    z6 = OrbifoldTheory(named_group("Z", 6))
    assert z6.surface_count(1, ()) == 6
    assert z6.surface_count(2, ()) == 6 ** 3
    prod = tensor_omega_check(named_group("Z", 2), named_group("Z", 3),
                              genus_max=1, n_max=0)
    assert prod["passed"]


def test_cohft_axioms_on_s3(s3):
    report = cohft_check(s3, genus_max=2, n_max=3, seed=11)
    assert report["passed"], report


# sha256 of json.dumps(cohft_check(..., genus_max=2, n_max=4), sort_keys=True):
# the counts, the mismatch lists in order and every lhs/rhs string, both as
# computed and with Omega_1(e_0) off by one
COHFT_DIGESTS = {
    ("S", 3, False):
        "55279e3a4bc5c643f74563f7a1bd6b6f59f5c6b80e9aa6da317ded24593d9a5b",
    ("S", 3, True):
        "3ff21974e2e0b5536e074fa7e9d0bf3835aa1fdc67e9d2cf64b673844aef4396",
    ("Q8", 0, False):
        "12dd63141e7e3cbfa818b7f25e1af8feb86ebbdaad254975fbe6a1929f5ec79f",
    ("Q8", 0, True):
        "100f921b0f7c9e9ea517a4d9cae7adc07094b987497ffe3b0d0aa45147e3a3cd",
}


@pytest.mark.parametrize("name, param, broken", COHFT_DIGESTS,
                         ids=["S3", "S3-broken", "Q8", "Q8-broken"])
def test_cohft_report_bytes_pinned(name, param, broken, monkeypatch):
    theory = OrbifoldTheory(named_group(name, param))
    real = theory.surface_count

    def off_by_one(genus, classes):
        value = real(genus, classes)
        return value + 1 if (genus, tuple(classes)) == (1, (0,)) else value

    if broken:
        monkeypatch.setattr(theory, "surface_count", off_by_one)
    report = cohft_check(theory, genus_max=2, n_max=4)
    assert report["passed"] is not broken
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        COHFT_DIGESTS[name, param, broken]
