import math
import random

import pytest

from orbigw.series import (CapMismatch, PreconditionViolated, SeriesCaps,
                           TruncatedSeries, mono_from_vars)
from orbigw.util import Q

CAPS = SeriesCaps(degree=6, genus=2)

T0 = (0, 0)   # the single variable used in one-slot tests


def mono(*vars_):
    return mono_from_vars(vars_)


def poly(pairs, caps=CAPS, **kw):
    """pairs: [(mono, lam, coeff)]"""
    s = TruncatedSeries(caps, **kw)
    for m, lam, c in pairs:
        s.add_term(m, lam, c)
    return s


def test_truncated_product():
    caps = SeriesCaps(degree=2, genus=1)
    one_plus_t = poly([((), 0, Q(1)), (mono(T0), 0, Q(1))], caps)
    one_minus_t = poly([((), 0, Q(1)), (mono(T0), 0, Q(-1))], caps)
    prod = one_plus_t.multiply(one_minus_t)
    assert prod.coefficient((), 0) == 1
    assert prod.coefficient(mono(T0), 0) == 0
    assert prod.coefficient(mono(T0, T0), 0) == -1
    # degree-3 monomials dropped by the cap
    cubic = one_plus_t.multiply(prod)
    assert all(len(m) == 0 or sum(e for _v, e in m) <= 2
               for m, _lam in cubic.support())


def test_multiply_by_zero():
    z = TruncatedSeries(CAPS)
    s = poly([(mono(T0), 0, Q(2))])
    assert s.multiply(z).support() == set()
    assert z.multiply(s).support() == set()


def test_product_of_genus_zero_terms_keeps_lambda_minus_four():
    t3 = TruncatedSeries.from_monomial(CAPS, mono(T0, T0, T0), Q(2), lam=-2)
    prod = t3.multiply(t3)
    assert prod.coefficient(mono(*([T0] * 6)), -4) == 4
    assert len(prod.support()) == 1


def test_cap_mismatch():
    s = poly([(mono(T0), 0, Q(1))])
    other_caps = poly([(mono(T0), 0, Q(1))], SeriesCaps(degree=4, genus=2))
    with pytest.raises(CapMismatch):
        s.add(other_caps)


def test_exponential_examples():
    zero = TruncatedSeries(CAPS)
    assert zero.exponential().coefficient((), 0) == 1
    assert len(zero.exponential().support()) == 1

    caps3 = SeriesCaps(degree=3, genus=1)
    ct = poly([(mono(T0), 0, Q(3))], caps3)
    e = ct.exponential()
    assert e.coefficient(mono(T0), 0) == 3
    assert e.coefficient(mono(T0, T0), 0) == Q(9, 2)
    assert e.coefficient(mono(T0, T0, T0), 0) == Q(27, 6)

    cubic = TruncatedSeries.from_monomial(CAPS, mono(T0, T0, T0), Q(1, 6),
                                          lam=-2)
    z = cubic.exponential()
    assert z.coefficient(mono(T0, T0, T0), -2) == Q(1, 6)
    assert z.coefficient(mono(*([T0] * 6)), -4) == Q(1, 72)


def test_exponential_preconditions():
    with pytest.raises(PreconditionViolated):
        poly([((), 0, Q(1))]).exponential()
    with pytest.raises(PreconditionViolated):
        TruncatedSeries.from_monomial(CAPS, mono(T0), Q(1), lam=-2) \
            .exponential()


def test_partial_derivatives():
    s = poly([(mono(T0, T0), 0, Q(1))])
    d = s.partial_derivative(T0)
    assert d.coefficient(mono(T0), 0) == 2

    y = (1, 1)
    s = poly([(mono(y, y, y), 0, Q(1))])
    assert s.partial_derivative((0, 0)).support() == set()

    quartic = poly([(mono(T0, T0, T0, T0), 0, Q(1, 24))])
    dd = quartic.second_partial(T0, T0)
    assert dd.coefficient(mono(T0, T0), 0) == Q(1, 2)


def test_coefficient_queries():
    s = poly([((), 0, Q(1)), (mono(T0), 0, Q(3))])
    assert s.coefficient(mono(T0), 0) == 3
    assert s.coefficient(mono(T0, T0), 0) == 0
    assert s.coefficient(mono(T0), 2) == 0
    # odd exponents of the genus parameter never occur
    assert s.coefficient(mono(T0), 1) == 0
    assert all(lam % 2 == 0 for _m, lam, _c in s.iter_terms())


def random_series(rng, caps, n_terms=6, system=None):
    s = TruncatedSeries(caps, system=system)
    for _ in range(n_terms):
        deg = rng.randint(0, 3)
        vars_ = [(rng.randint(0, 4), 0) for _ in range(deg)]
        lam = rng.choice([-2, 0, 2])
        s.add_term(mono_from_vars(vars_), lam, Q(rng.randint(-5, 5), rng.randint(1, 4)))
    return s


def exp_ready(s):
    """Remove the constant term and the lambda^-2 terms of degree < 3, to
    keep the genus-zero degree coupling exp requires; returns s."""
    for m, lam in s.support():
        if not m or (lam == -2 and sum(e for _v, e in m) < 3):
            s.add_term(m, lam, -s.coefficient(m, lam))
    return s


def test_ring_laws_randomized():
    rng = random.Random(42)
    caps = SeriesCaps(degree=5, genus=3)
    for _ in range(10):
        a, b, c = (random_series(rng, caps) for _ in range(3))
        left = a.multiply(b).multiply(c)
        right = a.multiply(b.multiply(c))
        for mono_, lam, _ in left.iter_terms():
            if sum(e for _v, e in mono_) <= caps.degree:
                assert left.coefficient(mono_, lam) \
                    == right.coefficient(mono_, lam)
        dist_l = a.multiply(b.add(c))
        dist_r = a.multiply(b).add(a.multiply(c))
        assert dist_l == dist_r


def test_exp_is_multiplicative():
    rng = random.Random(7)
    caps = SeriesCaps(degree=5, genus=3)
    for trial in range(6):
        s1 = random_series(rng, caps, n_terms=3)
        s2 = random_series(rng, caps, n_terms=3)
        for s in (s1, s2):
            exp_ready(s)
        e12 = s1.add(s2).exponential()
        e1e2 = s1.exponential().multiply(s2.exponential())
        keys = e12.support() | e1e2.support()
        for mono_, lam in keys:
            if sum(e for _v, e in mono_) <= caps.degree:
                assert e12.coefficient(mono_, lam) \
                    == e1e2.coefficient(mono_, lam), (trial, mono_, lam)


def test_derivative_of_exponential():
    rng = random.Random(19)
    caps = SeriesCaps(degree=5, genus=3)
    s = exp_ready(random_series(rng, caps, n_terms=4))
    e = s.exponential()
    lhs = e.partial_derivative((1, 0))
    rhs = s.partial_derivative((1, 0)).multiply(e)
    # the derivative of a degree-capped series is exact one degree lower
    for mono_, lam in lhs.support() | rhs.support():
        if sum(e2 for _v, e2 in mono_) <= caps.degree - 1:
            assert lhs.coefficient(mono_, lam) == rhs.coefficient(mono_, lam)


def test_serialization_deterministic():
    s = poly([(mono(T0), 0, Q(1, 3)), (mono((1, 0)), -2, Q(2))])
    assert s.to_json_list() == s.copy().to_json_list()
    row = s.to_json_list()[0]
    assert set(row) == {"monomial", "lambda", "coeff"}


# -- integer kernel against a dict-of-Fraction reference ------------------------

DENOMS = (1, 7, 11, 9, 13, 5, 17, 4)     # pairwise coprime


def oracle_series(rng, caps, n_terms=8):
    """A random series with coefficients over coprime denominators, and
    its reference values {(monomial, lambda): Fraction}."""
    s, ref = TruncatedSeries(caps), {}
    for _ in range(n_terms):
        deg = rng.randint(0, 3)
        m = mono_from_vars((rng.randint(0, 2), rng.randint(0, 1))
                           for _ in range(deg))
        lam = rng.choice((-2, 0, 2))
        if lam < 0 and deg < 3:
            lam = 0
        c = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMS))
        s.add_term(m, lam, c)
        ref[m, lam] = ref.get((m, lam), 0) + c
    return s, {k: v for k, v in ref.items() if v}


def values(series):
    """{(monomial, lambda): Fraction}, checking support() on the way."""
    got = {(m, lam): c for m, lam, c in series.iter_terms()}
    assert series.support() == set(got)
    assert all(got.values())
    return got


def ref_add(out, mono_, lam, c):
    c += out.pop((mono_, lam), 0)
    if c:
        out[mono_, lam] = c


def ref_multiply(a, b, caps, max_degree):
    out = {}
    for (m1, l1), c1 in a.items():
        for (m2, l2), c2 in b.items():
            m = mono_from_vars([v for v, e in m1 + m2 for _ in range(e)])
            if sum(e for _v, e in m) <= max_degree and l1 + l2 \
                    <= caps.lam_ceiling:
                ref_add(out, m, l1 + l2, c1 * c2)
    return out


def test_kernel_matches_fraction_reference():
    rng = random.Random(2024)
    caps = SeriesCaps(degree=5, genus=2)
    for _trial in range(8):
        (a, ra), (b, rb) = (oracle_series(rng, caps) for _ in range(2))
        assert values(a) == ra

        value, shift = Q(rng.randint(-9, 9) or 3, rng.choice(DENOMS[1:])), 2
        want = dict(ra)
        for (m, lam), c in rb.items():
            if lam + shift <= caps.lam_ceiling:
                ref_add(want, m, lam + shift, c * value)
        assert values(a.copy().iadd(b, value, lam_shift=shift)) == want
        assert values(a.scale(Q(3, 7))) == {k: c * Q(3, 7)
                                           for k, c in ra.items()}
        assert values(a.scale(0)) == {}

        for max_degree in (None, 3):
            want = ref_multiply(ra, rb, caps, caps.degree if max_degree is None
                                else max_degree)
            assert values(a.multiply(b, max_degree=max_degree)) == want

        var = (rng.randint(0, 2), rng.randint(0, 1))
        want = {}
        for (m, lam), c in ra.items():
            e = dict(m).get(var, 0)
            if e:
                reduced = tuple((v, k - (v == var)) for v, k in m
                                if (v, k) != (var, 1))
                ref_add(want, reduced, lam, c * e)
        assert values(a.partial_derivative(var)) == want

        moves = {(0, 0): [((1, 1), Q(3, 7)), ((0, 0), Q(-5, 11))],
                 (1, 0): [((0, 1), 2)], (2, 1): [((2, 1), Q(1, 9))]}
        want = {}
        for (m, lam), c in ra.items():
            if sum(e for _v, e in m) > 4:
                continue
            for var, e in m:
                for new_var, w in moves.get(var, ()):
                    acc = dict(m)
                    acc[var] -= 1
                    acc[new_var] = acc.get(new_var, 0) + 1
                    ref_add(want, tuple(sorted(p for p in acc.items() if p[1])),
                            lam, c * e * w)
        got = a.vector_field(lambda var: moves.get(var, []), max_degree=4)
        assert values(got) == want


def test_kernel_exponential_matches_powers():
    # exp(S) = sum_k S^k / k!, each power taken with the reference product;
    # genus 2 padded to 2 + (5 - 1)//3 = 3, compared at lambda <= 2
    rng = random.Random(77)
    caps = SeriesCaps(degree=5, genus=3)
    trimmed_any = False
    for _trial in range(6):
        s, ref = oracle_series(rng, caps, n_terms=10)
        exp_ready(s)
        ref = {(m, lam): c for (m, lam), c in ref.items()
               if m and not (lam == -2 and sum(e for _v, e in m) < 3)}
        cubic = mono_from_vars((rng.randint(0, 2), 0) for _ in range(3))
        s.add_term(cubic, -2, Q(5, 13))
        ref_add(ref, cubic, -2, Q(5, 13))
        want, power = {((), 0): Q(1)}, {((), 0): Q(1)}
        for k in range(1, caps.degree + 1):
            power = ref_multiply(power, ref, caps, caps.degree)
            for (m, lam), c in power.items():
                ref_add(want, m, lam, c / math.factorial(k))
        low = {k: c for k, c in want.items() if k[1] <= 2}
        full = values(s.exponential())
        assert {k: c for k, c in full.items() if k[1] <= 2} == low
        trimmed = values(s.exponential(genus=2))
        assert {k: c for k, c in trimmed.items() if k[1] <= 2} == low
        assert set(trimmed) <= set(full)
        trimmed_any |= set(trimmed) != set(full)
    assert trimmed_any


def test_kernel_cancels_and_widens():
    caps = SeriesCaps(degree=3, genus=2)
    s = TruncatedSeries(caps)
    total = Q(0)
    for k, den in enumerate((7, 11, 9, 13, 7, 5)):     # widens five times
        c = Q(2 * k + 1, den)
        s.add_term(mono(T0), 0, c)
        s.add_term(mono(T0, T0), 2, Q(1, den * 3))
        total += c
        assert s.coefficient(mono(T0), 0) == total
    assert s.coefficient(mono(T0, T0), 2) == sum(
        Q(1, den * 3) for den in (7, 11, 9, 13, 7, 5))
    # cancellation to zero removes the position, then the monomial
    s.add_term(mono(T0), 0, -total)
    assert s.support() == {(mono(T0, T0), 2)}
    s.iadd(s.copy(), Q(-1))
    assert s.support() == set() and s == TruncatedSeries(caps)
    # an iadd that cancels one position of a series over another denominator
    a = poly([(mono(T0), 0, Q(1, 7)), (mono((1, 0)), 0, Q(2, 11))], caps)
    b = poly([(mono(T0), -2, Q(1, 9))], caps)
    a.iadd(b, Q(-9, 7), lam_shift=2)
    assert values(a) == {(mono((1, 0)), 0): Q(2, 11)}
    with pytest.raises(TypeError):
        a.add_term(mono(T0), 0, 0.5)
    with pytest.raises(TypeError):
        a.iadd(b, 0.5)
