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
               for m in cubic.terms)


def test_multiply_by_zero():
    z = TruncatedSeries(CAPS)
    s = poly([(mono(T0), 0, Q(2))])
    assert s.multiply(z).support() == set()
    assert z.multiply(s).support() == set()


def test_product_of_genus_zero_terms_keeps_lambda_minus_four():
    t3 = TruncatedSeries.from_monomial(CAPS, mono(T0, T0, T0), Q(2), lam=-2)
    prod = t3.multiply(t3)
    assert prod.coefficient(mono(*([T0] * 6)), -4) == 4
    assert len(prod.terms) == 1


def test_cap_mismatch():
    s = poly([(mono(T0), 0, Q(1))])
    other_caps = poly([(mono(T0), 0, Q(1))], SeriesCaps(degree=4, genus=2))
    with pytest.raises(CapMismatch):
        s.add(other_caps)


def test_exponential_examples():
    zero = TruncatedSeries(CAPS)
    assert zero.exponential().coefficient((), 0) == 1
    assert len(zero.exponential().terms) == 1

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
        assert dist_l.terms == dist_r.terms


def test_exp_is_multiplicative():
    rng = random.Random(7)
    caps = SeriesCaps(degree=5, genus=3)
    for trial in range(6):
        s1 = random_series(rng, caps, n_terms=3)
        s2 = random_series(rng, caps, n_terms=3)
        for s in (s1, s2):
            s.terms.pop((), None)
            for m in list(s.terms):
                # keep the genus-zero degree coupling exp requires
                if sum(e for _v, e in m) < 3:
                    s.terms[m].pop(-2, None)
                    if not s.terms[m]:
                        del s.terms[m]
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
    s = random_series(rng, caps, n_terms=4)
    s.terms.pop((), None)
    for m in list(s.terms):
        if sum(e for _v, e in m) < 3:
            s.terms[m].pop(-2, None)
            if not s.terms[m]:
                del s.terms[m]
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
