import pytest

from orbigw.algebra import (ClassAlgebra, DimensionMismatch,
                            canonical_basis, character_table,
                            to_canonical_coordinates)
from orbigw.correlators import CorrelatorKey, OrbifoldTheory
from orbigw.groups import direct_product, named_group
from orbigw.util import Q
from orbigw.virasoro import class_table


def algebra_of(name, param=0):
    return ClassAlgebra(named_group(name, param))


def by_size(alg):
    cd = alg.cd
    return {cd.class_size[k]: k for k in range(cd.r)}


def test_metric_s3():
    alg = algebra_of("S", 3)
    transp = by_size(alg)[3]
    eta = alg.metric()
    assert eta[transp][transp] == Q(1, 2)
    assert eta[0][0] == Q(1, 6)


def test_metric_z3_inverse_pairing():
    alg = algebra_of("Z", 3)
    eta = alg.metric()
    # nontrivial classes pair with their inverses only
    assert eta[1][2] == Q(1, 3)
    assert eta[1][1] == 0
    assert eta[2][1] == Q(1, 3)


def inverse_metric(alg):
    """The matrix of the class table's inverse-metric pairs (m, m', z)."""
    inv = [[0] * alg.r for _ in range(alg.r)]
    for m, m2, z in class_table(alg).pairs:
        inv[m][m2] = z
    return inv


def test_inverse_metric():
    for alg in (algebra_of("S", 3), algebra_of("Q8"), algebra_of("Z", 1)):
        eta, inv = alg.metric(), inverse_metric(alg)
        r = alg.r
        for i in range(r):
            for j in range(r):
                s = sum(eta[i][k] * inv[k][j] for k in range(r))
                assert s == (1 if i == j else 0)
    assert inverse_metric(algebra_of("Z", 1))[0][0] == 1
    s3 = algebra_of("S", 3)
    transp = by_size(s3)[3]
    assert inverse_metric(s3)[transp][transp] == 2


def test_structure_constants_s3():
    alg = algebra_of("S", 3)
    sizes = by_size(alg)
    t, c = sizes[3], sizes[2]
    assert alg.class_mult_coefficient(t, t, 0) == 3
    assert alg.class_mult_coefficient(t, t, c) == 3
    for j in range(3):
        for k in range(3):
            assert alg.class_mult_coefficient(0, j, k) == (1 if j == k else 0)


def test_quantum_product_examples():
    alg = algebra_of("S", 3)
    sizes = by_size(alg)
    t, c = sizes[3], sizes[2]
    prod = alg.quantum_product(alg.basis_vector(t), alg.basis_vector(t))
    expected = [Q(0)] * 3
    expected[0], expected[c] = Q(3), Q(3)
    assert list(prod) == expected

    v = (Q(2), Q(-1), Q(5))
    assert alg.quantum_product(alg.unit(), v) == v

    z2 = algebra_of("Z", 2)
    assert z2.quantum_product(z2.basis_vector(1), z2.basis_vector(1)) \
        == z2.unit()

    with pytest.raises(DimensionMismatch):
        alg.quantum_product((Q(1),), alg.unit())


GROUPS = [named_group("Z", n) for n in (1, 2, 3, 4, 6)] + [
    named_group("S", 3), named_group("S", 4), named_group("D", 4),
    named_group("Q8"),
]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.order}")
def test_frobenius_axioms_exact(group):
    alg = ClassAlgebra(group)
    r = alg.r
    basis = [alg.basis_vector(k) for k in range(r)]
    for i in range(r):
        for j in range(r):
            assert alg.quantum_product(basis[i], basis[j]) \
                == alg.quantum_product(basis[j], basis[i])
            for k in range(r):
                left = alg.quantum_product(
                    alg.quantum_product(basis[i], basis[j]), basis[k])
                right = alg.quantum_product(
                    basis[i], alg.quantum_product(basis[j], basis[k]))
                assert left == right
                assert alg.eta(alg.quantum_product(basis[i], basis[j]),
                               basis[k]) \
                    == alg.eta(basis[i],
                               alg.quantum_product(basis[j], basis[k]))


def test_metric_is_three_point_correlator():
    for group in (named_group("S", 3), named_group("Q8")):
        theory = OrbifoldTheory(group)
        eta = theory.algebra.metric()
        for j in range(theory.r):
            for k in range(theory.r):
                key = CorrelatorKey(0, ((0, j), (0, k), (0, 0)))
                assert theory.orbifold_correlator(key) == eta[j][k]


def test_structure_constants_from_correlators():
    theory = OrbifoldTheory(named_group("S", 3))
    alg = theory.algebra
    inv_eta = inverse_metric(alg)
    r = theory.r
    for j in range(r):
        for k in range(r):
            recovered = [Q(0)] * r
            for l in range(r):
                cor = theory.orbifold_correlator(
                    CorrelatorKey(0, ((0, j), (0, k), (0, l))))
                for m in range(r):
                    recovered[m] += cor * inv_eta[l][m]
            assert tuple(recovered) == alg.quantum_product(
                alg.basis_vector(j), alg.basis_vector(k))


def test_character_table_trivial():
    group = named_group("Z", 1)
    ct = character_table(group)
    assert ct.degrees == (1,)
    assert abs(ct.values[0][0] - 1) < 1e-12


def test_character_table_s3():
    group = named_group("S", 3)
    ct = character_table(group)
    assert sorted(ct.degrees) == [1, 1, 2]
    assert ct.degrees[0] == 1  # trivial character first
    assert all(abs(v - 1) < 1e-9 for v in ct.values[0])


def test_character_table_z4():
    group = named_group("Z", 4)
    ct = character_table(group)
    assert ct.degrees == (1, 1, 1, 1)
    # all values are 4th roots of unity
    for row in ct.values:
        for v in row:
            assert min(abs(v - 1j ** k) for k in range(4)) < 1e-9


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order{g.order}")
def test_degree_squares_sum(group):
    ct = character_table(group)
    assert sum(d * d for d in ct.degrees) == group.order
    assert all(d >= 1 for d in ct.degrees)


def test_canonical_basis_trivial():
    group = named_group("Z", 1)
    alg = ClassAlgebra(group)
    cb = canonical_basis(character_table(group), alg)
    assert cb.nus == (Q(1),)
    assert abs(cb.vectors[0][0] - 1) < 1e-12


def test_canonical_basis_s3_nus():
    group = named_group("S", 3)
    alg = ClassAlgebra(group)
    cb = canonical_basis(character_table(group), alg)
    assert sorted(cb.nus) == [Q(1, 36), Q(1, 36), Q(1, 9)]


def test_canonical_basis_z2():
    group = named_group("Z", 2)
    alg = ClassAlgebra(group)
    cb = canonical_basis(character_table(group), alg)
    assert cb.nus == (Q(1, 4), Q(1, 4))
    # f_pm = (e_1 pm e_sigma)/2 in some order
    rows = sorted((round(v[0].real, 9), round(v[1].real, 9))
                  for v in cb.vectors)
    assert rows == [(0.5, -0.5), (0.5, 0.5)]


def test_to_canonical_coordinates():
    group = named_group("Z", 2)
    alg = ClassAlgebra(group)
    cb = canonical_basis(character_table(group), alg)
    ones = to_canonical_coordinates(alg.unit(), cb, alg)
    assert all(abs(c - 1) < 1e-9 for c in ones)
    sigma = to_canonical_coordinates(alg.basis_vector(1), cb, alg)
    assert sorted(round(c.real) for c in sigma) == [-1, 1]
    for alpha in range(cb.r):
        coords = to_canonical_coordinates(cb.vectors[alpha], cb, alg)
        for beta, c in enumerate(coords):
            assert abs(c - (1 if beta == alpha else 0)) < 1e-9


def test_canonical_basis_unit_decomposition():
    for group in GROUPS:
        alg = ClassAlgebra(group)
        cb = canonical_basis(character_table(group), alg)
        for k in range(alg.r):
            total = sum(cb.vectors[alpha][k] for alpha in range(cb.r))
            assert abs(total - (1 if k == 0 else 0)) < 1e-9


def test_character_table_product_group():
    group = direct_product(named_group("Z", 2), named_group("Z", 3))
    ct = character_table(group)
    assert ct.degrees == (1,) * 6


def test_canonical_basis_rejects_corrupted_table():
    from orbigw.algebra import CharacterTable, IdempotencyCheckFailed
    group = named_group("Z", 2)
    alg = ClassAlgebra(group)
    bogus = CharacterTable(r=2, degrees=(1, 1),
                           values=((complex(1), complex(1)),
                                   (complex(1), complex(-0.5))),
                           tolerance=1e-9)
    with pytest.raises(IdempotencyCheckFailed):
        canonical_basis(bogus, alg)


def _canonical_basis_by_loops(ct, alg, tol):
    """Reference check: one quantum_product and one eta call per pair."""
    from orbigw.algebra import IdempotencyCheckFailed
    cd, n, r = alg.cd, alg.group.order, alg.r
    vectors = [tuple(ct.degrees[a] / n * ct.values[a][cd.inverse_class[k]]
                     for k in range(r)) for a in range(r)]
    nus = [Q(d, n) ** 2 for d in ct.degrees]
    for alpha in range(r):
        for beta in range(r):
            prod = alg.quantum_product(vectors[alpha], vectors[beta])
            expect = vectors[alpha] if alpha == beta else (complex(0),) * r
            err = max(abs(prod[k] - expect[k]) for k in range(r))
            if err > tol:
                raise IdempotencyCheckFailed(
                    f"f_{alpha} * f_{beta} residual {err:.3e}")
            pairing = alg.eta(vectors[alpha], vectors[beta])
            target = complex(nus[alpha]) if alpha == beta else 0.0
            if abs(pairing - target) > tol:
                raise IdempotencyCheckFailed(
                    f"eta(f_{alpha}, f_{beta}) residual "
                    f"{abs(pairing - target):.3e}")
    unit_err = max(abs(sum(vectors[a][k] for a in range(r))
                       - (1.0 if k == 0 else 0.0)) for k in range(r))
    if unit_err > tol:
        raise IdempotencyCheckFailed(
            f"sum f_alpha != unit, residual {unit_err:.3e}")
    return tuple(vectors), tuple(nus)


def _outcome(check):
    from orbigw.algebra import IdempotencyCheckFailed
    try:
        return "ok", check()
    except IdempotencyCheckFailed as exc:
        head, _, residual = str(exc).rpartition(" residual ")
        return head, float(residual)


ORACLE_GROUPS = {
    "S3": named_group("S", 3), "Q8": named_group("Q8"),
    "S5": named_group("S", 5),
    "S4xD4": direct_product(named_group("S", 4), named_group("D", 4)),
}


@pytest.mark.parametrize("label", sorted(ORACLE_GROUPS))
def test_canonical_basis_matches_loop_oracle(label):
    from orbigw.algebra import CharacterTable
    group = ORACLE_GROUPS[label]
    alg = ClassAlgebra(group)
    ct = character_table(group, alg.cd)
    cb = canonical_basis(ct, alg)
    assert (cb.vectors, cb.nus) == _canonical_basis_by_loops(
        ct, alg, ct.tolerance)
    # corrupt the table and demand the same verdict: the same failing
    # pair and check, and the same residual to 3 digits.  Nudging one or
    # two character values breaks a product first; doubling a degree and
    # halving its row keeps f_alpha idempotent and breaks only its pairing.
    r = alg.r
    tables = []
    for nudge in (1e-3, 1e-6, 1e-8):
        for spots in ([(r - 1, r - 1)], [(r // 2, 0)], [(1, r - 1), (0, 1)]):
            values = [list(row) for row in ct.values]
            for alpha, k in spots:
                values[alpha][k] += nudge
            tables.append((ct.degrees, values))
    tables.append((ct.degrees[:-1] + (2 * ct.degrees[-1],),
                   ct.values[:-1] + (tuple(v / 2 for v in ct.values[-1]),)))
    verdicts = []
    for degrees, values in tables:
        bogus = CharacterTable(r=r, degrees=degrees,
                               values=tuple(map(tuple, values)),
                               tolerance=ct.tolerance)
        new = _outcome(lambda: canonical_basis(bogus, alg).vectors)
        old = _outcome(lambda: _canonical_basis_by_loops(
            bogus, alg, bogus.tolerance)[0])
        assert new[0] == old[0], degrees
        if new[0] == "ok":
            assert new[1] == old[1]
        else:
            assert new[1] == pytest.approx(old[1], rel=1e-3)
        verdicts.append(new[0])
    assert verdicts[-1] == f"eta(f_{r - 1}, f_{r - 1})"
