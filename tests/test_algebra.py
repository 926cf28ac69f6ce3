import cmath
import math

import pytest

from orbigw.algebra import (ClassAlgebra, DegenerateSpectrum,
                            DimensionMismatch, canonical_basis,
                            central_characters, character_table,
                            power_maps, root_of_unity,
                            to_canonical_coordinates)
from orbigw.correlators import CorrelatorKey, OrbifoldTheory
from orbigw.groups import direct_product, group_from_spec, named_group
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
    a = alg.structure_constants()
    assert a[t][t][0] == 3
    assert a[t][t][c] == 3
    for j in range(3):
        for k in range(3):
            assert a[0][j][k] == (1 if j == k else 0)


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


def _structure_constants_by_pairs(alg):
    """Reference: one O(|G|^2) pass over all pairs (x, y)."""
    g, cd = alg.group, alg.cd
    r = cd.r
    is_rep = [-1] * g.order
    for k in range(r):
        is_rep[cd.representative[k]] = k
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x in range(g.order):
        for y in range(g.order):
            k = is_rep[g.mult[x][y]]
            if k >= 0:
                a[cd.class_of[x]][cd.class_of[y]][k] += 1
    return tuple(tuple(tuple(v) for v in row) for row in a)


@pytest.mark.parametrize("group", [
    named_group("S", 3), named_group("Z", 3), named_group("Q8"),
    named_group("D", 6), named_group("S", 6),
    direct_product(named_group("S", 4), named_group("D", 4))],
    ids=["S3", "Z3", "Q8", "D6", "S6", "S4xD4"])
def test_structure_constants_match_pair_loop(group):
    alg = ClassAlgebra(group)
    assert alg.structure_constants() == _structure_constants_by_pairs(alg)


# -- the exact character table -------------------------------------------------

A5 = group_from_spec('{"generators":["(0 1 2 3 4)","(0 1 2)"]}')
Z7_Z3 = group_from_spec('{"generators":["(0 1 2 3 4 5 6)","(1 2 4)(3 6 5)"]}')
Z2xZ3 = direct_product(named_group("Z", 2), named_group("Z", 3))
S4xD4 = direct_product(named_group("S", 4), named_group("D", 4))

PHI, PSI = (1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2
W = complex(-1, math.sqrt(3)) / 2
B = complex(-1, math.sqrt(7)) / 2

# rows in table order, classes in conjugacy_data order
PINNED_TABLES = {
    "S3": (named_group("S", 3),
           [[1, 1, 1], [1, -1, 1], [2, 0, -1]]),
    "Q8": (named_group("Q8"),
           [[1, 1, 1, 1, 1], [1, 1, -1, -1, 1], [1, 1, -1, 1, -1],
            [1, 1, 1, -1, -1], [2, -2, 0, 0, 0]]),
    "A5": (A5,
           [[1, 1, 1, 1, 1], [3, PSI, 0, PHI, -1], [3, PHI, 0, PSI, -1],
            [4, -1, 1, -1, 0], [5, 0, -1, 0, 1]]),
    "Z7:Z3": (Z7_Z3,
              [[1, 1, 1, 1, 1], [1, 1, W.conjugate(), W, 1],
               [1, 1, W, W.conjugate(), 1],
               [3, B.conjugate(), 0, 0, B], [3, B, 0, 0, B.conjugate()]]),
}


@pytest.mark.parametrize("label", sorted(PINNED_TABLES))
def test_character_table_pinned_values(label):
    group, expected = PINNED_TABLES[label]
    ct = character_table(group)
    assert ct.degrees == tuple(row[0] for row in expected)
    for row, want in zip(ct.values, expected):
        assert max(abs(v - w) for v, w in zip(row, want)) < 1e-12, label


@pytest.mark.parametrize("group", [Z2xZ3, S4xD4], ids=["Z2xZ3", "S4xD4"])
def test_character_table_orthogonality(group):
    ct = character_table(group)
    cd = ClassAlgebra(group).cd
    r, n = ct.r, group.order
    for alpha in range(r):
        for beta in range(r):
            s = sum(cd.class_size[k] * ct.values[alpha][k]
                    * ct.values[beta][k].conjugate() for k in range(r)) / n
            assert abs(s - (alpha == beta)) < 1e-12
    for k in range(r):
        for m in range(r):
            s = sum(row[k] * row[m].conjugate() for row in ct.values)
            want = cd.centralizer_of_class(k) if k == m else 0
            assert abs(s - want) < 1e-10
    assert ct.orthogonality_residual < 1e-12


@pytest.mark.parametrize("factors", [(("Z", 2), ("Z", 3)), (("S", 4), ("D", 4))],
                         ids=["Z2xZ3", "S4xD4"])
def test_character_table_of_product_is_tensor_product(factors):
    g, h = (named_group(*f) for f in factors)
    cd_g, cd_h = ClassAlgebra(g).cd, ClassAlgebra(h).cd
    gh = direct_product(g, h)
    cd = ClassAlgebra(gh).cd
    pairs = [divmod(x, h.order) for x in cd.representative]

    def rounded(row):
        return tuple((round(v.real, 9) + 0.0, round(v.imag, 9) + 0.0)
                     for v in row)

    tensor = sorted(
        rounded([chi[cd_g.class_of[x]] * psi[cd_h.class_of[y]]
                 for x, y in pairs])
        for chi in character_table(g).values
        for psi in character_table(h).values)
    assert sorted(map(rounded, character_table(gh).values)) == tensor


@pytest.mark.parametrize("group", [named_group("S", 3), A5, S4xD4],
                         ids=["S3", "A5", "S4xD4"])
def test_character_table_draws_nothing(group):
    tables = [character_table(group, seed=seed) for seed in (0, 1, 7)]
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("group", [named_group("Q8"), A5, Z7_Z3, S4xD4,
                                   named_group("Z", 12)],
                         ids=["Q8", "A5", "Z7:Z3", "S4xD4", "Z12"])
def test_character_table_exact_mod_p(group):
    """Each residue row, as w = chi |C| / d, is a common eigenvector of
    every class matrix mod p; each lift has multiplicities in [0, d] that
    sum to d, reduces to the residue mod p and evaluates to the value."""
    alg = ClassAlgebra(group)
    cd, a = alg.cd, alg.structure_constants()
    ct = character_table(group, alg.cd)
    powers = power_maps(group, cd)
    e = math.lcm(*map(len, powers))
    p, n, r = ct.prime, group.order, ct.r
    assert p % e == 1 and p * p > 4 * n and n % p != 0
    assert all(p % q for q in range(2, math.isqrt(p) + 1))
    omega = root_of_unity(p, e)
    assert all(pow(omega, e // q, p) != 1 for q in range(2, e + 1)
               if e % q == 0)
    for d, chi, lifts, values in zip(ct.degrees, ct.residues, ct.lifts,
                                     ct.values):
        w = [x * cd.class_size[k] * pow(d, p - 2, p) % p
             for k, x in enumerate(chi)]
        assert w[0] == 1
        for i in range(r):
            for j in range(r):
                assert sum(a[i][j][k] * w[k] for k in range(r)) % p \
                    == w[i] * w[j] % p, (i, j)
        for k, lift in enumerate(lifts):
            o = len(powers[k])
            assert all(0 <= t < o and 0 < m <= d for t, m in lift)
            assert sum(m for _t, m in lift) == d
            root = pow(omega, e // o, p)
            assert sum(m * pow(root, t, p) for t, m in lift) % p == chi[k]
            exact = sum(m * cmath.exp(2j * math.pi * t / o) for t, m in lift)
            assert abs(exact - values[k]) < 1e-12


def test_central_characters_check_every_class_matrix():
    # Z5's generator class alone splits F_p^5, so a fault in the last
    # class matrix is seen only by the check of A_i w = w_i w
    alg = ClassAlgebra(named_group("Z", 5))
    a = [[list(row) for row in plane] for plane in alg.structure_constants()]
    p = 11
    assert len(central_characters(a, p)) == 5
    a[4][1] = [c + 1 for c in a[4][1]]
    with pytest.raises(DegenerateSpectrum, match=r"A_4 w != w_4 w"):
        central_characters(a, p)
