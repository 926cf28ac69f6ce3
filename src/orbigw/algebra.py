"""The state space of the theory: center-of-group-algebra combinatorics.

Everything in the conjugacy-class basis is exact rational: metric,
structure constants, quantum product.  Characters are exact too: Dixon's
method finds them mod a prime and lifts each value to a sum of roots of
unity with integer multiplicities.  Only their complex evaluation is
float, so the canonical idempotent basis and anything derived from it is
toleranced while the nu values stay exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul, sub
from typing import Optional, Sequence

from .groups import ConjugacyData, GroupTable, conjugacy_data
from .util import Q


class DimensionMismatch(Exception):
    pass


class DegenerateSpectrum(Exception):
    pass


class IdempotencyCheckFailed(Exception):
    pass


class ReconstructionFailed(Exception):
    pass


def frobenius_product(a, u: Sequence, v: Sequence) -> tuple:
    """Bilinear extension of e_i * e_j = sum_k a[i][j][k] e_k."""
    out = [0 * u[0] for _ in u]
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj:
                w = ui * vj
                for k, c in enumerate(a[i][j]):
                    if c:
                        out[k] = out[k] + w * c
    return tuple(out)


class ClassAlgebra:
    """Frobenius algebra on the class basis e_0, ..., e_{r-1}.

    e_k is the indicator of conjugacy class k; the unit is e_0 (identity
    class).  Vectors are plain length-r tuples of scalars; all structural
    data is exact, and integer class-sum vectors stay integer under the
    product.
    """

    def __init__(self, group: GroupTable, cd: Optional[ConjugacyData] = None):
        self.group = group
        self.cd = cd if cd is not None else conjugacy_data(group)
        self._structure = None
        self._handle = None
        self._pairs = None

    @property
    def r(self) -> int:
        return self.cd.r

    def pairs(self):
        """(m, m^-1, |C(m)|) for each class m: the inverse metric pairs e_m
        with e_{m^-1} at weight |C(m)|.  The metric, the handle element,
        the pairing checks and the class table all read it here."""
        if self._pairs is None:
            cd = self.cd
            self._pairs = tuple((m, cd.inverse_class[m],
                                 cd.centralizer_of_class(m))
                                for m in range(cd.r))
        return self._pairs

    def metric(self):
        """eta_{jk} = delta_{k, inv(j)} / |C(rep_j)|, exact and symmetric:
        the inverse of the ``pairs``."""
        return tuple(tuple(Q(1, c) if k == inv else Q(0)
                           for k in range(self.r))
                     for _j, inv, c in self.pairs())

    def structure_constants(self):
        """a[i][j][k] = #{(x, y) in C_i x C_j : xy = representative[k]}.

        For each representative g_k, every x in G is one pair (x, x^-1 g_k),
        counted at (class of x, class of x^-1 g_k): one O(|G| r) pass.
        These are the class-basis structure constants of the quantum product.
        """
        if self._structure is None:
            g, cd = self.group, self.cd
            r = cd.r
            a = [[[0] * r for _ in range(r)] for _ in range(r)]
            mult, inv, cls = g.mult, g.inv, cd.class_of
            for k, rep in enumerate(cd.representative):
                for x in range(g.order):
                    a[cls[x]][cls[mult[inv[x]][rep]]][k] += 1
            self._structure = tuple(tuple(tuple(v) for v in row) for row in a)
        return self._structure

    def handle_element(self):
        """H = sum_z |C(z)| e_z * e_{z^-1}, the sum of all commutators [a, b].

        Gluing a handle multiplies by H, so a genus-g surface with
        insertions c counts eps(e_{c_1} * ... * e_{c_n} * H^g).
        """
        if self._handle is None:
            a = self.structure_constants()
            self._handle = tuple(
                sum(c * a[z][inv][k] for z, inv, c in self.pairs())
                for k in range(self.r))
        return self._handle

    def basis_vector(self, k: int):
        return tuple(1 if m == k else 0 for m in range(self.r))

    def unit(self):
        return self.basis_vector(0)

    def quantum_product(self, u: Sequence, v: Sequence):
        """Bilinear extension of e_i * e_j = sum_k a_ijk e_k."""
        r = self.r
        if len(u) != r or len(v) != r:
            raise DimensionMismatch(f"expected length {r}")
        return frobenius_product(self.structure_constants(), u, v)

    def eta(self, u: Sequence, v: Sequence):
        """Bilinear (not sesquilinear) pairing in the class basis."""
        r = self.r
        if len(u) != r or len(v) != r:
            raise DimensionMismatch(f"expected length {r}")
        total = 0 * u[0]
        for j, k, c in self.pairs():
            if u[j] and v[k]:
                total = total + u[j] * v[k] * Q(1, c)
        return total


@dataclass(frozen=True)
class CharacterTable:
    r: int
    degrees: tuple            # positive ints, trivial character first
    values: tuple             # r x r complex, values[alpha][class]
    tolerance: float
    # max over (alpha, beta) of |<chi_alpha, chi_beta> - delta|
    orthogonality_residual: float = 0.0
    # the exact table: values mod ``prime``, and each value as
    # ((t, m), ...), chi = sum of m exp(2 pi i t / o) over the order o of
    # the class representative
    prime: int = 0
    residues: tuple = ()
    lifts: tuple = ()

    def to_json_dict(self):
        return {
            "r": self.r,
            "degrees": list(self.degrees),
            "values": [[[v.real, v.imag] for v in row] for row in self.values],
            "tolerance": self.tolerance,
            "orthogonality_residual": self.orthogonality_residual,
        }


def dixon_prime(order: int, exponent: int) -> int:
    """Least prime p = 1 mod ``exponent`` with p > 2 sqrt(order).

    F_p then holds the exponent-th roots of unity, p divides no class
    size, and a degree d <= sqrt(order) < p/2 is fixed by d^2 mod p.
    """
    p = exponent + 1
    while p * p <= 4 * order or any(p % q == 0
                                    for q in range(2, math.isqrt(p) + 1)):
        p += exponent
    return p


def root_of_unity(p: int, e: int) -> int:
    """An element of order e in F_p, for e dividing p - 1: z^((p-1)/e) for
    the least z that gives one.  It stands for exp(2 pi i / e)."""
    for z in range(2, p):
        w = pow(z, (p - 1) // e, p)
        if all(pow(w, e // q, p) != 1 for q in range(2, e + 1) if e % q == 0):
            return w
    raise DegenerateSpectrum(f"no element of order {e} mod {p}")


def power_maps(group: GroupTable, cd: ConjugacyData) -> tuple:
    """powers[k][j] = class of g^j for the representative g of class k,
    j = 0..o(g)-1."""
    out = []
    for g in cd.representative:
        seq, x = [0], g
        while x != group.identity:
            seq.append(cd.class_of[x])
            x = group.mult[x][g]
        out.append(tuple(seq))
    return tuple(out)


def _echelon(rows, p):
    """Row echelon form mod p with each pivot 1; returns the nonzero rows
    and their pivot columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        done = len(pivots)
        hit = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[done], rows[hit] = rows[hit], rows[done]
        inv = pow(rows[done][col], p - 2, p)
        pivot = rows[done] = [x * inv % p for x in rows[done]]
        for i in range(done + 1, len(rows)):
            u = rows[i][col]
            if u:
                rows[i] = [(x - u * y) % p for x, y in zip(rows[i], pivot)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _kernel(m, p):
    """A basis of {x : m x = 0} mod p, by back substitution, and the free
    columns: the basis is the identity there."""
    rows, pivots = _echelon(m, p)
    free = sorted(set(range(len(m[0]))) - set(pivots))
    out = []
    for f in free:
        x = [0] * len(m[0])
        x[f] = 1
        for row, col in zip(reversed(rows), reversed(pivots)):
            x[col] = -sum(map(mul, row[col + 1:], x[col + 1:])) % p
        out.append(x)
    return out, free


def _charpoly(m, p):
    """det(x I - m) mod p, lowest coefficient first: reduce m to
    Hessenberg form h by similarity, then expand along its last column."""
    n = len(m)
    h = [list(row) for row in m]
    for c in range(1, n - 1):
        hit = next((i for i in range(c, n) if h[i][c - 1]), None)
        if hit is None:
            continue
        if hit != c:
            h[hit], h[c] = h[c], h[hit]
            for row in h:
                row[hit], row[c] = row[c], row[hit]
        inv = pow(h[c][c - 1], p - 2, p)
        for i in range(c + 1, n):
            u = h[i][c - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[c])]
                for row in h:
                    row[c] = (row[c] + u * row[i]) % p
    polys = [[1]]
    for c in range(n):
        # det of the leading (c+1)-block, by its last column
        new = [0] + polys[c]
        for k, v in enumerate(polys[c]):
            new[k] = (new[k] - h[c][c] * v) % p
        t = 1
        for i in range(c, 0, -1):
            t = t * h[i][i - 1] % p
            u = h[i - 1][c] * t % p
            for k, v in enumerate(polys[i - 1]):
                new[k] = (new[k] - u * v) % p
        polys.append(new)
    return polys[n]


def _roots(poly, p):
    """Distinct roots in F_p of a polynomial given lowest coefficient
    first, by evaluating it at every element."""
    xs = range(p)
    vals = [poly[-1]] * p
    for c in reversed(poly[:-1]):
        vals = [(v * x + c) % p for v, x in zip(vals, xs)]
    return [x for x, v in zip(xs, vals) if not v]


def central_characters(a, p) -> list:
    """The r common eigenvectors w, scaled to w_0 = 1, of the class
    matrices A_i[j][k] = a[i][j][k] over F_p.

    F_p^r is split class by class: each subspace (a basis that is the
    identity at its pivot columns, where the restriction of A_i is read)
    splits into the eigenspaces of that restriction, at the roots of its
    characteristic polynomial.  Each w is checked against every A_i:
    A_i w = w_i w.
    """
    r = len(a)
    # rows[i][j] = (ks, cs): the nonzero a[i][j][k] = c, k in ks
    rows = [[([k for k, c in enumerate(row) if c], [c for c in row if c])
             for row in ai] for ai in a]

    def dot(row, v):
        return sum(map(mul, row[1], map(v.__getitem__, row[0]))) % p

    spaces = [([[int(j == k) for k in range(r)] for j in range(r)],
               list(range(r)))]
    for i in range(1, r):
        if len(spaces) == r:
            break
        split = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                split.append((basis, pivots))
                continue
            block = [[dot(rows[i][j], b) for b in basis] for j in pivots]
            cols = list(zip(*basis))
            found = 0
            for lam in _roots(_charpoly(block, p), p):
                kernel, free = _kernel([[(x - lam) % p if s == t else x
                                         for s, x in enumerate(row)]
                                        for t, row in enumerate(block)], p)
                found += len(kernel)
                split.append(([[sum(map(mul, x, col)) % p for col in cols]
                               for x in kernel], [pivots[f] for f in free]))
            if found != len(basis):
                raise DegenerateSpectrum(
                    f"class {i} is not diagonal over F_{p}")
        spaces = split
    if len(spaces) != r:
        raise DegenerateSpectrum("the class matrices do not split F_p^r")
    ws = [[x * pow(basis[0][0], p - 2, p) % p for x in basis[0]]
          for basis, _pivots in spaces]
    at = list(zip(*ws))             # at[k][s] = ws[s][k]
    if any(x != 1 for x in at[0]):
        raise DegenerateSpectrum("an eigenvector vanishes at the identity")
    for i in range(r):
        for j, (ks, cs) in enumerate(rows[i]):
            lhs = [0] * r
            for k, c in zip(ks, cs):
                lhs = [x + c * y for x, y in zip(lhs, at[k])]
            if [x % p for x in lhs] != [y * z % p
                                        for y, z in zip(at[i], at[j])]:
                raise DegenerateSpectrum(
                    f"A_{i} w != w_{i} w mod {p} at row {j}")
    return ws


def _lift(power_sums, root, o, p) -> tuple:
    """((t, m), ...) with chi(g) = sum of m zeta_o^t, from the power sums
    chi(g^j) mod p, j = 1..d: Newton's identities give the characteristic
    polynomial of g, whose roots are read off among the root^t."""
    elem = [1]
    for j in range(1, len(power_sums) + 1):
        s = sum((-1) ** (i - 1) * elem[j - i] * power_sums[i - 1]
                for i in range(1, j + 1))
        elem.append(s * pow(j, p - 2, p) % p)
    poly = [(-1) ** j * c % p for j, c in enumerate(elem)]  # highest first
    out, z = [], 1
    for t in range(o):
        if len(poly) == 1:
            break
        m = 0
        while len(poly) > 1:
            quotient = [poly[0]]
            for c in poly[1:]:
                quotient.append((quotient[-1] * z + c) % p)
            if quotient.pop():
                break
            poly, m = quotient, m + 1
        if m:
            out.append((t, m))
        z = z * root % p
    if len(poly) > 1:
        raise DegenerateSpectrum(f"power sums {power_sums} do not lift")
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_root(t: int, o: int) -> tuple:
    """(cos, sin) of 2 pi t / o, 0 <= t <= o, folded into the first eighth
    of a turn: quarter turns are exact, and t and o - t give exact
    conjugates."""
    if 2 * t > o:
        c, s = _unit_root(o - t, o)
        return c, -s
    if 4 * t > o:
        c, s = _unit_root(o - 2 * t, 2 * o)
        return -c, s
    if 8 * t > o:
        c, s = _unit_root(o - 4 * t, 4 * o)
        return s, c
    return math.cos(2 * math.pi * t / o), math.sin(2 * math.pi * t / o)


def _complex_value(lift, o) -> complex:
    """sum of m exp(2 pi i t / o) over the lift's (t, m)."""
    terms = [(m, _unit_root(t, o)) for t, m in lift]
    return complex(math.fsum(m * c for m, (c, _s) in terms) + 0.0,
                   math.fsum(m * s for m, (_c, s) in terms) + 0.0)


def character_table(group: GroupTable, cd: Optional[ConjugacyData] = None, *,
                    tol: float = 1e-9, seed: int = 0) -> CharacterTable:
    """Irreducible characters, exactly, by Dixon's modular method.

    With e the exponent and p = ``dixon_prime``, the central characters
    w are the common eigenvectors of the class matrices over F_p
    (``central_characters``).  Row orthogonality gives
    sum_k w_k w_{k^-1} / |C_k| = |G| / d^2 mod p, which fixes the degree
    d, and chi = d w / |C| mod p.  Each chi(g) lifts to a sum of o(g)-th
    roots of unity with multiplicities in [0, d] (``_lift``); only its
    complex evaluation is a float.  The method draws nothing: ``seed``
    is accepted and unused.  Trivial character first, then rows by
    degree and rounded values.
    """
    algebra = ClassAlgebra(group, cd)
    cd = algebra.cd
    n, r = group.order, cd.r
    powers = power_maps(group, cd)
    e = math.lcm(*map(len, powers))
    p = dixon_prime(n, e)
    omega = root_of_unity(p, e)
    inv_size = [pow(s, p - 2, p) for s in cd.class_size]

    @lru_cache(maxsize=None)
    def lift(power_sums, o):
        return _lift(power_sums, pow(omega, e // o, p), o, p)

    rows = []
    for w in central_characters(algebra.structure_constants(), p):
        norm = sum(w[k] * w[cd.inverse_class[k]] * inv_size[k]
                   for k in range(r)) % p
        target = n * pow(norm, p - 2, p) % p
        d = next((d for d in range(1, math.isqrt(n) + 1)
                  if d * d % p == target), None)
        if d is None:
            raise DegenerateSpectrum(f"no degree for {w} mod {p}")
        chi = [d * w[k] * inv_size[k] % p for k in range(r)]
        lifts = tuple(
            lift(tuple(chi[seq[j % len(seq)]] for j in range(1, d + 1)),
                 len(seq))
            for seq in powers)
        values = tuple(_complex_value(exact, len(seq))
                       for exact, seq in zip(lifts, powers))
        rows.append((d, values, tuple(chi), lifts))
    if sum(row[0] ** 2 for row in rows) != n:
        raise DegenerateSpectrum("degree squares do not sum to group order")

    rows.sort(key=lambda row: (row[2] != (1,) * r, row[0],
                               tuple((round(v.real, 9), round(v.imag, 9))
                                     for v in row[1])))
    values = tuple(row[1] for row in rows)
    return CharacterTable(
        r=r, degrees=tuple(row[0] for row in rows), values=values,
        tolerance=tol,
        orthogonality_residual=_orthogonality_residual(values, cd, n),
        prime=p, residues=tuple(row[2] for row in rows),
        lifts=tuple(row[3] for row in rows))


def _orthogonality_residual(values, cd, n) -> float:
    """The worst |<chi_alpha, chi_beta> - delta| over all pairs of rows."""
    conjugates = [[v.conjugate() for v in row] for row in values]
    worst = 0.0
    for alpha, row in enumerate(values):
        weighted = list(map(mul, cd.class_size, row))
        for beta, conj in enumerate(conjugates):
            s = sum(map(mul, weighted, conj)) / n
            worst = max(worst, abs(s - (1.0 if alpha == beta else 0.0)))
    return worst


@dataclass(frozen=True)
class CanonicalBasis:
    """Orthogonal idempotents f_alpha in the class basis, with exact nus."""

    vectors: tuple   # r tuples of complex, class-basis coefficients
    nus: tuple       # r exact Fractions (deg_alpha / |G|)^2
    tolerance: float

    @property
    def r(self) -> int:
        return len(self.vectors)


def canonical_basis(ct: CharacterTable,
                    algebra: ClassAlgebra) -> CanonicalBasis:
    """Idempotents from characters: coefficient of e_k in f_alpha is
    (d_alpha/|G|) chi_alpha(inverse class of k).

    Idempotency, eta-orthogonality and sum-to-unit are verified within the
    table's tolerance before returning, pair by pair in order, (0, 0),
    (0, 1), ..., product before pairing.  f_alpha * f_beta is read from
    L_alpha[k][j] = sum_i f_alpha[i] a_ijk, built over the nonzero
    structure constants; the algebra is commutative, so (beta, alpha)
    reuses (alpha, beta).
    """
    cd = algebra.cd
    n = algebra.group.order
    r = cd.r
    tol = ct.tolerance
    vectors = []
    nus = []
    for alpha in range(r):
        d = ct.degrees[alpha]
        vec = tuple(d / n * ct.values[alpha][cd.inverse_class[k]]
                    for k in range(r))
        vectors.append(vec)
        nus.append(Q(d, n) ** 2)

    nonzero = [(i, j, k, c)
               for i, plane in enumerate(algebra.structure_constants())
               for j, row in enumerate(plane) for k, c in enumerate(row) if c]
    lifted = []
    for f in vectors:
        rows = [[0j] * r for _ in range(r)]
        for i, j, k, c in nonzero:
            rows[k][j] += f[i] * c
        lifted.append(rows)
    pairs = algebra.pairs()
    weighted = [[f[m] / c for m, _inv, c in pairs] for f in vectors]
    mirrored = [[f[inv] for _m, inv, _c in pairs] for f in vectors]
    products = {}
    for alpha in range(r):
        for beta in range(r):
            if beta < alpha:
                product = products.pop((beta, alpha))
            else:
                product = [sum(map(mul, vectors[beta], row))
                           for row in lifted[alpha]]
                products[alpha, beta] = product
            expect = vectors[alpha] if alpha == beta else (0,) * r
            err = max(map(abs, map(sub, product, expect)))
            if err > tol:
                raise IdempotencyCheckFailed(
                    f"f_{alpha} * f_{beta} residual {err:.3e}")
            pairing = sum(map(mul, weighted[alpha], mirrored[beta]))
            target = complex(nus[alpha]) if alpha == beta else 0.0
            if abs(pairing - target) > tol:
                raise IdempotencyCheckFailed(
                    f"eta(f_{alpha}, f_{beta}) residual "
                    f"{abs(pairing - target):.3e}")
    unit_err = max(abs(sum(vectors[alpha][k] for alpha in range(r))
                       - (1.0 if k == 0 else 0.0)) for k in range(r))
    if unit_err > tol:
        raise IdempotencyCheckFailed(f"sum f_alpha != unit, residual {unit_err:.3e}")

    return CanonicalBasis(vectors=tuple(vectors), nus=tuple(nus), tolerance=tol)


def to_canonical_coordinates(v: Sequence, cb: CanonicalBasis,
                             algebra: ClassAlgebra):
    """Coordinates c with v = sum_alpha c_alpha f_alpha, via eta-orthogonality."""
    r = cb.r
    vv = tuple(complex(x) for x in v)
    coords = tuple(algebra.eta(vv, cb.vectors[alpha]) / complex(cb.nus[alpha])
                   for alpha in range(r))
    recon = [complex(0)] * r
    for alpha in range(r):
        for k in range(r):
            recon[k] += coords[alpha] * cb.vectors[alpha][k]
    err = max(abs(recon[k] - vv[k]) for k in range(r))
    if err > max(cb.tolerance, 1e-9) * max(1.0, max(abs(x) for x in vv)):
        raise ReconstructionFailed(f"reconstruction residual {err:.3e}")
    return coords
