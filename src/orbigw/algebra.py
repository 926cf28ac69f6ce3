"""The state space of the theory: center-of-group-algebra combinatorics.

Everything in the conjugacy-class basis is exact rational: metric,
structure constants, quantum product.  Character values are numeric
(they live in cyclotomic fields in general), so the canonical idempotent
basis and anything derived from it is toleranced while the nu values
stay exact rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import ConjugacyData, GroupTable, conjugacy_data
from .util import Q

# Random class-matrix combinations tried before the spectrum is declared
# degenerate.
CHARACTER_DRAWS = 20


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

    @property
    def r(self) -> int:
        return self.cd.r

    def metric(self):
        """eta_{jk} = delta_{k, inv(j)} / |C(rep_j)|, exact and symmetric;
        the inverse metric is the pairs of ``virasoro.class_table``."""
        cd = self.cd
        return tuple(tuple(Q(1, cd.centralizer_of_class(j))
                           if k == cd.inverse_class[j] else Q(0)
                           for k in range(cd.r)) for j in range(cd.r))

    def structure_constants(self):
        """a[i][j][k] = #{(x, y) in C_i x C_j : xy = representative[k]}.

        One O(|G|^2) pass; the counts for a fixed representative are the
        class-basis structure constants of the quantum product.
        """
        if self._structure is None:
            g, cd = self.group, self.cd
            r = cd.r
            is_rep = [-1] * g.order
            for k in range(r):
                is_rep[cd.representative[k]] = k
            a = [[[0] * r for _ in range(r)] for _ in range(r)]
            mult, cls = g.mult, cd.class_of
            for x in range(g.order):
                cx = cls[x]
                row = mult[x]
                for y in range(g.order):
                    k = is_rep[row[y]]
                    if k >= 0:
                        a[cx][cls[y]][k] += 1
            self._structure = tuple(tuple(tuple(v) for v in row) for row in a)
        return self._structure

    def handle_element(self):
        """H = sum_z |C(z)| e_z * e_{z^-1}, the sum of all commutators [a, b].

        Gluing a handle multiplies by H, so a genus-g surface with
        insertions c counts eps(e_{c_1} * ... * e_{c_n} * H^g).
        """
        if self._handle is None:
            cd, a = self.cd, self.structure_constants()
            self._handle = tuple(
                sum(cd.centralizer_of_class(z) * a[z][cd.inverse_class[z]][k]
                    for z in range(cd.r))
                for k in range(cd.r))
        return self._handle

    def class_mult_coefficient(self, i: int, j: int, k: int) -> int:
        return self.structure_constants()[i][j][k]

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
        cd = self.cd
        total = 0 * u[0]
        for j in range(r):
            k = cd.inverse_class[j]
            if u[j] and v[k]:
                total = total + u[j] * v[k] * Q(1, cd.centralizer_of_class(j))
        return total


@dataclass(frozen=True)
class CharacterTable:
    r: int
    degrees: tuple            # positive ints, trivial character first
    values: tuple             # r x r complex, values[alpha][class]
    tolerance: float
    # max over (alpha, beta) of |<chi_alpha, chi_beta> - delta|
    orthogonality_residual: float = 0.0

    def to_json_dict(self):
        return {
            "r": self.r,
            "degrees": list(self.degrees),
            "values": [[[v.real, v.imag] for v in row] for row in self.values],
            "tolerance": self.tolerance,
            "orthogonality_residual": self.orthogonality_residual,
        }


def character_table(group: GroupTable, cd: Optional[ConjugacyData] = None, *,
                    tol: float = 1e-9, seed: int = 0) -> CharacterTable:
    """Irreducible characters by the Burnside eigenvector method.

    The class multiplication matrices (M_i)_{jk} = a_ijk commute; the
    common eigenvectors of a random integer combination give the central
    character values, from which degrees are recovered via row
    orthogonality and validated by sum(d^2) = |G| exactly.
    """
    algebra = ClassAlgebra(group, cd)
    cd = algebra.cd
    r = cd.r
    if r == 1:
        return CharacterTable(r=1, degrees=(1,), values=((complex(1),),),
                              tolerance=tol)

    a = algebra.structure_constants()
    mats = [np.array([[float(a[i][j][k]) for k in range(r)] for j in range(r)])
            for i in range(r)]
    rng = random.Random(seed)

    eigvecs = None
    for _ in range(CHARACTER_DRAWS):
        coeffs = [rng.randint(1, 10 ** 6) for _ in range(r)]
        m = sum(c * mat for c, mat in zip(coeffs, mats))
        vals, vecs = np.linalg.eig(m)
        scale = max(1.0, float(np.max(np.abs(vals))))
        gap = min(abs(vals[i] - vals[j])
                  for i in range(r) for j in range(i + 1, r))
        if gap < 1e-6 * scale:
            continue
        eigvecs = vecs
        break
    if eigvecs is None:
        raise DegenerateSpectrum(
            f"no separating combination found in {CHARACTER_DRAWS} draws")

    n = group.order
    sizes = cd.class_size
    rows = []
    for idx in range(r):
        w = eigvecs[:, idx]
        if abs(w[0]) < 1e-12:
            raise DegenerateSpectrum("eigenvector vanishes on identity class")
        w = w / w[0]
        norm = sum(abs(w[k]) ** 2 / sizes[k] for k in range(r))
        d_float = (n / norm) ** 0.5
        d = round(d_float.real if isinstance(d_float, complex) else d_float)
        if d < 1 or abs(d_float - d) > 1e-4 * max(1, d):
            raise DegenerateSpectrum(f"non-integral degree {d_float}")
        chi = tuple(complex(d * w[k] / sizes[k]) for k in range(r))
        rows.append((d, chi))

    if sum(d * d for d, _ in rows) != n:
        raise DegenerateSpectrum("degree squares do not sum to group order")

    trivial = None
    for i, (d, chi) in enumerate(rows):
        if d == 1 and all(abs(v - 1) < 1e-6 for v in chi):
            trivial = i
            break
    if trivial is None:
        raise DegenerateSpectrum("trivial character not recovered")
    rows.insert(0, rows.pop(trivial))
    head, tail = rows[0], rows[1:]
    tail.sort(key=lambda row: (row[0],
                               tuple((round(v.real, 9), round(v.imag, 9))
                                     for v in row[1])))
    rows = [head] + tail

    degrees = tuple(d for d, _ in rows)
    values = tuple(chi for _, chi in rows)
    return CharacterTable(
        r=r, degrees=degrees, values=values, tolerance=tol,
        orthogonality_residual=_validate_character_table(values, cd, n, tol))


def _validate_character_table(values, cd, n, tol) -> float:
    """Row orthogonality and chi(g^-1) = conj chi(g) within ``tol``;
    returns the worst row orthogonality residual."""
    r = cd.r
    worst = 0.0
    for alpha in range(r):
        for beta in range(r):
            s = sum(cd.class_size[k] * values[alpha][k]
                    * values[beta][k].conjugate() for k in range(r)) / n
            residual = abs(s - (1.0 if alpha == beta else 0.0))
            if residual > tol:
                raise DegenerateSpectrum(
                    f"row orthogonality residual {residual:.3e} "
                    f"at ({alpha},{beta})")
            worst = max(worst, residual)
        for k in range(r):
            diff = values[alpha][cd.inverse_class[k]] \
                - values[alpha][k].conjugate()
            if abs(diff) > tol:
                raise DegenerateSpectrum(
                    f"inverse-class conjugation residual {abs(diff):.3e}")
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
    table's tolerance before returning.  All products f_alpha * f_beta
    come from one O(r^4) contraction with the structure constants, and all
    pairings eta(f_alpha, f_beta) from one more; the pairs are then
    checked in order, (0, 0), (0, 1), ..., product before pairing.
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

    f = np.array(vectors, dtype=complex)
    a = np.array(algebra.structure_constants(), dtype=float)
    # products[alpha, beta, k] = sum_ij f_alpha[i] f_beta[j] a_ijk
    products = np.einsum("bj,ajk->abk", f, np.einsum("ai,ijk->ajk", f, a))
    weights = np.array([1 / cd.centralizer_of_class(j) for j in range(r)])
    pairings = np.einsum("aj,bj->ab", f * weights,
                         f[:, list(cd.inverse_class)])
    for alpha in range(r):
        for beta in range(r):
            expect = f[alpha] if alpha == beta else 0
            err = float(np.max(np.abs(products[alpha, beta] - expect)))
            if err > tol:
                raise IdempotencyCheckFailed(
                    f"f_{alpha} * f_{beta} residual {err:.3e}")
            pairing = complex(pairings[alpha, beta])
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
