"""Descendant correlators of the group theory.

The numbers come in two independent halves:

* surface counts: normalized counts of tuples (a_1..a_g, b_1..b_g,
  s_1..s_n) with prod [a_i, b_i] = prod s_j and s_j in prescribed
  conjugacy classes, divided by |G|.  Computed both by literal
  enumeration (the oracle) and by one product in the Frobenius algebra
  of class sums, eps(e_{c_1} * ... * e_{c_n} * H^g) with H the handle
  element.

* psi-class intersection numbers on the moduli of curves, computed by
  the string equation plus the descendant (Virasoro/KdV) recursion.

A stable descendant correlator is the product of the two, and the large
phase space potential collects them all with exponential-generating
symmetry factors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from multiprocessing import get_context
from typing import Optional, Sequence

from .algebra import ClassAlgebra
from .groups import GroupTable, conjugacy_data, direct_product
from .series import SeriesCaps, TruncatedSeries, mono_factorial, mono_from_vars
from .util import Q, double_factorial, rat_str

DEFAULT_WORK_CAP = 10 ** 9
# At genus >= 2 the oracle holds elements as bytes: an order above this
# is refused, and would need over 4x DEFAULT_WORK_CAP tuples anyway.
BYTE_ORDER_LIMIT = 256
# Below this many tuples one process beats a forked pool.  On a 2-CPU
# host, 2 workers took 0.058 s against 0.036 s for D6 at genus 3 (3.0e6
# tuples) and 0.11 s against 0.20 s for D8 at genus 3 (1.7e7).
POOL_MIN_TUPLES = 10 ** 7
# Joined leaves are counted in batches of about this many bytes.
LEAF_BATCH_BYTES = 1 << 18

CLASS_BASIS = "class"
CANONICAL_RESCALED = "canonical-rescaled"


class WorkCapExceeded(Exception):
    pass


class UnstableKey(Exception):
    pass


class MissingCoefficient(KeyError):
    """A target names a coefficient the potential does not store."""

    def __str__(self):
        # KeyError quotes its message; this one is meant to be read
        return str(self.args[0])


@dataclass(frozen=True)
class CorrelatorKey:
    genus: int
    insertions: tuple  # ((level, class index), ...)

    @property
    def stable(self) -> bool:
        return 2 * self.genus - 2 + len(self.insertions) > 0

    @property
    def levels(self) -> tuple:
        return tuple(a for a, _ in self.insertions)

    @property
    def classes(self) -> tuple:
        return tuple(m for _, m in self.insertions)


# -- psi-class intersection numbers ------------------------------------------

_PSI_CACHE: dict = {}


def psi_correlator(genus: int, levels: Sequence[int]) -> Fraction:
    """<tau_{a_1} ... tau_{a_n}>_g for the point.

    Zero unless sum a_i = 3g - 3 + n.  Unstable keys (2g - 2 + n <= 0)
    are rejected.  Values are produced by the string equation and the
    descendant recursion; the genus-0 closed form (n-3)!/prod(a_i!) is
    deliberately not used here so it can serve as an independent oracle.
    """
    levels = tuple(int(a) for a in levels)
    if any(a < 0 for a in levels):
        raise ValueError("descendant levels must be >= 0")
    if 2 * genus - 2 + len(levels) <= 0:
        raise UnstableKey(f"(g={genus}, n={len(levels)}) is unstable")
    return _psi(genus, tuple(sorted(levels)))


def _psi(g: int, levels: tuple) -> Fraction:
    """Internal: sorted levels, returns 0 for unstable or off-dimension keys."""
    n = len(levels)
    if 2 * g - 2 + n <= 0 or g < 0:
        return Q(0)
    if sum(levels) != 3 * g - 3 + n:
        return Q(0)
    key = (g, levels)
    cached = _PSI_CACHE.get(key)
    if cached is not None:
        return cached

    if levels and levels[0] == 0:
        value = _psi_string(g, levels)
    else:
        value = _psi_descendant(g, levels)
    _PSI_CACHE[key] = value
    return value


def _psi_string(g: int, levels: tuple) -> Fraction:
    """Remove one tau_0: <tau_0 X>_g = sum over insertions of X lowered."""
    rest = levels[1:]
    if g == 0 and rest == (0, 0):
        return Q(1)
    total = Q(0)
    for j in range(len(rest)):
        if rest[j] == 0:
            continue
        lowered = tuple(sorted(rest[:j] + (rest[j] - 1,) + rest[j + 1:]))
        total += _psi(g, lowered)
    return total


def _psi_descendant(g: int, levels: tuple) -> Fraction:
    """Solve the level-(k) constraint for <tau_k X>_g, k = max level >= 1.

    (2n+3)!! <tau_{n+1} X>_g =
        sum_j [(2a_j+2n+1)!!/(2a_j-1)!!] <tau_{a_j+n} X\\a_j>_g
      + 1/2 sum_{i=0}^{n-1} (2i+1)!!(2n-2i-1)!! [
            <tau_i tau_{n-1-i} X>_{g-1}
          + sum splits <tau_i X_I>_{g'} <tau_{n-1-i} X_J>_{g-g'} ]
      + delta_{n,0} delta_{X empty} delta_{g,1} / 8
    with n = k - 1; the sum over splits is ``_node_psi``.
    """
    k = levels[-1]
    n_op = k - 1
    rest = levels[:-1]

    rhs = Q(0)
    for j in range(len(rest)):
        if j > 0 and rest[j] == rest[j - 1]:
            continue  # identical insertions contribute identical terms
        mult = rest.count(rest[j])
        a = rest[j]
        shifted = tuple(sorted(rest[:j] + (a + n_op,) + rest[j + 1:]))
        coeff = Q(double_factorial(2 * a + 2 * n_op + 1),
                  double_factorial(2 * a - 1))
        rhs += mult * coeff * _psi(g, shifted)

    for i in range(n_op):
        b = Q(double_factorial(2 * i + 1)
              * double_factorial(2 * (n_op - 1 - i) + 1), 2)
        if g >= 1:
            joined = tuple(sorted(rest + (i, n_op - 1 - i)))
            rhs += b * _psi(g - 1, joined)
        split = _node_psi(g, (i,), (n_op - 1 - i,), rest)
        if split:
            rhs += b * split

    if n_op == 0 and not rest and g == 1:
        rhs += Q(1, 8)
    return rhs / double_factorial(2 * n_op + 3)


def _node_psi(g: int, side1: tuple, side2: tuple, free: tuple) -> Fraction:
    """P: psi numbers of two surfaces joined at a node, summed over the
    genus splits g1 + g2 = g and the labelled subsets S of the sorted
    ``free`` levels: psi_{g1}(side1 + free_S) psi_{g2}(side2 + the rest).

    ``side1`` and ``side2`` hold the levels fixed on either side, the
    node's own two among them; unstable or off-dimension factors count 0.
    The products are summed as integers over their least common
    denominator.
    """
    nums, dens = [], []
    for sub, weight in _submultisets(free):
        left = side1 + sub
        g1, off = divmod(sum(left) - len(left) + 3, 3)
        if off or not 0 <= g1 <= g:
            continue
        value = _psi(g1, tuple(sorted(left)))
        if not value:
            continue
        right = side2 + _multiset_difference(free, sub)
        other = _psi(g - g1, tuple(sorted(right)))
        if other:
            nums.append(weight * value.numerator * other.numerator)
            dens.append(value.denominator * other.denominator)
    den = math.lcm(*dens)
    return Q(sum(n * (den // d) for n, d in zip(nums, dens)), den)


def _submultisets(items: tuple):
    """(submultiset, multiplicity weight) pairs of a sorted tuple.

    The weight is the number of position-subsets realizing the submultiset.
    """
    out = [((), 1)]
    for value, mult in _level_blocks(items):
        grown = []
        for sub, weight in out:
            for take in range(mult + 1):
                grown.append((sub + (value,) * take,
                              weight * math.comb(mult, take)))
        out = grown
    return out


def _multiset_difference(items: tuple, sub: tuple) -> tuple:
    rem = list(items)
    for x in sub:
        rem.remove(x)
    return tuple(rem)


def genus0_closed_form(levels: Sequence[int]) -> Fraction:
    """(n-3)!/prod(a_i!) when sum a_i = n - 3, else 0.  Oracle use only."""
    n = len(levels)
    if n < 3 or sum(levels) != n - 3:
        return Q(0)
    denom = 1
    for a in levels:
        denom *= math.factorial(a)
    return Q(math.factorial(n - 3), denom)


# -- surface counts -----------------------------------------------------------

def _distribution_chunk(args):
    """Count commutator-tuple products for a slice of the outer loop.

    Genus 1 is a plain loop over (a_1, b_1), at any order.  At genus >= 2
    elements are bytes (order <= BYTE_ORDER_LIMIT): below each prefix
    the last handle is one leaf, the commutator list translated by the
    prefix's multiplication row, so C looks up each tuple's product.
    Joined leaves are counted in batches of about LEAF_BATCH_BYTES, not
    all at once: the n^{2g-1} leaf bytes below one a_1 can reach 60 MB
    at the work cap.
    """
    mult, inv, genus, a1_range = args
    n = len(mult)
    counts = [0] * n
    if genus == 1:
        for a1 in a1_range:
            ia = inv[a1]
            row = mult[a1]
            for b1 in range(n):
                counts[mult[mult[row[b1]][ia]][inv[b1]]] += 1
        return counts
    comm = [[mult[mult[mult[a][b]][inv[a]]][inv[b]] for b in range(n)]
            for a in range(n)]
    flat = [c for arow in comm for c in arow]
    flat_b = bytes(flat)
    pad = bytes(256 - n)
    rows_b = [bytes(row) + pad for row in mult]
    bands = _bands(n)
    batch = max(1, LEAF_BATCH_BYTES // len(flat_b))
    leaves = []

    # The oracle must visit every tuple: each leaf looks up its n^2
    # products one by one, and is not replaced by the genus-1
    # distribution, whose convolution is the handle-element product
    # this enumeration checks.
    def rec(depth, prefix):
        if depth == genus - 1:
            leaves.append(flat_b.translate(rows_b[prefix]))
            if len(leaves) == batch:
                _tally(b"".join(leaves), bands, counts)
                leaves.clear()
            return
        row = mult[prefix]
        for c in flat:
            rec(depth + 1, row[c])

    for a1 in a1_range:
        crow = comm[a1]
        for b1 in range(n):
            rec(1, crow[b1])
    _tally(b"".join(leaves), bands, counts)
    return counts


def _bands(n: int) -> list:
    """(values, delete) for bands of about sqrt(n) consecutive values:
    ``delete`` holds every byte outside the band."""
    width = math.isqrt(n)
    out = []
    for lo in range(0, n, width):
        values = range(lo, min(lo + width, n))
        out.append((values, bytes(v for v in range(256) if v not in values)))
    return out


def _tally(data: bytes, bands: list, counts: list) -> None:
    """Add the byte histogram of ``data`` to ``counts``: one pass cuts out
    each band, and each value is counted only within its band, the last
    one as what the others leave; about 2 sqrt(n) passes in all where
    per-value counting takes n."""
    for values, delete in bands:
        part = data.translate(None, delete)
        rest = len(part)
        for v in values[:-1]:
            c = part.count(v)
            counts[v] += c
            rest -= c
        counts[values[-1]] += rest


class OrbifoldTheory:
    """All correlator machinery for one finite group.

    Surface counts come from the class algebra (``surface_count``) and,
    independently, from literal enumeration (``surface_count_brute``).
    Instances cache conjugacy data, structure constants, commutator
    distributions and surface counts; they are safe to share across
    threads once built (pure lookups after memoization).
    """

    def __init__(self, group: GroupTable, *,
                 work_cap: int = DEFAULT_WORK_CAP, jobs: int = 1):
        self.group = group
        self.cd = conjugacy_data(group)
        self.algebra = ClassAlgebra(group, self.cd)
        self.work_cap = work_cap
        self.jobs = jobs
        self._omega_memo: dict = {}
        self._distributions: dict = {}
        self._enumerated_tuples = 0
        self._enumeration_seconds = 0.0

    @property
    def r(self) -> int:
        return self.cd.r

    def _check_surface_key(self, genus: int, classes: Sequence[int]) -> None:
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        for c in classes:
            if not 0 <= c < self.r:
                raise ValueError(
                    f"class index {c} out of range 0..{self.r - 1}")

    # -- oracle side ---------------------------------------------------------

    def commutator_distribution(self, genus: int):
        """counts[x] = #{(a_1..a_g, b_1..b_g) : prod [a_i, b_i] = x}.

        Literal enumeration of |G|^{2g} tuples, at genus >= 2 for orders
        up to BYTE_ORDER_LIMIT.  From POOL_MIN_TUPLES tuples on, the
        outer (a_1, b_1) loop splits across ``self.jobs`` worker
        processes, at most one per CPU.  genus 0 is the empty product.
        """
        if genus in self._distributions:
            return self._distributions[genus]
        n = self.group.order
        if genus == 0:
            counts = [0] * n
            counts[self.group.identity] = 1
            self._distributions[0] = counts
            return counts

        import time
        jobs = min(self.jobs, os.cpu_count() or 1)
        started = time.perf_counter()
        mult = [list(row) for row in self.group.mult]
        inv = list(self.group.inv)
        tuples = n ** (2 * genus)
        if jobs <= 1 or tuples < POOL_MIN_TUPLES:
            counts = _distribution_chunk((mult, inv, genus, range(n)))
        else:
            chunks = []
            step = max(1, (n + jobs - 1) // jobs)
            for lo in range(0, n, step):
                chunks.append((mult, inv, genus, range(lo, min(lo + step, n))))
            ctx = get_context("fork")
            with ctx.Pool(processes=min(jobs, len(chunks))) as pool:
                partials = pool.map(_distribution_chunk, chunks)
            counts = [sum(p[i] for p in partials) for i in range(n)]
        self._enumeration_seconds += time.perf_counter() - started
        # a dropped or twice-counted batch fails here, not as a wrong count
        enumerated = sum(counts)
        if enumerated != tuples:
            raise AssertionError(
                f"genus {genus} enumeration counted {enumerated} of "
                f"{tuples} tuples")
        self._enumerated_tuples += enumerated
        self._distributions[genus] = counts
        return counts

    def surface_count_brute(self, genus: int,
                            classes: Sequence[int]) -> Fraction:
        """Oracle count by enumeration, in the given argument order."""
        self._check_surface_key(genus, classes)
        if genus >= 2 and self.group.order > BYTE_ORDER_LIMIT:
            raise WorkCapExceeded(
                f"order {self.group.order} exceeds {BYTE_ORDER_LIMIT}, the "
                f"largest the oracle enumerates at genus >= 2")
        cd = self.cd
        work = self.group.order ** (2 * genus)
        for c in classes:
            work *= cd.class_size[c]
        if work > self.work_cap:
            raise WorkCapExceeded(f"{work} tuples exceed cap {self.work_cap}")
        counts = self.commutator_distribution(genus)
        mult = self.group.mult
        # The commutator product must equal prod sigma_j, so each literal
        # sigma-tuple contributes the tuple count at its product.
        total = 0
        classes = list(classes)

        def rec(depth, acc):
            nonlocal total
            if depth == len(classes):
                total += counts[acc]
                return
            for s in cd.classes[classes[depth]]:
                rec(depth + 1, mult[acc][s])

        rec(0, self.group.identity)
        return Q(total, self.group.order)

    # -- algebra side ---------------------------------------------------------

    def surface_count(self, genus: int, classes: Sequence[int]) -> Fraction:
        """eps(e_{c_1} * ... * e_{c_n} * H^g) in the class algebra.

        H is the handle element and eps(v) = eta(v, e_0) = v_0 / |G|; the
        product stays an integer class-sum vector until that division.
        """
        key = (genus, tuple(sorted(classes)))
        cached = self._omega_memo.get(key)
        if cached is not None:
            return cached
        self._check_surface_key(genus, classes)
        alg = self.algebra
        vec = alg.unit()
        for c in key[1]:
            vec = alg.quantum_product(vec, alg.basis_vector(c))
        handle = alg.handle_element()
        for _ in range(genus):
            vec = alg.quantum_product(vec, handle)
        value = Q(vec[0], self.group.order)
        self._omega_memo[key] = value
        return value

    # -- correlators -------------------------------------------------------------

    def orbifold_correlator(self, key: CorrelatorKey) -> Fraction:
        """psi intersection number times the surface count (zero when the
        dimension constraint fails); empty correlators vanish."""
        self._check_surface_key(key.genus, key.classes)
        if any(a < 0 for a in key.levels):
            raise ValueError("descendant levels must be >= 0")
        if not key.stable:
            raise UnstableKey(f"unstable key {key}")
        n = len(key.insertions)
        if n == 0:
            return Q(0)
        if sum(key.levels) != 3 * key.genus - 3 + n:
            return Q(0)
        psi = _psi(key.genus, tuple(sorted(key.levels)))
        if not psi:
            return Q(0)
        return psi * self.surface_count(key.genus, key.classes)

    def canonical_correlator(self, genus: int, nus: Sequence[Fraction],
                             insertions: Sequence) -> Fraction:
        """Correlator of idempotent-basis insertions ((level, index), ...).

        nu^{1-g} <tau>_g when every insertion carries the same index;
        mixed indices vanish.
        """
        insertions = tuple(insertions)
        if 2 * genus - 2 + len(insertions) <= 0:
            raise UnstableKey(f"(g={genus}, n={len(insertions)}) is unstable")
        indices = {alpha for _a, alpha in insertions}
        if len(indices) != 1:
            return Q(0)
        alpha = indices.pop()
        psi = _psi(genus, tuple(sorted(a for a, _ in insertions)))
        return Q(nus[alpha]) ** (1 - genus) * psi

    # -- the potential -------------------------------------------------------------

    def potential(self, caps: SeriesCaps, *,
                  basis: str = CLASS_BASIS) -> TruncatedSeries:
        """Large phase space potential as a truncated series.

        Class basis: variables (a, class index), exact rational, monomial
        coefficient <tau_{a_1}(e_{m_1})...>_g / aut.  Canonical-rescaled
        basis: variables (a, idempotent index), r disjoint copies of the
        point potential.  Returns a new series, free to change in place.
        """
        if basis == CLASS_BASIS:
            return self.bracket_family((), caps)[()]
        if basis == CANONICAL_RESCALED:
            return self._potential_canonical(caps)
        raise ValueError(f"unknown basis {basis!r}")

    def stored_coefficient(self, target, caps: SeriesCaps) -> Fraction:
        """The class-basis potential's coefficient at ``target``, a
        (monomial M, lambda^{2g-2}) pair: <tau(M)>_g / M!.

        Raises MissingCoefficient unless the potential at ``caps`` stores
        one there, which it does exactly where that one correlator is
        nonzero inside the caps; no potential is built.
        """
        mono, lam = target
        mono = tuple(sorted(mono))
        insertions = tuple(v for v, e in mono for _ in range(e))
        genus, odd = divmod(lam + 2, 2)
        key = CorrelatorKey(genus, insertions)
        value = Q(0)
        if (not odd and 0 <= genus <= caps.genus
                and 0 < len(insertions) <= caps.degree
                and mono == mono_from_vars(insertions)
                and all(a >= 0 and 0 <= m < self.r for a, m in insertions)
                and key.stable):
            value = self.orbifold_correlator(key)
        if not value:
            raise MissingCoefficient(
                f"no stored coefficient at {mono} lambda^{lam}")
        return value / mono_factorial(mono)

    def bracket_family(self, fixed_levels: Sequence[int], caps: SeriesCaps,
                       handles: Sequence[tuple] = (),
                       node: Optional[tuple] = None,
                       lam_max: Optional[int] = None) -> dict:
        """{fixed: bracket} for every class multiset on ``fixed_levels``.

        ``fixed`` = (v_1..v_k) is a sorted tuple of (level, class) variables
        with the sorted levels ``fixed_levels``, and its bracket is the
        class-basis series d/dt_{v_1} ... d/dt_{v_k} F with each entry of
        ``handles`` glued: a level pair (i, j) applies sum_m z_m
        d/dt_{(i,m)} d/dt_{(j,m')}, a single level (a,) d/dt_{(a,0)}.  Its
        coefficient of t^M lambda^{2g-2} is one correlator over M!, so each
        bracket is generated from correlators directly: one term per
        ``class_keys`` key M whose surface count is nonzero, for free
        monomials of degree <= caps.degree and genus <= caps.genus.  Each
        glued level joins psi's levels.  A pair glues a handle H = sum_m
        z_m e_m e_m', one more genus in H^g: sum_m z_m Omega_g(m, m', C) =
        Omega_{g+1}(C) (cutting loops).  The unit e_0 adds no genus and no
        class: Omega_g(e_0, C) = Omega_g(C) (forgetting tails).  ``check
        cohft`` checks both identities, and the bracket oracle tests
        differentiate F.

        With ``node`` = (side-1 levels, side-2 levels) and no handles, a
        bracket is instead the product of two brackets contracted by the
        inverse metric: d_fixed d_{side 1} F times d_{side 2} F, the i-th
        level of side 1 paired with the i-th of side 2 and the levels left
        on the longer side paired as handles there.  One contraction joins
        the two surfaces at a separating node, which adds no genus: sum_m
        z_m Omega_{g1}(C1, m) Omega_{g2}(m', C2) = Omega_{g1+g2}(C1 + C2)
        (cutting trees); each other one is a handle.  So the coefficient of
        t^M lambda^{2(g1+g2)-4} is Omega_{g+h}(fixed classes + C(M)) P(g, L)
        / M!, g = g1 + g2, with h the handles and P of ``_node_psi`` in
        place of psi, and no product is formed.  A check built on node
        brackets then tests the point's recursion times Omega, not Omega's
        splitting identity; that rests on ``check cohft``, the
        Frobenius-table tests, the separating-node test on every
        acceptance group and the node oracle, which multiplies
        differentiated potentials.

        With ``lam_max``, only the coefficients at lambda <= lam_max are
        generated, each series keeping ``caps``: the walk stops at the
        genus that lambda^lam_max stores, so no psi or P is evaluated
        above it.  A bracket read at lambda shift s in a comparison up to
        lambda_max is generated with lam_max = lambda_max - s.

        The family shares one walk: each key's monomial, psi and M! are
        computed once and its coefficient written into every bracket.
        Every bracket is over |G| times the lcm, across the level keys, of
        psi's denominator times prod mult!, mult the multiplicities of the
        key's levels; M! divides prod mult!, so this denominator is known
        before the walk.  The potential is the one bracket of the empty
        family.
        """
        fixed_levels = tuple(sorted(fixed_levels))
        glued = fixed_levels + tuple(a for entry in handles for a in entry)
        pairs = sum(len(entry) == 2 for entry in handles)
        lam_offset = -2
        if node is not None:        # the node adds no genus, a handle one
            pairs = len(sum(node, ())) // 2 - 1
            lam_offset = -4
        walk = caps
        if lam_max is not None:
            walk = replace(caps, genus=min(caps.genus,
                                           (lam_max - lam_offset) // 2))
        order = self.group.order
        level_keys = list(self._stable_level_keys(walk, glued, node))
        scale = math.lcm(*(
            psi.denominator * math.prod(math.factorial(mult)
                                        for _a, mult in _level_blocks(levels))
            for _genus, levels, psi in level_keys))
        members = [(fixed, classes, {}) for fixed, classes, _mono, _factorial
                   in _class_multisets(fixed_levels, self.r)]
        # (genus, a key's sorted classes) -> [(terms, omega * |G|)] over the
        # brackets whose surface count omega is nonzero there, shared by
        # the keys that differ in levels only; omega * |G| is an integer
        # (see surface_count)
        rows = {}
        for genus, levels, psi in level_keys:
            lam = 2 * genus + lam_offset
            for _variables, classes, mono, factorial in _class_multisets(
                    levels, self.r):
                share, rest = divmod(scale, psi.denominator * factorial)
                if rest:
                    raise AssertionError(
                        f"denominator {scale} misses the key {mono}")
                num = psi.numerator * share
                classes = tuple(sorted(classes))
                row = rows.get((genus, classes))
                if row is None:
                    row = rows[genus, classes] = []
                    for _fixed, fixed_classes, terms in members:
                        omega = self.surface_count(genus + pairs,
                                                   fixed_classes + classes)
                        if omega:
                            row.append((terms, omega.numerator
                                        * (order // omega.denominator)))
                # one lambda per monomial: its degree and levels fix genus
                for terms, weight in row:
                    terms[mono] = {lam: num * weight}
        return {fixed: TruncatedSeries.from_numerators(
                    caps, terms, order * scale, system=CLASS_BASIS)
                for fixed, _classes, terms in members}

    def _potential_canonical(self, caps):
        out = TruncatedSeries(caps, system=CANONICAL_RESCALED)
        for genus, levels, psi in self._stable_level_keys(caps):
            for alpha in range(self.r):
                key = mono_from_vars((a, alpha) for a in levels)
                out.add_term(key, 2 * genus - 2, psi.numerator,
                             psi.denominator * mono_factorial(key))
        return out

    def class_keys(self, caps, fixed_levels=()):
        """(genus, variables, psi, monomial, M!) for every class-basis key
        of the box.

        ``variables`` is the sorted tuple of free (level, class) pairs: a
        level key of ``_stable_level_keys`` with one class multiset per
        block of equal levels, each combination once; ``monomial`` is
        their monomial M.  The key's correlator, with fixed insertions of
        levels ``fixed_levels`` and classes C, is psi * surface_count(genus,
        C + its classes); its potential coefficient divides that by M!.
        The walk visits keys whose surface count vanishes too.
        """
        for genus, levels, psi in self._stable_level_keys(caps, fixed_levels):
            for variables, _classes, mono, factorial in _class_multisets(
                    levels, self.r):
                yield genus, variables, psi, mono, factorial

    def _stable_level_keys(self, caps, fixed_levels=(), node=None):
        """(genus, free levels, psi value) for every level key with psi != 0.

        The free levels are a sorted tuple of at most caps.degree levels
        summing to 3g - 3 + n minus the fixed levels, for genus
        <= caps.genus and stable (g, n); psi is that of the free levels
        merged with ``fixed_levels``.  Classes are assigned by
        ``class_keys``.

        With ``node`` = (side-1 levels, side-2 levels), two surfaces are
        joined at a node, the fixed levels on side 1: the value is
        ``_node_psi``'s P in place of psi, genus is g1 + g2, and two
        surfaces take 3 more from the levels' sum than one.
        """
        glued, surfaces = fixed_levels, 1
        if node is not None:
            glued, surfaces = fixed_levels + sum(node, ()), 2
        k = len(glued)
        for genus in range(caps.genus + 1):
            for n in range(caps.degree + 1):
                if 2 * genus - 2 + k + n <= 0:
                    continue
                target = 3 * genus - 3 * surfaces + k + n - sum(glued)
                if target < 0:
                    continue
                for levels in _partitions(target, n):
                    if node is None:
                        psi = _psi(genus, tuple(sorted(glued + levels)))
                    else:
                        psi = _node_psi(genus, fixed_levels + node[0],
                                        node[1], levels)
                    if psi:
                        yield genus, levels, psi

    # -- tensor structure ---------------------------------------------------------

    def profile(self) -> dict:
        secs = max(self._enumeration_seconds, 1e-9)
        return {
            "enumerated_tuples": self._enumerated_tuples,
            "enumeration_seconds": self._enumeration_seconds,
            "tuples_per_second": self._enumerated_tuples / secs,
        }


def _partitions(total: int, parts: int):
    """Sorted tuples of ``parts`` nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining, slots, low):
        if slots == 1:
            if low <= remaining:
                yield (remaining,)
            return
        # the later parts are >= first, so first <= remaining / slots
        for first in range(low, remaining // slots + 1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(total, parts, 0)


def _level_blocks(levels: tuple):
    """Run-length encode a sorted level tuple."""
    return [(level, len(list(run))) for level, run in groupby(levels)]


def _class_multisets(levels: tuple, r: int) -> list:
    """(variables, classes, monomial, M!) for each choice of one multiset
    of the r classes per block of equal ``levels``, each combination once:
    ``variables`` the sorted (level, class) pairs and ``classes`` their
    classes in that order, pieced together block by block."""
    keys = [((), (), (), 1)]
    for level, mult in _level_blocks(levels):
        block = _class_block(level, mult, r)
        keys = [(v + bv, c + bc, m + bm, f * bf) for v, c, m, f in keys
                for bv, bc, bm, bf in block]
    return keys


_CLASS_BLOCKS: dict = {}


def _class_block(level: int, mult: int, r: int) -> tuple:
    """(variables, classes, monomial, M!) for each multiset of ``mult`` of
    the r classes at one level, built once per (level, mult, r)."""
    key = (level, mult, r)
    block = _CLASS_BLOCKS.get(key)
    if block is None:
        block = []
        for chosen in combinations_with_replacement(range(r), mult):
            mono = tuple(((level, c), len(list(run)))
                         for c, run in groupby(chosen))
            block.append((tuple((level, c) for c in chosen), chosen, mono,
                          math.prod(math.factorial(e) for _v, e in mono)))
        block = _CLASS_BLOCKS[key] = tuple(block)
    return block


# -- product groups ------------------------------------------------------------

def product_class_map(g1: GroupTable, g2: GroupTable):
    """Map (class in G, class in H) -> class in G x H, plus the theories.

    Classes of a direct product are exactly pairs of classes, matched via
    representatives.
    """
    prod = direct_product(g1, g2)
    cd1, cd2, cdp = conjugacy_data(g1), conjugacy_data(g2), conjugacy_data(prod)
    mapping = {}
    for k1 in range(cd1.r):
        for k2 in range(cd2.r):
            x = cd1.representative[k1] * g2.order + cd2.representative[k2]
            mapping[(k1, k2)] = cdp.class_of[x]
    if len(set(mapping.values())) != cd1.r * cd2.r:
        raise AssertionError("product classes do not split as pairs")
    return prod, mapping


def tensor_omega_check(g1: GroupTable, g2: GroupTable, *, genus_max: int = 2,
                       n_max: int = 3) -> dict:
    """Verify multiplicativity of surface counts over a direct product.

    Checks Omega^{GxH}_g((c_1, d_1), ...) = Omega^G_g(c) * Omega^H_g(d)
    exactly for every class tuple of size <= n_max and genus <= genus_max.
    """
    prod, mapping = product_class_map(g1, g2)
    t1 = OrbifoldTheory(g1)
    t2 = OrbifoldTheory(g2)
    tp = OrbifoldTheory(prod)
    checked = 0
    mismatches = []
    pair_list = sorted(mapping)
    for genus in range(genus_max + 1):
        for n in range(n_max + 1):
            for pairs in combinations_with_replacement(pair_list, n):
                lhs = tp.surface_count(genus, tuple(mapping[p] for p in pairs))
                rhs = t1.surface_count(genus, tuple(p[0] for p in pairs)) \
                    * t2.surface_count(genus, tuple(p[1] for p in pairs))
                checked += 1
                if lhs != rhs:
                    mismatches.append({
                        "genus": genus,
                        "pairs": [list(p) for p in pairs],
                        "product": rat_str(lhs),
                        "factors": rat_str(rhs),
                    })
    return {"checked": checked, "mismatches": mismatches,
            "passed": not mismatches}
