"""Truncated multivariate series in descendant variables.

A variable is a pair (a, m): descendant level a >= 0 and basis slot m.
Coefficients are Laurent polynomials in the genus parameter lambda with
even exponents only.  Exponent 2g-2 carries the genus-g part.  Monomials
are capped by total degree and lambda exponents by 2*genus_cap - 2, the
only lambda truncation: a genus expansion is bounded below by itself.
Levels are not capped: in a potential at degree D and genus G the
dimension constraint sum a_i = 3g-3+n already bounds them by 3G-3+D.

Values are exact: a series stores integer numerators over one positive
integer denominator of its own, so every loop here runs on ints; no
float enters a series.  Values go in as an int or a Fraction (a float
raises TypeError), and come out as a normalised Fraction built only where
one is read: ``coefficient``, ``iter_terms`` and ``to_json_list``.

Truncation contract: a series keeps every term its caps allow and records
no degree up to which it is exact.  The derivative of a series capped at
degree D is exact only up to degree D-1, so each constraint check in
``virasoro`` states the region it compares.  Genus truncation loses
terms that lambda^-2 factors would bring back below the ceiling; see
``exponential`` for the genus padding that makes exp exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .util import rat_str


class CapMismatch(Exception):
    pass


class PreconditionViolated(Exception):
    pass


@dataclass(frozen=True)
class SeriesCaps:
    degree: int   # max total monomial degree
    genus: int    # lambda exponents stored up to 2*genus - 2

    @property
    def lam_ceiling(self) -> int:
        return 2 * self.genus - 2


# A monomial is a sorted tuple of ((level, slot), exponent) pairs.

def mono_from_vars(pairs: Iterable) -> tuple:
    acc = {}
    for v in pairs:
        acc[v] = acc.get(v, 0) + 1
    return tuple(sorted(acc.items()))


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mono_degree(m: tuple) -> int:
    return sum(e for _, e in m)


def mono_factorial(m: tuple) -> int:
    """M! = prod of the exponents' factorials, the symmetry factor of t^M."""
    return math.prod(math.factorial(e) for _, e in m)


def _ratio(value) -> tuple:
    """(numerator, denominator > 0) of an int or Fraction value."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"series values are exact, not {type(value).__name__}")


def _nonzero(level: dict) -> dict:
    """level without its zero numerators and the monomials left empty."""
    out = {}
    for mono, lc in level.items():
        kept = {lam: c for lam, c in lc.items() if c}
        if kept:
            out[mono] = kept
    return out


def _by_degree(terms: dict) -> dict:
    """{degree: [(monomial, lambda coefficients, lowest lambda)]}."""
    out = {}
    for mono, lc in terms.items():
        out.setdefault(mono_degree(mono), []).append((mono, lc, min(lc)))
    return out


def _products(level: dict, left: list, right: list, lam_cap: int,
              factor: int = 1):
    """level[m1 m2][l1 + l2] += factor c1 c2 over the terms of ``left`` and
    ``right`` (lists of ``_by_degree``), for every l1 + l2 <= lam_cap; a
    pair whose lowest exponents already exceed lam_cap is skipped."""
    for m1, lc1, low1 in left:
        room = lam_cap - low1
        for m2, lc2, low2 in right:
            if low2 > room:
                continue
            mono = mono_mul(m1, m2)
            slot = level.get(mono)
            if slot is None:
                slot = level[mono] = {}
            for l1, c1 in lc1.items():
                c1 *= factor
                for l2, c2 in lc2.items():
                    lam = l1 + l2
                    if lam <= lam_cap:
                        slot[lam] = slot.get(lam, 0) + c1 * c2


class TruncatedSeries:
    """terms: {monomial: {lambda exponent: int numerator}} over den > 0."""

    __slots__ = ("caps", "system", "terms", "den")
    __hash__ = None

    def __init__(self, caps: SeriesCaps, *, system: Optional[str] = None):
        self.caps = caps
        self.system = system
        self.terms = {}
        self.den = 1

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, caps, value, **kw):
        """value * lambda^0, empty at genus cap 0 (ceiling lambda^-2)."""
        s = cls(caps, **kw)
        if 0 <= caps.lam_ceiling:
            s.add_term((), 0, value)
        return s

    @classmethod
    def from_monomial(cls, caps, mono, value, *, lam: int = 0, **kw):
        if lam % 2 != 0:
            raise ValueError("lambda exponents must be even")
        mono = tuple(sorted(mono))
        s = cls(caps, **kw)
        if mono_degree(mono) <= caps.degree and lam <= caps.lam_ceiling:
            s.add_term(mono, lam, value)
        return s

    # -- bookkeeping ----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.caps != other.caps:
            raise CapMismatch(f"{self.caps} vs {other.caps}")

    def _widen(self, den: int) -> int:
        """Make den divide self.den, rescaling the numerators at most once;
        returns self.den // den."""
        if self.den % den:
            k = den // math.gcd(self.den, den)
            for lc in self.terms.values():
                for lam in lc:
                    lc[lam] *= k
            self.den *= k
        return self.den // den

    def add_term(self, mono, lam, value, den: int = 1):
        """self += value / den * lambda^lam * mono, in place; mono is
        sorted, value an int or Fraction and den a positive int."""
        num, vden = _ratio(value)
        if not num:
            return
        c = num * self._widen(vden * den)
        lc = self.terms.get(mono)
        if lc is None:
            self.terms[mono] = {lam: c}
        else:
            nv = lc.get(lam, 0) + c
            if nv:
                lc[lam] = nv
            else:
                del lc[lam]
                if not lc:
                    del self.terms[mono]

    def coefficient(self, mono, lam: int) -> Fraction:
        mono = tuple(sorted(mono))
        return Fraction(self.terms.get(mono, {}).get(lam, 0), self.den)

    def iter_terms(self):
        den = self.den
        for mono, lc in self.terms.items():
            for lam, c in lc.items():
                yield mono, lam, Fraction(c, den)

    def support(self) -> set:
        """The (monomial, lambda) positions of the nonzero coefficients."""
        return {(m, lam) for m, lc in self.terms.items() for lam in lc}

    def __eq__(self, other):
        """Same caps and the same value at every position."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.caps == other.caps
                and set(self.iter_terms()) == set(other.iter_terms()))

    # -- ring operations ------------------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.scale(1).iadd(other)

    def iadd(self, other: "TruncatedSeries", value=1, *,
             lam_shift: int = 0) -> "TruncatedSeries":
        """self += value * lambda^lam_shift * other, in place; returns self.

        Terms the shift lifts above the lambda ceiling are dropped.  Same
        result as ``self.add(other.scale(value))`` when lam_shift is 0,
        without copying the accumulated series.
        """
        self._check_compatible(other)
        if lam_shift % 2 != 0:
            raise ValueError("lambda shift must be even")
        num, den = _ratio(value)
        if not num or not other.terms:
            return self
        if other is self:
            other = other.scale(1)
        factor = num * self._widen(den * other.den)
        ceiling = self.caps.lam_ceiling
        terms = self.terms
        for mono, lc in other.terms.items():
            slot = terms.get(mono)
            if slot is None:
                slot = terms[mono] = {}
            for lam, c in lc.items():
                lam += lam_shift
                if lam <= ceiling:
                    nv = slot.get(lam, 0) + c * factor
                    if nv:
                        slot[lam] = nv
                    else:
                        del slot[lam]
            if not slot:
                del terms[mono]
        return self

    def scale(self, value) -> "TruncatedSeries":
        """Multiply by value; lambda shifts go through ``iadd``."""
        return TruncatedSeries(self.caps, system=self.system).iadd(self, value)

    def multiply(self, other: "TruncatedSeries", *,
                 max_degree: Optional[int] = None) -> "TruncatedSeries":
        """Truncated product.

        Monomials exceeding the degree cap and lambda exponents above the
        ceiling are dropped; every lambda exponent below it is kept, so
        two genus-0 terms give a lambda^-4 term.  ``max_degree`` tightens
        the output degree below the cap.
        """
        self._check_compatible(other)
        dcap = self.caps.degree if max_degree is None else min(
            max_degree, self.caps.degree)
        level = {}
        right = _by_degree(other.terms)
        for d1, left in _by_degree(self.terms).items():
            for d2, bucket in right.items():
                if d1 + d2 <= dcap:
                    _products(level, left, bucket, self.caps.lam_ceiling)
        out = TruncatedSeries(self.caps, system=self.system)
        out.terms = _nonzero(level)
        out.den = self.den * other.den
        return out

    def multiply_by_monomial(self, mono, value, *,
                             lam_shift: int = 0) -> "TruncatedSeries":
        """Multiply by value * lambda^lam_shift * monomial; a shift above
        the lambda ceiling gives zero."""
        return self.multiply(TruncatedSeries.from_monomial(
            self.caps, mono, value, lam=lam_shift, system=self.system))

    # -- calculus -------------------------------------------------------------

    def partial_derivative(self, var) -> "TruncatedSeries":
        """d/dt_var; lowering one exponent of a sorted monomial keeps it
        sorted, and distinct monomials stay distinct."""
        out = TruncatedSeries(self.caps, system=self.system)
        out.den = self.den
        terms = out.terms
        for mono, lc in self.terms.items():
            for i, (v, e) in enumerate(mono):
                if v == var:
                    reduced = mono[:i] + ((v, e - 1),) * (e > 1) + mono[i + 1:]
                    terms[reduced] = {lam: c * e for lam, c in lc.items()}
                    break
        return out

    def second_partial(self, v1, v2) -> "TruncatedSeries":
        return self.partial_derivative(v1).partial_derivative(v2)

    def vector_field(self, moves, max_degree: Optional[int] = None
                     ) -> "TruncatedSeries":
        """sum c t_y d/dt_x applied to the terms of degree <= max_degree,
        over the (y, c) in moves(x) for each variable x of a term.

        The move coefficients go over their common denominator in one
        pass over the distinct variables."""
        dcap = self.caps.degree if max_degree is None else max_degree
        kept = [(mono, lc) for mono, lc in self.terms.items()
                if mono_degree(mono) <= dcap]
        ratios = {}
        for mono, _lc in kept:
            for var, _e in mono:
                if var not in ratios:
                    ratios[var] = [(y, _ratio(c)) for y, c in moves(var)]
        scale = math.lcm(*(d for row in ratios.values() for _y, (_n, d) in row))
        int_moves = {var: [(y, n * (scale // d)) for y, (n, d) in row]
                     for var, row in ratios.items()}
        level = {}
        for mono, lc in kept:
            for var, e in mono:
                for new_var, c in int_moves[var]:
                    new_mono = mono
                    if new_var != var:
                        acc = dict(mono)
                        acc[var] -= 1
                        acc[new_var] = acc.get(new_var, 0) + 1
                        new_mono = tuple(sorted(p for p in acc.items() if p[1]))
                    slot = level.setdefault(new_mono, {})
                    for lam, v in lc.items():
                        slot[lam] = slot.get(lam, 0) + v * e * c
        out = TruncatedSeries(self.caps, system=self.system)
        out.terms = _nonzero(level)
        out.den = self.den * scale
        return out

    def exponential(self, genus: Optional[int] = None) -> "TruncatedSeries":
        """exp of a series with zero constant term, computed degree by
        degree via d*Z_d = sum k*S_k*Z_{d-k}, each Z_d over one
        denominator; lambda exponents above the ceiling are dropped along
        the way.

        Negative-lambda terms must have degree >= 3, which makes the drop
        exact under genus padding.  For a genus expansion (no exponent
        below -2) capped at degree D, the coefficients at lambda <= 2G-2
        are those of the untruncated exp when the series is built at genus
        G + (D-1)//3.  A product landing there with z lambda^-2 factors
        has degree >= 3z, plus one if it has any other factor, so then
        z <= (D-1)//3; each partial product of it, each factor included,
        lies at lambda <= 2G-2 + 2z, inside the padded ceiling.  Products
        of lambda^-2 factors alone stay below zero.

        ``genus`` is that G, when only lambda <= 2G-2 is read: the rest of
        degree D takes at most (D-d)//3 lambda^-2 factors, so Z_d keeps
        lambda <= 2G-2 + 2*((D-d)//3) alone.  The series must then be a
        genus expansion.  None keeps every exponent up to the ceiling.
        """
        if () in self.terms:
            raise PreconditionViolated("exp needs zero constant term")
        for mono, lc in self.terms.items():
            if any(lam < 0 for lam in lc) and mono_degree(mono) < 3:
                raise PreconditionViolated(
                    "negative-lambda term of degree < 3")
            if genus is not None and min(lc) < -2:
                raise PreconditionViolated("not a genus expansion")
        dcap = self.caps.degree
        ceiling = self.caps.lam_ceiling
        read = ceiling if genus is None else 2 * genus - 2

        s_by_deg = _by_degree(self.terms)
        z_by_deg = {0: ([((), {0: 1}, 0)], 1)}     # degree -> (terms, den)
        for d in range(1, dcap + 1):
            lam_cap = min(ceiling, read + 2 * ((dcap - d) // 3))
            parts = [(k, sk, z_by_deg[d - k]) for k, sk in s_by_deg.items()
                     if k <= d and d - k in z_by_deg]
            common = math.lcm(*(zden for _k, _sk, (_zk, zden) in parts))
            level = {}
            for k, sk, (zk, zden) in parts:
                _products(level, sk, zk, lam_cap, k * (common // zden))
            cleaned = _nonzero(level)
            if cleaned:
                den = common * self.den * d
                g = math.gcd(den, *(c for lc in cleaned.values()
                                    for c in lc.values()))
                z_by_deg[d] = ([(mono, {lam: c // g for lam, c in lc.items()},
                                 min(lc)) for mono, lc in cleaned.items()],
                               den // g)
        out = TruncatedSeries(self.caps, system=self.system)
        out.den = math.lcm(*(zden for _zk, zden in z_by_deg.values()))
        for zk, zden in z_by_deg.values():
            k = out.den // zden
            for mono, lc, _low in zk:
                out.terms[mono] = {lam: c * k for lam, c in lc.items()}
        return out

    def truncated_to_degree(self, degree: int) -> "TruncatedSeries":
        """Drop monomials above `degree`."""
        out = TruncatedSeries(self.caps, system=self.system)
        out.den = self.den
        for mono, lc in self.terms.items():
            if mono_degree(mono) <= degree:
                out.terms[mono] = dict(lc)
        return out

    # -- serialization ------------------------------------------------------------

    def to_json_list(self):
        rows = []
        for mono in sorted(self.terms):
            lc = self.terms[mono]
            for lam in sorted(lc):
                rows.append({
                    "monomial": [[v[0], v[1], e] for v, e in mono],
                    "lambda": lam,
                    "coeff": rat_str(Fraction(lc[lam], self.den)),
                })
        return rows

    def __repr__(self):
        return (f"TruncatedSeries({len(self.terms)} monomials,"
                f" caps={self.caps})")
