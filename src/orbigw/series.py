"""Truncated multivariate series in descendant variables.

A variable is a pair (a, m): descendant level a >= 0 and basis slot m.
Coefficients are Laurent polynomials in the genus parameter lambda with
even exponents only and exact rational values; no float enters a
series.  Exponent 2g-2 carries the genus-g part.  Monomials
are capped by total degree and lambda exponents by 2*genus_cap - 2, the
only lambda truncation: a genus expansion is bounded below by itself.
Levels are not capped: in a potential at degree D and genus G the
dimension constraint sum a_i = 3g-3+n already bounds them by 3G-3+D.

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
from typing import Iterable, Optional

from .util import Q, rat_str


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


class TruncatedSeries:
    """terms: {monomial: {lambda exponent: coefficient}}"""

    __slots__ = ("caps", "system", "terms")

    def __init__(self, caps: SeriesCaps, *, system: Optional[str] = None,
                 terms=None):
        self.caps = caps
        self.system = system
        self.terms = {} if terms is None else terms

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, caps, value, **kw):
        """value * lambda^0, empty at genus cap 0 (ceiling lambda^-2)."""
        s = cls(caps, **kw)
        if value and 0 <= caps.lam_ceiling:
            s.terms[()] = {0: value}
        return s

    @classmethod
    def one(cls, caps, **kw):
        return cls.constant(caps, Q(1), **kw)

    @classmethod
    def from_monomial(cls, caps, mono, value, *, lam: int = 0, **kw):
        if lam % 2 != 0:
            raise ValueError("lambda exponents must be even")
        mono = tuple(sorted(mono))
        s = cls(caps, **kw)
        if value and mono_degree(mono) <= caps.degree and lam <= caps.lam_ceiling:
            s.terms[mono] = {lam: value}
        return s

    def copy(self):
        return TruncatedSeries(
            self.caps, system=self.system,
            terms={m: dict(lc) for m, lc in self.terms.items()})

    # -- bookkeeping ----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.caps != other.caps:
            raise CapMismatch(f"{self.caps} vs {other.caps}")

    def add_term(self, mono, lam, value):
        """self += value * lambda^lam * mono, in place; mono is sorted."""
        if not value:
            return
        lc = self.terms.get(mono)
        if lc is None:
            self.terms[mono] = {lam: value}
        elif lam not in lc:
            lc[lam] = value
        else:
            nv = lc[lam] + value
            if nv:
                lc[lam] = nv
            else:
                del lc[lam]
                if not lc:
                    del self.terms[mono]

    def coefficient(self, mono, lam: int):
        mono = tuple(sorted(mono))
        return self.terms.get(mono, {}).get(lam, Q(0))

    def iter_terms(self):
        for mono, lc in self.terms.items():
            for lam, c in lc.items():
                yield mono, lam, c

    def support(self):
        return {(m, lam) for m, lam, _ in self.iter_terms()}

    # -- ring operations ------------------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.copy().iadd(other)

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
        if not value:
            return self
        ceiling = self.caps.lam_ceiling
        for mono, lc in other.terms.items():
            for lam, c in lc.items():
                if lam + lam_shift <= ceiling:
                    self.add_term(mono, lam + lam_shift, c * value)
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
        out = TruncatedSeries(self.caps, system=self.system)
        if not self.terms or not other.terms:
            return out
        ceiling = self.caps.lam_ceiling
        small, big = ((self, other) if len(self.terms) <= len(other.terms)
                      else (other, self))
        big_by_degree = {}
        for mono, lc in big.terms.items():
            big_by_degree.setdefault(mono_degree(mono), []).append((mono, lc))
        for m1, lc1 in small.terms.items():
            d1 = mono_degree(m1)
            for d2, bucket in big_by_degree.items():
                if d1 + d2 > dcap:
                    continue
                for m2, lc2 in bucket:
                    mono = mono_mul(m1, m2)
                    for l1, c1 in lc1.items():
                        for l2, c2 in lc2.items():
                            lam = l1 + l2
                            if lam <= ceiling:
                                out.add_term(mono, lam, c1 * c2)
        return out

    def multiply_by_monomial(self, mono, value, *,
                             lam_shift: int = 0) -> "TruncatedSeries":
        """Multiply by value * lambda^lam_shift * monomial; a shift above
        the lambda ceiling gives zero."""
        return self.multiply(TruncatedSeries.from_monomial(
            self.caps, mono, value, lam=lam_shift, system=self.system))

    # -- calculus -------------------------------------------------------------

    def partial_derivative(self, var) -> "TruncatedSeries":
        out = TruncatedSeries(self.caps, system=self.system)
        for mono, lc in self.terms.items():
            e = dict(mono).get(var, 0)
            if not e:
                continue
            reduced = tuple(sorted((v, k - 1) if v == var else (v, k)
                                   for v, k in mono if not (v == var and k == 1)))
            for lam, c in lc.items():
                out.add_term(reduced, lam, c * e)
        return out

    def second_partial(self, v1, v2) -> "TruncatedSeries":
        return self.partial_derivative(v1).partial_derivative(v2)

    def vector_field(self, moves, max_degree: Optional[int] = None
                     ) -> "TruncatedSeries":
        """sum c t_y d/dt_x applied to the terms of degree <= max_degree,
        over the (y, c) in moves(x) for each variable x of a term."""
        dcap = self.caps.degree if max_degree is None else max_degree
        out = TruncatedSeries(self.caps, system=self.system)
        for mono, lc in self.terms.items():
            if mono_degree(mono) > dcap:
                continue
            for var, e in mono:
                for new_var, c in moves(var):
                    new_mono = mono
                    if new_var != var:
                        acc = dict(mono)
                        acc[var] -= 1
                        acc[new_var] = acc.get(new_var, 0) + 1
                        new_mono = tuple(sorted(p for p in acc.items() if p[1]))
                    for lam, v in lc.items():
                        out.add_term(new_mono, lam, v * e * c)
        return out

    def exponential(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, computed degree by
        degree via d*Z_d = sum k*S_k*Z_{d-k}; lambda exponents above the
        ceiling are dropped along the way.

        Negative-lambda terms must have degree >= 3, which makes the drop
        exact under genus padding.  For a genus expansion (no exponent
        below -2) capped at degree D, the coefficients at lambda <= 2G-2
        are those of the untruncated exp when the series is built at genus
        G + (D-1)//3.  A product landing there with z lambda^-2 factors
        has degree >= 3z, plus one if it has any other factor, so then
        z <= (D-1)//3; each partial product of it, each factor included,
        lies at lambda <= 2G-2 + 2z, inside the padded ceiling.  Products
        of lambda^-2 factors alone stay below zero.
        """
        if () in self.terms:
            raise PreconditionViolated("exp needs zero constant term")
        for mono, lc in self.terms.items():
            if any(lam < 0 for lam in lc) and mono_degree(mono) < 3:
                raise PreconditionViolated(
                    "negative-lambda term of degree < 3")
        dcap = self.caps.degree
        out = TruncatedSeries(self.caps, system=self.system)
        out.terms[()] = {0: Q(1)}

        s_by_deg = {}
        for mono, lc in self.terms.items():
            s_by_deg.setdefault(mono_degree(mono), {})[mono] = lc
        z_by_deg = {0: {(): {0: Q(1)}}}
        ceiling = self.caps.lam_ceiling
        for d in range(1, dcap + 1):
            level = {}
            for k, sk in s_by_deg.items():
                if k > d or (d - k) not in z_by_deg:
                    continue
                zk = z_by_deg[d - k]
                for m1, lc1 in sk.items():
                    for m2, lc2 in zk.items():
                        mono = mono_mul(m1, m2)
                        for l1, c1 in lc1.items():
                            for l2, c2 in lc2.items():
                                lam = l1 + l2
                                if lam > ceiling:
                                    continue
                                prev = level.setdefault(mono, {})
                                prev[lam] = prev.get(lam, 0) + c1 * c2 * k
            cleaned = {}
            for mono, lc in level.items():
                nw = {lam: c / d for lam, c in lc.items() if c}
                if nw:
                    cleaned[mono] = nw
            if cleaned:
                z_by_deg[d] = cleaned
                for mono, lc in cleaned.items():
                    out.terms[mono] = dict(lc)
        return out

    def truncated_to_degree(self, degree: int) -> "TruncatedSeries":
        """Drop monomials above `degree`."""
        out = TruncatedSeries(self.caps, system=self.system)
        for mono, lc in self.terms.items():
            if mono_degree(mono) <= degree:
                out.terms[mono] = dict(lc)
        return out

    # -- serialization ------------------------------------------------------------

    def to_json_list(self):
        rows = []
        for mono in sorted(self.terms):
            for lam in sorted(self.terms[mono]):
                rows.append({
                    "monomial": [[v[0], v[1], e] for v, e in mono],
                    "lambda": lam,
                    "coeff": rat_str(self.terms[mono][lam]),
                })
        return rows

    def __repr__(self):
        return (f"TruncatedSeries({len(self.terms)} monomials,"
                f" caps={self.caps})")

