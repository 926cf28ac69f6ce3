"""Exact-arithmetic helpers shared across the package."""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def rat_str(x) -> str:
    """Render a rational as "p/q" with an explicit positive denominator."""
    q = Q(x)
    return f"{q.numerator}/{q.denominator}"


def double_factorial(m: int) -> int:
    """(2k-1)!! = 1*3*5*...*(2k-1) for odd m = 2k-1, with (-1)!! = 1.

    Only odd arguments >= -1 arise; anything else is a caller bug.
    """
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double factorial undefined for {m}")
    out = 1
    for k in range(1, m + 1, 2):
        out *= k
    return out


def float_str(x: float) -> str:
    """Format a float with 15 significant digits for reproducible reports."""
    return format(float(x), ".15g")
