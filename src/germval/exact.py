"""Exact rationals: parsing and formatting.

Rational numbers are `fractions.Fraction` values (arbitrary precision,
always in lowest terms with positive denominator).  No floating point is
used anywhere, and the package does no dense linear algebra: every solve
with the intersection form runs on its dual graph (see
:mod:`germval.valuation`).
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def format_rational(x: Fraction | int) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1 (an int has
    denominator 1)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" in ASCII digits, with an optional sign (inverse
    of :func:`format_rational`).  Decimals, exponents, underscores and
    other Unicode digits are refused, so no input asks for an unbounded
    power of ten."""
    t = s.strip()
    try:
        if not _RATIONAL.fullmatch(t):
            raise ValueError
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc
