"""Exact rationals: parsing, formatting and one symmetric inverse.

Rational numbers are `fractions.Fraction` values (arbitrary precision,
always in lowest terms with positive denominator).  No floating point is
used anywhere.

The only dense linear algebra in the package is the inverse of a
du Val base's Dynkin matrix, taken once per label; every other solve goes
through the proximity factorisation of the intersection form (see
:mod:`germval.germ`).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrix


def format_rational(x: Fraction | int) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1 (an int has
    denominator 1)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (inverse of :func:`format_rational`)."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def invert_symmetric(m) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a nonsingular symmetric integer matrix.

    Fraction-free Gauss-Jordan elimination of the augmented block
    [M | I]: integer arithmetic throughout, with rationals assembled only
    at the end from the adjugate-like right block over the final pivot.
    Callers needing many solves against one matrix should invert once.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix not square")
    if any(type(v) is not int for row in m for v in row):
        raise ValueError("matrix entries must be int")
    if n == 0:
        return ()
    a = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(m)]

    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    break
            else:
                raise SingularMatrix(f"zero pivot column at {k}")
        pk = a[k][k]
        for i in range(n):
            if i == k:
                continue
            row_i, row_k = a[i], a[k]
            aik = row_i[k]
            for j in range(2 * n):
                if j != k:
                    row_i[j] = (pk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk

    det = a[n - 1][n - 1]  # all diagonal entries equal det of the matrix
    return tuple(
        tuple(Fraction(a[i][n + j], det) for j in range(n)) for i in range(n)
    )
