"""Graded sequences of valuation ideals attached to an exceptional curve.

For a curve E on the top model of a cluster, the functions here compute:

* the asymptotic multiplicity vector dstar of the graded sequence of
  ideals of functions vanishing to order at least m along E: the unique
  vector with dstar[E] = 1 that is numerically trivial against every
  other curve, that is, E's column of M⁻¹ normalized at E;
* individual valuation ideals, realized as antinef closures by the
  classical unloading procedure;
* the degree in which the sequence is finitely generated;
* Rees valuations of antinef divisors.

dstar comes from the proximity factorisation M = P·D·Pᵀ described in
:mod:`germval.germ`, as M⁻¹e = P⁻ᵀ·D⁻¹·P⁻¹e: two integer triangular passes
over the step references around the Dynkin inverse, in O(n + Σ|refs|)
after the per-label inverse.  Each cluster keeps the columns it has
computed.  The unloading route computes the same objects independently
and is the oracle for dstar and the finite-generation degree in the test
harness and the theorem sweep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from . import germ
from .errors import NotAntinef
from .exact import invert_symmetric

ExcDivisor = tuple  # coefficients per curve id; ints or Fractions, >= 0


def _check_curve(c: germ.Cluster, e: int) -> None:
    if not 0 <= e < c.curve_count():
        raise ValueError(f"no curve {e} (cluster has {c.curve_count()} curves)")


def _int_vector(c: germ.Cluster, z) -> list[int]:
    n = c.curve_count()
    if len(z) != n:
        raise ValueError(f"divisor has {len(z)} entries, cluster has {n} curves")
    out = []
    for v in z:
        if type(v) is not int:
            f = Fraction(v)
            if f.denominator != 1:
                raise ValueError(f"divisor entry {v} is not an integer")
            v = int(f)
        if v < 0:
            raise ValueError(f"divisor entry {v} is negative")
        out.append(v)
    return out


@cache
def _dynkin_inverse(label: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Inverse of the Dynkin block of a du Val base as integer numerators
    over one positive common denominator.  Cached per label, so bounded
    by the labels in use."""
    inv = invert_symmetric(germ._dynkin_matrix(label))
    den = lcm(*(v.denominator for row in inv for v in row))
    return tuple(tuple(int(v * den) for v in row) for row in inv), den


def _column(c: germ.Cluster, e: int) -> tuple[Fraction, ...]:
    rank, n = c.base.rank(), c.curve_count()
    refs = [germ._step_refs(s) for s in c.steps]
    # y = P⁻¹·e_e by back substitution: y_r = [r = e] + sum of y_j over
    # the steps j whose center lies on curve r.
    y = [0] * n
    y[e] = 1
    for j in range(e, rank - 1, -1):
        if y[j]:
            for r in refs[j - rank]:
                y[r] += y[j]
    # x = den·D⁻¹·y, which stays integral: D⁻¹ is -1 on the step curves.
    if rank:
        num, den = _dynkin_inverse(c.base.dynkin)
        x = [sum(a * b for a, b in zip(row, y)) for row in num] + [-den * v for v in y[rank:]]
    else:
        x = [-v for v in y]
    # x = P⁻ᵀ·x by forward substitution; now x = den·M⁻¹·e_e.
    for j in range(rank, n):
        for r in refs[j - rank]:
            x[j] += x[r]
    assert all(v < 0 for v in x), "asymptotic multiplicities must be positive"
    assert sum(a * b for a, b in zip(c._matrix[e], x)) > 0
    xe = x[e]
    return tuple(Fraction(v, xe) for v in x)


def asymptotic_multiplicities(c: germ.Cluster, e: int) -> tuple[Fraction, ...]:
    """Asymptotic multiplicity of the graded sequence of E at every curve:
    the unique x with x[e] = 1 and (M.x)[j] = 0 for every j != e.

    Realized as the e-th column of M⁻¹ normalized by its diagonal entry,
    computed through the proximity factorisation and kept on the cluster.
    Entries are all positive and the entry at e is exactly 1.
    """
    _check_curve(c, e)
    x = c._dstar.get(e)
    if x is None:
        x = c._dstar[e] = _column(c, e)
    return x


def unload(c: germ.Cluster, z) -> tuple[int, ...]:
    """Antinef closure: the minimal integral divisor D >= Z with
    D.E_j <= 0 for every curve j.

    While some curve meets the divisor positively, the divisor is bumped
    by the smallest multiple of that curve that makes the product
    nonpositive; negative definiteness guarantees termination.
    """
    m = germ.intersection_matrix(c)
    d = _int_vector(c, z)
    n = len(d)
    prod = [0] * n
    for i in range(n):
        di = d[i]
        if di:
            row = m[i]
            for j in range(n):
                prod[j] += di * row[j]
    while True:
        for j in range(n):
            if prod[j] > 0:
                t = -(-prod[j] // -m[j][j])  # ceil(prod[j] / -m[j][j])
                d[j] += t
                row = m[j]
                for i in range(n):
                    prod[i] += t * row[i]
                break
        else:
            return tuple(d)


def valuation_ideal(c: germ.Cluster, e: int, m: int) -> tuple[int, ...]:
    """Divisor of the ideal of functions vanishing to order >= m along E:
    the antinef closure of m times the curve."""
    _check_curve(c, e)
    if m < 1:
        raise ValueError("m must be >= 1")
    z = [0] * c.curve_count()
    z[e] = m
    return unload(c, z)


def fingen_degree(c: germ.Cluster, e: int) -> int:
    """Least m whose valuation ideal is exactly m * dstar; the graded
    sequence is then generated in degree m.

    m * dstar is integral only when the lcm of the dstar denominators
    divides m, and at that lcm the valuation ideal is m * dstar (Zariski's
    unloading), so the degree is the lcm.  The unloading equality is
    checked by the oracle_equivalence suite and the tests.
    """
    return lcm(*(v.denominator for v in asymptotic_multiplicities(c, e)))


def rees_valuations(c: germ.Cluster, d) -> frozenset[int]:
    """Curves not contracted on the blowup of the ideal of the antinef
    divisor d: exactly those meeting d strictly negatively."""
    m = germ.intersection_matrix(c)
    dv = _int_vector(c, d)
    if all(v == 0 for v in dv):
        raise ValueError("zero divisor has no Rees valuations")
    n = len(dv)
    prod = [sum(m[j][i] * dv[i] for i in range(n)) for j in range(n)]
    bad = [j for j in range(n) if prod[j] > 0]
    if bad:
        raise NotAntinef(f"divisor meets curve {bad[0]} positively")
    return frozenset(j for j in range(n) if prod[j] < 0)
