"""Graded sequences of valuation ideals attached to an exceptional curve.

The ideals of functions vanishing to order >= m along a curve E of the
top model are generated in degree m0 (Zariski's unloading; Lipman 1969),
where the ideal is m0·dstar: dstar is E's column of M⁻¹ normalized at E,
the vector with dstar[E] = 1 numerically trivial against every other
curve.  Each curve keeps the primitive positive integer vector
w = m0·dstar and reads every invariant from it: m0 = w[E], dstar as the
Fractions w/w[E], and the valuation ideal of degree m, unloaded from
⌈m·dstar⌉.

w is solved on M's dual graph, a tree, by one integer elimination rooted
at E, the same over a smooth and a du Val base: up the tree, the
determinant of -M on each subtree; down the tree, E's column of adj(-M),
whose entry at a curve v is det(-M) on the tree less the path from E to
v (the path-deletion cofactor formula); w is that column over its gcd.
It takes O(n) integer operations.  Unloading m0·E from scratch computes
w independently and is its oracle in the test harness and the theorem
sweep.  Products with M read the same graph
(:func:`germval.germ.intersect`); ``germ.intersection_matrix`` is only a
dense view, built per call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import germ
from .errors import NotAntinef


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


def _column(c: germ.Cluster, e: int) -> tuple[int, ...]:
    """E's column w = m0·dstar, solved with no product by M: in the sweep,
    model_stability's certificate is each column's one product, and the
    tests compare columns with a dense solve."""
    self_int, nbrs = c._self, c._nbrs
    n = len(self_int)
    # Root the dual graph, a tree, at E; each curve comes after its parent.
    parent = [-1] * n
    parent[e] = e
    order = [e]
    for v in order:
        for u in nbrs[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    assert len(order) == n, "the dual graph must be connected"
    # Up the tree: det[v] is det(-M) on v's subtree and kids[v] the product
    # of det over v's children; expanding along v gives
    # det[v] = -self[v]·kids[v] - cross[v], where cross[v] is the sum of
    # kids[u]·kids[v]/det[u] over the children u, gathered child by child.
    det, kids, cross = [0] * n, [1] * n, [0] * n
    for v in reversed(order):
        d = det[v] = -self_int[v] * kids[v] - cross[v]
        assert d > 0, "-M must be positive definite"
        if v != e:
            p = parent[v]
            cross[p] = cross[p] * d + kids[v] * kids[p]
            kids[p] *= d
    # Down the tree: x = adj(-M)·e_E.  x[v] is det(-M) on the tree less the
    # path from E to v, the product of det over the subtrees hanging off it.
    x = [0] * n
    x[e] = kids[e]
    for v in order[1:]:
        x[v] = x[parent[v]] // det[v] * kids[v]
    g = gcd(*x)
    return tuple(v // g for v in x)


def fingen_ideal(c: germ.Cluster, e: int) -> tuple[int, ...]:
    """m0·dstar: E's column of M⁻¹ as a primitive positive integer vector,
    the divisor of E's valuation ideal in degree m0, which is its entry at
    E.  Kept on the cluster."""
    _check_curve(c, e)
    w = c._dstar.get(e)
    if w is None:
        w = c._dstar[e] = _column(c, e)
    return w


def asymptotic_multiplicities(c: germ.Cluster, e: int) -> tuple[Fraction, ...]:
    """Asymptotic multiplicity of the graded sequence of E at every curve:
    the unique x with x[e] = 1 and (M.x)[j] = 0 for every j != e, as the
    Fractions fingen_ideal / m0; the CLI prints it off the integer column."""
    w = fingen_ideal(c, e)
    return tuple(Fraction(v, w[e]) for v in w)


def unload(c: germ.Cluster, z) -> tuple[int, ...]:
    """Antinef closure: the minimal integral divisor D >= Z with
    D.E_j <= 0 for every curve j.

    While some curve meets the divisor positively, the divisor is bumped
    by the smallest multiple of that curve that makes the product
    nonpositive; negative definiteness guarantees termination.  Each bump
    stays below the least antinef divisor >= Z, so their order does not
    matter.  A bump raises only its neighbours' products, and only a bump
    lowers one, so a worklist lists each positive curve once.
    """
    d = _int_vector(c, z)
    prod = germ.intersect(c, d)
    self_int, nbrs = c._self, c._nbrs
    todo = [j for j, p in enumerate(prod) if p > 0]
    while todo:
        j = todo.pop()
        t = -(-prod[j] // -self_int[j])  # ceil(prod[j] / -E_j.E_j)
        d[j] += t
        prod[j] += t * self_int[j]
        for i in nbrs[j]:
            prod[i] += t
            if 0 < prod[i] <= t:  # positive since this bump
                todo.append(i)
    return tuple(d)


def valuation_ideal(c: germ.Cluster, e: int, m: int) -> tuple[int, ...]:
    """Divisor of the ideal of functions vanishing to order >= m along E:
    the antinef closure of m times the curve.  Every antinef D with
    D[e] >= m is >= m·dstar (F = D - m·dstar is antinef off E with
    F[e] >= 0, so F⁻·F⁻ >= 0 forces F⁻ = 0), so unloading starts at
    ⌈m·dstar⌉ and its bumps do not grow with m."""
    _check_curve(c, e)
    if m < 1:
        raise ValueError("m must be >= 1")
    w = fingen_ideal(c, e)
    return unload(c, [-(-m * v // w[e]) for v in w])


def fingen_degree(c: germ.Cluster, e: int) -> int:
    """Least m whose valuation ideal is exactly m·dstar, the degree that
    generates the graded sequence: m·dstar is integral exactly for the
    multiples of w[e] for the stored w = m0·dstar, and at w[e] the ideal
    is w (Zariski's unloading, checked by the oracle_equivalence suite
    and the tests)."""
    return fingen_ideal(c, e)[e]


def rees_valuations(c: germ.Cluster, d) -> frozenset[int]:
    """Curves not contracted on the blowup of the ideal of the antinef
    divisor d: exactly those meeting d strictly negatively."""
    dv = _int_vector(c, d)
    if all(v == 0 for v in dv):
        raise ValueError("zero divisor has no Rees valuations")
    prod = germ.intersect(c, dv)
    bad = [j for j, p in enumerate(prod) if p > 0]
    if bad:
        raise NotAntinef(f"divisor meets curve {bad[0]} positively")
    return frozenset(j for j, p in enumerate(prod) if p < 0)
