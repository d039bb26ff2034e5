"""Log discrepancies, log canonical thresholds and minimal log
discrepancies of complete-ideal pairs on a cluster, and the one per-curve
computation, ``classify``.

``lct_ideal`` is the one minimum of the ratios (k+1)/coefficient.  E's
graded sequence is generated in degree m0 by the ideal of divisor
w = m0·dstar, so its asymptotic lct is m0·lct(w) (the limit m·lct(a_m) of
Jonsson-Mustata), and ``classify`` reads that value with its argmin and
every verdict from one ``lct_ideal`` report (computes an lct, gap, plt
over the model divisors, mld-obstruction witness).

Complete (integrally closed) ideals cosupported at the germ point are
represented by their antinef divisors on the top model, as tuples of
ints.  All values are exact rationals; the two infinities are dedicated
sentinels, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import germ, valuation
from .errors import MldMinusInfinity, NotAntinef
from .exact import format_rational, parse_rational


class _Infinity:
    """Signed infinity sentinel used only as a report value."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self) -> str:
        return "inf" if self._sign > 0 else "-inf"


PLUS_INFINITY = _Infinity(+1)
MINUS_INFINITY = _Infinity(-1)


def format_value(x) -> str:
    """Rational string, or "inf"/"-inf" for the sentinels."""
    if isinstance(x, _Infinity):
        return repr(x)
    return format_rational(x)


def complete_ideal(c: germ.Cluster, coeffs) -> tuple[int, ...]:
    """The antinef divisor of a complete ideal, validated against the
    cluster: integral, >= 0 and antinef (nonpositive against every
    curve).  The zero divisor stands for the full structure sheaf."""
    d = valuation._int_vector(c, coeffs)
    for j, p in enumerate(germ.intersect(c, d)):
        if p > 0:
            raise NotAntinef(f"ideal divisor meets curve {j} positively")
    return tuple(d)


@dataclass(frozen=True)
class PairSpec:
    ideal: tuple[int, ...]  # antinef divisor, as ``complete_ideal`` returns it
    lam: Fraction


def pair_spec(c: germ.Cluster, coeffs, lam) -> PairSpec:
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return PairSpec(complete_ideal(c, coeffs), lam)


@dataclass(frozen=True)
class LctReport:
    """Threshold value with the set of curves attaining it."""

    value: Fraction | _Infinity
    argmin: frozenset[int]


@dataclass(frozen=True)
class Classification:
    """The per-curve record of ``classify``; ``argmin`` lists every model
    curve attaining ``lct``."""

    curve: int
    verdict: str  # "ComputesLct" | "MldObstructed" | "Indeterminate"
    witness: int | None
    lct: Fraction
    gap: Fraction
    argmin: frozenset[int]


def log_discrepancy(c: germ.Cluster, p: PairSpec, f: int) -> Fraction:
    """k + 1 - lambda * (ideal coefficient at the curve)."""
    valuation._check_curve(c, f)
    k = germ.canonical_vector(c)
    return Fraction(k[f] + 1) - p.lam * p.ideal[f]


def lct_ideal(c: germ.Cluster, d: tuple[int, ...]) -> LctReport:
    """Log canonical threshold of the complete ideal of antinef divisor
    ``d``: the minimum of (k+1)/coefficient over the curves in the
    divisor's support, or infinity for the structure sheaf."""
    k = germ.canonical_vector(c)
    argmin: list[int] = []
    num, den = 1, 0  # the least ratio so far, num/den; 1/0 is above every ratio
    for j, dj in enumerate(d):
        if dj > 0:
            # compare (k_j + 1)/d_j with the least ratio so far by cross-multiplying
            side = (k[j] + 1) * den - num * dj
            if side < 0:
                argmin, num, den = [j], k[j] + 1, dj
            elif side == 0:
                argmin.append(j)
    if not argmin:
        return LctReport(PLUS_INFINITY, frozenset())
    return LctReport(Fraction(num, den), frozenset(argmin))


def mld_at_origin(c: germ.Cluster, p: PairSpec) -> Fraction | _Infinity:
    """Minimal log discrepancy of the pair at the germ point: the minimum
    of the model-curve log discrepancies when all are nonnegative, else
    minus infinity.

    The model is a log resolution of the pair, so blowups beyond it can
    only raise the minimum while it is nonnegative; the enumeration
    harness re-checks this to bounded depth.
    """
    k = germ.canonical_vector(c)
    values = [Fraction(k[j] + 1) - p.lam * p.ideal[j] for j in range(len(k))]
    low = min(values)
    return MINUS_INFINITY if low < 0 else low


def computes_mld(c: germ.Cluster, e: int, p: PairSpec) -> bool:
    valuation._check_curve(c, e)
    mld = mld_at_origin(c, p)
    if mld is MINUS_INFINITY:
        raise MldMinusInfinity("the pair is not log canonical at the point")
    return log_discrepancy(c, p, e) == mld


def classify(c: germ.Cluster, e: int) -> Classification:
    """Everything read off the threshold of E's ideal of degree m0, with
    divisor w = m0·dstar: the asymptotic lct m0·lct(w), its ``argmin``
    (the curves minimizing (k+1)/w), the gap k[e] + 1 - lct, and the
    verdict.

    The curve computes an lct when the gap is 0, and is then plt over the
    model divisors exactly when ``argmin == {e}``; its witness ideal is
    ``valuation.fingen_ideal(c, e)``.  Otherwise the witness is the
    element of ``argmin`` with the least (k, id), when its k is at most
    k[e]: along every log canonical pair with nonzero ideal and positive
    exponent it keeps a strictly smaller log discrepancy than E.

    Such a witness always exists over smooth or du Val bases, so the
    verdict is never Indeterminate.  E's multiplicities on its ancestors
    (E, the curves through its center, recursively, and the
    minimal-resolution curves) do not depend on the other blowups.  On
    any other curve E's multiplicity is the sum of those on the curves
    through its center, so its ratio is at least one of theirs (a free
    point raises the ratio, a satellite takes the mediant of two) and its
    k exceeds theirs.  The threshold is therefore attained at an
    ancestor, every ancestor has k at most k[e], and the least attaining
    ancestor is an obstructing witness.  With a positive gap E is not in
    ``argmin`` (its own ratio is k[e] + 1), so that witness is also the
    least (ratio, k, id) over the curves F != E with k[F] <= k[E] and
    ratio below k[E] + 1.
    """
    w = valuation.fingen_ideal(c, e)
    report = lct_ideal(c, w)
    value, argmin = w[e] * report.value, report.argmin
    k = germ.canonical_vector(c)
    gap = k[e] + 1 - value
    assert gap >= 0
    if gap == 0:
        return Classification(e, "ComputesLct", None, value, gap, argmin)
    f = min(argmin, key=lambda j: (k[j], j))
    if k[f] <= k[e]:
        return Classification(e, "MldObstructed", f, value, gap, argmin)
    return Classification(e, "Indeterminate", None, value, gap, argmin)


# -- JSON wire format ---------------------------------------------------
#
# { "ideal": ["2", "3", "6"], "lambda": "5/6" }


def pair_from_json(c: germ.Cluster, doc) -> PairSpec:
    if not isinstance(doc, dict):
        raise ValueError("pair document must be a JSON object")
    ideal_doc = doc.get("ideal")
    if not isinstance(ideal_doc, list):
        raise ValueError('"ideal" must be a list of rational strings')
    coeffs = [parse_rational(str(v)) for v in ideal_doc]
    lam_doc = doc.get("lambda")
    if not isinstance(lam_doc, str):
        raise ValueError('"lambda" must be a rational string')
    return pair_spec(c, coeffs, parse_rational(lam_doc))
