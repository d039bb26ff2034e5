"""Log discrepancies, log canonical thresholds and minimal log
discrepancies of complete-ideal pairs on a cluster, and the one per-curve
computation, ``classify``: E's ratios (k+1)/multiplicity over the model
curves, built once, give its asymptotic lct and every verdict read from
it (computes an lct, gap, plt over the model divisors, mld-obstruction
witness).

Complete (integrally closed) ideals cosupported at the germ point are
represented by their antinef divisors on the top model.  All values are
exact rationals; the two infinities are dedicated sentinels, never
floats.
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


@dataclass(frozen=True)
class CompleteIdeal:
    """Antinef integral divisor of a complete ideal; the zero divisor
    stands for the full structure sheaf."""

    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)


def complete_ideal(c: germ.Cluster, coeffs) -> CompleteIdeal:
    """Validate coefficients against the cluster: integral, >= 0 and
    antinef (nonpositive against every curve)."""
    d = valuation._int_vector(c, coeffs)
    for j, p in enumerate(germ.intersect(c, d)):
        if p > 0:
            raise NotAntinef(f"ideal divisor meets curve {j} positively")
    return CompleteIdeal(tuple(d))


@dataclass(frozen=True)
class PairSpec:
    ideal: CompleteIdeal
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
    return Fraction(k[f] + 1) - p.lam * p.ideal.coeffs[f]


def lct_ideal(c: germ.Cluster, a: CompleteIdeal) -> LctReport:
    """Log canonical threshold of a complete ideal: the minimum of
    (k+1)/coefficient over the curves in the divisor's support, or
    infinity for the structure sheaf."""
    k = germ.canonical_vector(c)
    support = [j for j, d in enumerate(a.coeffs) if d > 0]
    if not support:
        return LctReport(PLUS_INFINITY, frozenset())
    ratios = {j: Fraction(k[j] + 1, a.coeffs[j]) for j in support}
    value = min(ratios.values())
    return LctReport(value, frozenset(j for j, r in ratios.items() if r == value))


def _ratios(c: germ.Cluster, e: int) -> list[tuple[Fraction, int, int]]:
    """(ratio, k, id) of every model curve, where ratio = (k+1)/dstar is
    the threshold E's graded sequence sees at that curve, read from the
    integer column m0·dstar as (k+1)·m0/(m0·dstar).  The tuples order by
    the witness tie-break: smallest ratio, then k, then id."""
    w = valuation.fingen_ideal(c, e)
    k = germ.canonical_vector(c)
    return [(Fraction((k[j] + 1) * w[e], w[j]), k[j], j) for j in range(len(k))]


def unique_lc_place(c: germ.Cluster, a: CompleteIdeal) -> int | None:
    """The unique curve attaining the ideal's threshold, if there is one."""
    if a.is_zero():
        raise ValueError("the structure sheaf has no lc places")
    report = lct_ideal(c, a)
    if len(report.argmin) == 1:
        return next(iter(report.argmin))
    return None


def mld_at_origin(c: germ.Cluster, p: PairSpec) -> Fraction | _Infinity:
    """Minimal log discrepancy of the pair at the germ point: the minimum
    of the model-curve log discrepancies when all are nonnegative, else
    minus infinity.

    The model is a log resolution of the pair, so blowups beyond it can
    only raise the minimum while it is nonnegative; the enumeration
    harness re-checks this to bounded depth.
    """
    k = germ.canonical_vector(c)
    values = [Fraction(k[j] + 1) - p.lam * p.ideal.coeffs[j] for j in range(len(k))]
    low = min(values)
    return MINUS_INFINITY if low < 0 else low


def computes_mld(c: germ.Cluster, e: int, p: PairSpec) -> bool:
    valuation._check_curve(c, e)
    mld = mld_at_origin(c, p)
    if mld is MINUS_INFINITY:
        raise MldMinusInfinity("the pair is not log canonical at the point")
    return log_discrepancy(c, p, e) == mld


def classify(c: germ.Cluster, e: int) -> Classification:
    """Everything read off E's ratios (k+1)/multiplicity over the model
    curves, built once: the asymptotic lct, its ``argmin``, the gap
    k[e] + 1 - lct, and the verdict.

    The curve computes an lct when the gap is 0, and is then plt over the
    model divisors exactly when ``argmin == {e}``; its witness ideal is
    ``valuation.fingen_ideal(c, e)``.  Otherwise the witness is the least
    (ratio, k, id) over curves F != E with k[F] <= k[E] and ratio below
    k[E] + 1: along every log canonical pair with nonzero ideal and
    positive exponent it keeps a strictly smaller log discrepancy than E.

    Such a witness always exists over smooth or du Val bases, so the
    verdict is never Indeterminate.  E's multiplicities on its ancestors
    (E, the curves through its center, recursively, and the
    minimal-resolution curves) do not depend on the other blowups.  On
    any other curve E's multiplicity is the sum of those on the curves
    through its center, so its ratio is at least one of theirs (a free
    point raises the ratio, a satellite takes the mediant of two) and its
    k exceeds theirs.  The threshold is therefore attained at an
    ancestor, every ancestor has k at most k[e], and the least attaining
    ancestor is an obstructing witness.
    """
    valuation._check_curve(c, e)
    ratios = _ratios(c, e)
    value = min(ratios)[0]
    argmin = frozenset(j for r, _, j in ratios if r == value)
    ke = germ.canonical_vector(c)[e]
    gap = ke + 1 - value
    assert gap >= 0
    if gap == 0:
        return Classification(e, "ComputesLct", None, value, gap, argmin)
    found = [t for t in ratios if t[2] != e and t[1] <= ke and t[0] < ke + 1]
    if found:
        return Classification(e, "MldObstructed", min(found)[2], value, gap, argmin)
    return Classification(e, "Indeterminate", None, value, gap, argmin)


# -- JSON wire format ---------------------------------------------------
#
# { "ideal": ["2", "3", "6"], "lambda": "5/6" }


def pair_to_json(p: PairSpec) -> dict:
    return {
        "ideal": [format_rational(v) for v in p.ideal.coeffs],
        "lambda": format_rational(p.lam),
    }


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
