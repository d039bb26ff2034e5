"""Bounded exhaustive enumeration of clusters and pairs, theorem-level
property sweeps, and the atlas dataset.

Clusters are enumerated once per class of interchangeable free blowups,
each as the cluster whose own step encoding is the class's least (see
:func:`is_canonical_extension`).

Counterexamples found by the sweeps become report entries, never aborts:
the harness doubles as a probe for where the claims might fail
off-hypothesis.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations
from math import gcd
from typing import NamedTuple

from . import germ, thresholds, valuation
from .errors import NotAntinef
from .exact import format_rational

ATLAS_SPOT_CHECK_SEED = 20260810
ATLAS_COLUMNS = (
    "base",
    "steps",
    "curve",
    "k",
    "lct",
    "gap",
    "fingen_degree",
    "verdict",
    "witness",
)
_CONTAINMENT_CAP = 120
_STABILITY_CAP = 8
# The mld extension guard reads every chain pattern at each curve and meeting
# pair at each end and kink of a grid: 2126 free and 6760 satellite at depth 10.
MAX_EXTENSION_DEPTH = 10
# _grid takes O(q_max^2·lct) steps: sweep A took 0.5 s at q <= 100, 1.7 s at 200.
MAX_LAMBDA_DENOMINATOR = 100
# The ideal set grows with the bound: smooth <= 2 took 0.15 s at 100, 1.8 s at 400.
MAX_IDEAL_COEFF_BOUND = 12


@dataclass(frozen=True)
class EnumBudget:
    """Finite bounds for enumeration; the stream size is a function of
    the budget alone."""

    max_steps: int = 3
    bases: tuple[germ.BaseGerm, ...] = (germ.SMOOTH,)
    ideal_coeff_bound: int = 2
    lambda_denominator_bound: int = 6
    extension_depth: int = 0

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0 <= self.ideal_coeff_bound <= MAX_IDEAL_COEFF_BOUND:
            raise ValueError(f"ideal_coeff_bound must be in 0..{MAX_IDEAL_COEFF_BOUND}")
        if not 1 <= self.lambda_denominator_bound <= MAX_LAMBDA_DENOMINATOR:
            raise ValueError(f"lambda_denominator_bound must be in 1..{MAX_LAMBDA_DENOMINATOR}")
        if self.extension_depth < 0:
            raise ValueError("extension_depth must be >= 0")
        if self.extension_depth > MAX_EXTENSION_DEPTH:
            raise ValueError(f"extension_depth must be <= {MAX_EXTENSION_DEPTH}")
        bases = tuple(sorted(set(self.bases), key=lambda b: (not b.is_smooth, b.label)))
        object.__setattr__(self, "bases", bases)


# -- canonical form ------------------------------------------------------


def is_canonical_extension(c: germ.Cluster, step: germ.BlowupStep) -> bool:
    """Whether ``c`` extended by ``step``, a legal step on it, has its own
    step encoding ``germ.step_parents(c) + (germ.step_refs(step),)`` as
    its least over all relabelings of the step curves keeping parents
    first.  Two clusters have one least encoding exactly when they differ
    by permuting interchangeable free blowups.

    An encoding is built one position at a time.  A step is ready once its
    parent curves are placed, and its token, the sorted new ids of those
    curves, is then fixed.  So the least encodings take the least ready
    token: the search returns False at the first one below the candidate's
    and drops a branch at the first above it.  Ready steps tie only as
    free blowups on one curve, and the search branches over those once per
    isomorphism class of their subtrees.  Only a branch point recurses.
    """
    rank = c.base.rank()
    parents = (*germ.step_parents(c), germ.step_refs(step))
    t = len(parents)
    key = None  # _subtree_keys, built at the first tie
    # a satellite's other curve lies above its later one (see
    # _subtree_keys), so a step is ready once its later curve is placed
    children: list[list[int]] = [[] for _ in parents]
    for i, ps in enumerate(parents):
        if ps and ps[-1] >= rank:
            children[ps[-1] - rank].append(i)
    new_id = list(range(rank)) + [0] * t

    def place(i: int, depth: int, ready: list[int]) -> list[int]:
        new_id[rank + i] = rank + depth
        return [j for j in ready if j != i] + children[i]

    def below(ready: list[int], depth: int) -> bool:
        # whether an order of the steps left encodes below the candidate
        nonlocal key
        while depth < t:
            toks = [tuple(sorted(new_id[p] for p in parents[i])) for i in ready]
            low = min(toks)
            if low != parents[depth]:
                return low < parents[depth]
            tied = [i for i, tok in zip(ready, toks) if tok == low]
            if len(tied) > 1:
                key = key or _subtree_keys(rank, parents)
                tied = list({key[i]: i for i in tied}.values())
            if len(tied) > 1:
                return any(below(place(i, depth, ready), depth + 1) for i in tied)
            ready = place(tied[0], depth, ready)
            depth += 1
        return False

    return not below([i for i, ps in enumerate(parents) if not ps or ps[-1] < rank], 0)


def _subtree_keys(rank: int, parents) -> list[int]:
    """For each step, an id of the isomorphism class of the subtree it
    roots in the Enriques tree (Aho-Hopcroft-Ullman): a step's tree parent
    is the later of its parent curves, above which a satellite's other
    parent lies, so the subtree holds every step blown up on it, directly
    or not.  A satellite is labeled by the height of its other curve above
    its tree parent (at least 1), or by -1 - i for base curve i; a free
    step by 0.  Steps with the same parents and key can be swapped, with
    their subtrees, without changing the cluster."""
    height = [0] * len(parents)  # depth below the base in the Enriques tree
    labels = [0] * len(parents)
    below: list[list[int]] = [[] for _ in parents]
    for i, ps in enumerate(parents):
        if ps and ps[-1] >= rank:
            top = ps[-1] - rank
            height[i] = height[top] + 1
            below[top].append(i)
        if len(ps) == 2:
            other = ps[0]
            labels[i] = -1 - other if other < rank else height[i] - 1 - height[other - rank]
    ids: dict[tuple, int] = {}
    key = [0] * len(parents)
    for i in reversed(range(len(parents))):
        form = (labels[i], tuple(sorted(key[j] for j in below[i])))
        key[i] = ids.setdefault(form, len(ids))
    return key


def _waves(b: EnumBudget):
    """Per base, each wave of classes in the order of their least step
    encodings, as a list of (parent's position in the last wave or None,
    cluster).  A class comes as the cluster whose own encoding is its
    least, which less its last token is its parent's: so it is made once,
    as its parent extended by the one step that passes
    :func:`is_canonical_extension` (McKay's canonical augmentation, J.
    Algorithms 26, 1998)."""
    for base in b.bases:
        wave = [(None, germ.build(base, (germ.Free(None),) if base.is_smooth else ()))]
        yield wave  # one step at most: canonical
        for _ in range(len(wave[0][1].steps), b.max_steps):
            wave = [
                (pos, germ.extend(parent, step))
                for pos, (_, parent) in enumerate(wave)
                for step in sorted(germ.legal_steps(parent), key=germ.step_refs)
                if is_canonical_extension(parent, step)
            ]
            yield wave


def enumerate_clusters(b: EnumBudget):
    """Every valid cluster within the budget once, in order: bases in
    canonical order, then by step count, then by least step encoding."""
    yield from (c for wave in _waves(b) for _, c in wave)


# -- pair enumeration ----------------------------------------------------


def _pullback(d: tuple[int, ...], refs: tuple[int, ...]) -> tuple[int, ...]:
    """A divisor of the parent model pulled back through one more blowup,
    centred on the curves ``refs``: the new curve takes their sum.  It
    meets the new curve in 0 and every other curve as before."""
    return (*d, sum(d[r] for r in refs))


def antinef_ideals(c: germ.Cluster, bound: int, pulled: list[tuple[int, ...]] | None = None) -> list[tuple[int, ...]]:
    """Antinef closures of every coefficient vector bounded by ``bound``,
    deduplicated and sorted.  Closures may exceed the bound pointwise.

    ``unload(z)`` is the least antinef divisor >= z, and antinef divisors
    are closed under pointwise min (Zariski-Lipman), so
    unload(max(x, y)) = unload(max(unload(x), y)).  With S_j the closures
    of the bounded vectors supported on the curves < j, S_{j+1} is S_j and
    each unload(max(a, g)), a in S_j, g = unload(b·e_j), 0 < b <= bound.
    One pass per curve from S_0 = {0}: at most bound·(len(ideals) + 1)
    unloads a pass, not (bound+1)^n in all.

    With ``pulled``, this list on c less its last step pulled back through
    that step (see :func:`_pullback`), only the last curve's pass runs: a
    divisor whose new entry is at most the sum, over the centre's curves,
    of the parent closure D of its old entries closes to D pulled back
    (Lipman, Publ. IHES 36, 1969, §18), so ``pulled`` is S_{n-1}.  Pushing
    forward keeps a divisor antinef, and being antinef at the new curve
    forces the new entry up to that sum.
    """
    n = c.curve_count()
    ideals, first = ([(0,) * n], 0) if pulled is None else (pulled, n - 1)
    for j in range(first, n):
        new = [valuation.unload(c, tuple(b if i == j else 0 for i in range(n))) for b in range(1, bound + 1)]
        seen = {*ideals, *new}
        for a in ideals:
            for g in new:
                z = tuple(map(max, a, g))
                if z not in seen:  # a divisor in seen is antinef: its closure is itself
                    seen.add(valuation.unload(c, z))
        ideals = sorted(seen)
    return ideals


def lambda_grid(c: germ.Cluster, coeffs, lct, qmax: int) -> list[Fraction]:
    """Exponents to sweep for one ideal of threshold ``lct``: every p/q in
    (0, lct] with q <= qmax, plus the crossing values where two curves'
    log discrepancies agree.  The trivial ideal, of threshold
    ``PLUS_INFINITY``, gets the single exponent 1 (its log discrepancies
    do not depend on the exponent)."""
    if lct is thresholds.PLUS_INFINITY:
        return [Fraction(1)]
    k = germ.canonical_vector(c)
    vals = {Fraction(p, q) for q in range(1, qmax + 1) for p in range(1, lct.numerator * q // lct.denominator + 1)}
    for i, j in combinations(range(len(coeffs)), 2):
        if coeffs[i] != coeffs[j]:
            lam = Fraction(k[i] - k[j], coeffs[i] - coeffs[j])
            if 0 < lam <= lct:
                vals.add(lam)
    return sorted(vals)


# -- depth-bounded model extensions --------------------------------------


def _chain_patterns(depth: int) -> tuple[list, list]:
    """The patterns (c, x, y) of the curves within ``depth`` blowups of any
    model, over a free and over a satellite first centre: a curve has
    k + 1 = c + x·(k_i + 1) + y·(k_j + 1) and coefficient x·d_i + y·d_j,
    for i (and j) the curves through that centre.  It depends only on its
    chain of infinitely near points (Casas-Alvero, *Singularities of Plane
    Curves*, ch. 3): each later centre is the newest curve's free point or
    its meeting with a curve through its own centre."""

    def blowup(through):  # (the new curve's pattern, the patterns through its centre)
        c, x, y = map(sum, zip(*through))
        return (c + 2 - len(through), x, y), through

    patterns = []
    for start in ((0, 1, 0),), ((0, 1, 0), (0, 0, 1)):
        level = {blowup(start)}
        found = {f for f, _ in level}
        for _ in range(depth - 1):
            level = {blowup(t) for f, through in level for t in ((f,), *((f, g) for g in through))}
            found |= {f for f, _ in level}
        patterns.append(sorted(found))
    return tuple(patterns)


# -- atlas ----------------------------------------------------------------


@dataclass(frozen=True)
class AtlasRow:
    cluster: germ.Cluster
    curve: int
    k: int
    lct: Fraction
    gap: Fraction
    fingen_degree: int
    verdict: str
    witness: int | None
    enum_index: int


def _row(c: germ.Cluster, cl: thresholds.Classification, enum_index: int, m0: int) -> AtlasRow:
    """The row read from one curve's ``thresholds.classify`` record and m0."""
    return AtlasRow(
        cluster=c,
        curve=cl.curve,
        k=germ.canonical_vector(c)[cl.curve],
        lct=cl.lct,
        gap=cl.gap,
        fingen_degree=m0,
        verdict=cl.verdict,
        witness=cl.witness,
        enum_index=enum_index,
    )


def atlas_rows(b: EnumBudget) -> list[AtlasRow]:
    """One row per (cluster, curve), in enumeration order."""
    return [
        _row(c, thresholds.classify(c, e), enum_index, valuation.fingen_degree(c, e))
        for enum_index, c in enumerate(enumerate_clusters(b))
        for e in range(c.curve_count())
    ]


def rank_by_gap(rows) -> list[AtlasRow]:
    """Rank rows by gap descending, then fewer curves first, then
    enumeration order."""
    ranked = sorted(rows, key=lambda r: (r.cluster.curve_count(), r.enum_index, r.curve))
    ranked.sort(key=lambda r: r.gap, reverse=True)  # stable
    return ranked


def _steps_json(c: germ.Cluster) -> str:
    return json.dumps(germ.cluster_to_json(c)["steps"], separators=(",", ":"))


def atlas_cells(rows) -> dict[tuple[int, int], tuple]:
    """Each row's CSV cells by (enumeration index, curve); each cluster's
    steps are serialised once."""
    steps: dict[int, str] = {}
    cells = {}
    for r in rows:
        if r.enum_index not in steps:
            steps[r.enum_index] = _steps_json(r.cluster)
        cells[r.enum_index, r.curve] = (
            r.cluster.base.label,
            steps[r.enum_index],
            r.curve,
            r.k,
            format_rational(r.lct),
            format_rational(r.gap),
            r.fingen_degree,
            r.verdict,
            "" if r.witness is None else r.witness,
        )
    return cells


def write_atlas_csv(rows, fh, cells=None) -> None:
    """Rows as CSV, read from their ``atlas_cells``."""
    cells = cells or atlas_cells(rows)
    w = csv.writer(fh)
    w.writerow(ATLAS_COLUMNS)
    w.writerows(cells[r.enum_index, r.curve] for r in rows)


# -- theorem sweep --------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    counterexamples: tuple[dict, ...]


@dataclass(frozen=True)
class VerificationReport:
    """Suite results of one sweep.  ``rows`` holds the atlas rows the sweep
    built along the way; they are not part of the report JSON."""

    budget: EnumBudget
    seed: int
    counts: dict
    suites: tuple[SuiteResult, ...]
    rows: tuple[AtlasRow, ...] = field(default=(), compare=False, repr=False)

    def counterexample_total(self) -> int:
        return sum(len(s.counterexamples) for s in self.suites)

    def suite(self, name: str) -> SuiteResult:
        for s in self.suites:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "budget": {**vars(self.budget), "bases": [b.label for b in self.budget.bases]},
            "seed": self.seed,
            "counts": dict(self.counts),
            "suites": [
                {"name": s.name, "checked": s.checked, "counterexamples": list(s.counterexamples)} for s in self.suites
            ],
            "total_counterexamples": self.counterexample_total(),
        }


class _Grid(NamedTuple):
    """Integer summary of one ideal's nonempty ``lambda_grid``, exponents
    p/q held as pairs (p, q) with q > 0.  Every exponent lies in
    [lo, hi], and the mld, the least k_j + 1 - lambda·d_j, is affine
    between its kinks."""

    coeffs: tuple[int, ...]
    lct: Fraction | thresholds._Infinity
    count: int  # len(lambda_grid(...)): the ideal's lc pairs
    lo: tuple[int, int]
    hi: tuple[int, int]
    kinks: list[tuple[int, int]]  # the mld's vertices strictly inside (lo, hi)


def _scaled(k, coeffs, pt) -> list[int]:
    """q·(k_j + 1 - lambda·d_j) per curve j at lambda = p/q, pt = (p, q)."""
    p, q = pt
    return [q * (kj + 1) - p * dj for kj, dj in zip(k, coeffs)]


# orders exponents given as pairs (p, q) by p/q
_BY_VALUE = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def _grid(k, coeffs, lct, qmax: int, reduced: dict) -> _Grid | None:
    """The summary of ``lambda_grid`` over the same ideal, or None when
    that grid is empty.  It counts the reduced p/q <= lct with q <= qmax,
    kept per lct in ``reduced``, and the crossings in (0, lct] of reduced
    denominator above qmax.  A walk along the mld from lo finds its kinks:
    the steepest line attaining it stays least until its nearest crossing
    with a steeper line, all of which lie above it."""
    if lct is thresholds.PLUS_INFINITY:
        count, points = 1, {(1, 1)}
    else:
        a, b = lct.numerator, lct.denominator
        # (the largest p with p/q <= lct, q) for each q admitting p >= 1
        tops = [(a * q // b, q) for q in range(1, qmax + 1) if a * q >= b]
        if lct not in reduced:
            reduced[lct] = sum(gcd(p, q) == 1 for top, q in tops for p in range(1, top + 1))
        count = reduced[lct]
        far = set()
        for i, j in permutations(range(len(k)), 2):
            num, den = k[i] - k[j], coeffs[i] - coeffs[j]
            if num > 0 and den > 0 and num * b <= a * den:
                g = gcd(num, den)
                if den // g > qmax:
                    far.add((num // g, den // g))
        count += len(far)
        points = far.union(tops, [(1, qmax)] if tops else [])
        if not points:
            return None
    lo, hi = min(points, key=_BY_VALUE), max(points, key=_BY_VALUE)
    kinks, pt = [], lo
    while True:
        vs = _scaled(k, coeffs, pt)
        cur = max(range(len(k)), key=lambda j: (-vs[j], coeffs[j]))
        steeper = [(k[i] - k[cur], di - coeffs[cur]) for i, di in enumerate(coeffs) if di > coeffs[cur]]
        pt = min(steeper, key=_BY_VALUE, default=hi)
        if _BY_VALUE(pt) >= _BY_VALUE(hi):
            return _Grid(tuple(coeffs), lct, count, lo, hi, kinks)
        kinks.append(pt)


class _Lineage(NamedTuple):
    """_Case's fields that a cluster's children inherit in the sweep."""

    classes: list[thresholds.Classification]
    m0_ideals: list[tuple[int, ...]]
    graded_failed: list[tuple[bool, bool, bool]]
    ideals: list[tuple[tuple[int, ...], thresholds.LctReport]]


def _inherit(record, refs: tuple[int, ...], new: int):
    """A classify record or lct_ideal report of d, for d pulled back through
    a blowup on ``refs`` whose curve is ``new``.  The new ratio (k+1)/d
    exceeds a free point's curve's and is the mediant of a satellite's two,
    so the least ratio stays, and ``new`` attains it exactly when both of
    a satellite's curves do."""
    if len(refs) == 2 and refs[0] in record.argmin and refs[1] in record.argmin:
        return replace(record, argmin=record.argmin | {new})
    return record


@dataclass(frozen=True)
class _Case:
    """Everything the suites share about one enumerated cluster, computed
    once per cluster."""

    c: germ.Cluster
    budget: EnumBudget
    rows: list[AtlasRow]
    # per curve, the record its row was read from; an old curve's column is
    # its parent's pulled back, and its record is inherited (see _inherit)
    classes: list[thresholds.Classification]
    k: tuple[int, ...]
    columns: list[tuple[int, ...]]  # per curve, valuation.fingen_ideal, solved afresh
    # (divisor, lct_ideal report) of every enumerated ideal; the trivial one
    # has value PLUS_INFINITY and an empty argmin.  A pullback inherits it.
    ideals: list[tuple[tuple[int, ...], thresholds.LctReport]]
    # per curve, its valuation ideal of degree m0, which does not depend on
    # the model: an old curve's is its parent's pulled back.  A new curve's
    # j·m0 is unloaded from the ideal of degree (j-1)·m0 with its E entry
    # raised to j·m0, below the closure of j·m0·E as unloading is monotone.
    m0_ideals: list[tuple[int, ...]]
    # per curve, whether its ideals of degree 1..4 and m0..4m0 fail
    # ideal_monotonicity, graded_subadditivity and rees_singleton; old
    # curves inherit these, as a pullback keeps order, sums and products.
    graded_failed: list[tuple[bool, bool, bool]]
    extensions: list[germ.BlowupStep]  # sampled one-blowup extensions
    # the summary of every ideal with a nonempty grid.  No grid exponent
    # exceeds its ideal's lct, so every pair is log canonical.
    grids: list[_Grid]
    patterns: tuple[list, list]  # see _sweep


def _sweep(b: EnumBudget) -> tuple[tuple, dict]:
    """What every case of one sweep reads: the chain patterns (none at
    depth 0) and _grid's counts."""
    return _chain_patterns(b.extension_depth) if b.extension_depth else ([], []), {}


def _case(b: EnumBudget, enum_index: int, c: germ.Cluster, parent: _Lineage | None, sweep) -> _Case:
    """The case of ``c`` in ``sweep``, ``_sweep(b)``.  With ``parent``, the
    lineage of c less its last step, old curves and pulled-back ideals
    inherit from it: only the new curve is classified and unloaded, and
    only new ideals get a threshold."""
    patterns, reduced = sweep
    n = c.curve_count()
    k = germ.canonical_vector(c)
    classes, m0_ideals, failed, pulled = [], [], [], {}
    if parent is not None:
        refs = germ.step_refs(c.steps[-1])
        classes = [_inherit(cl, refs, n - 1) for cl in parent.classes]
        m0_ideals = [_pullback(d, refs) for d in parent.m0_ideals]
        failed = list(parent.graded_failed)
        pulled = {_pullback(d, refs): _inherit(r, refs, n - 1) for d, r in parent.ideals}
    classes += [thresholds.classify(c, e) for e in range(len(classes), n)]
    columns = [valuation.fingen_ideal(c, e) for e in range(n)]
    rows = [_row(c, cl, enum_index, w[cl.curve]) for cl, w in zip(classes, columns)]
    ideals = [
        (d, pulled[d] if d in pulled else thresholds.lct_ideal(c, d))
        for d in antinef_ideals(c, b.ideal_coeff_bound, None if parent is None else list(pulled))
    ]
    for e in range(len(m0_ideals), n):
        m0 = columns[e][e]
        g = {m: valuation.valuation_ideal(c, e, m) for m in range(1, 5) if m % m0}
        d = (0,) * n
        for m in range(m0, 5 * m0, m0):
            d = g[m] = valuation.unload(c, [m if j == e else v for j, v in enumerate(d)])
        m0_ideals.append(g[m0])
        failed.append(_graded_failures(c, e, m0, g))
    grids = [_grid(k, coeffs, report.value, b.lambda_denominator_bound, reduced) for coeffs, report in ideals]
    steps = germ.legal_steps(c)
    return _Case(
        c, b, rows, classes, k, columns, ideals, m0_ideals, failed,
        # sampled deterministically when there are many
        extensions=steps[:: max(1, -(-len(steps) // _STABILITY_CAP))],
        grids=[g for g in grids if g],
        patterns=patterns,
    )


# Each suite returns a case's (count of checks, details of each failure).


def _pair_details(coeffs, pt, **details) -> dict:
    return {**details, "ideal": list(coeffs), "lambda": format_rational(Fraction(*pt))}


def _nonzero(case: _Case):
    return [(coeffs, report) for coeffs, report in case.ideals if any(coeffs)]


def _dstar_unit(case: _Case):
    """dstar is positive at every curve and 1 at E, read off the ideal d
    unloaded from m0·E as d[E] = m0 and d > 0."""
    return len(case.rows), [
        {"curve": r.curve} for r, d in zip(case.rows, case.m0_ideals) if d[r.curve] != r.fingen_degree or min(d) <= 0
    ]


def _oracle_equivalence(case: _Case):
    """Unloading m0·E gives m0·dstar at the finite-generation degree m0."""
    return len(case.rows), [
        {"curve": r.curve, "m0": r.fingen_degree} for r, d, w in zip(case.rows, case.m0_ideals, case.columns) if d != w
    ]


def _graded_failures(c: germ.Cluster, e: int, m0: int, g) -> tuple[bool, bool, bool]:
    """_Case.graded_failed of E, whose graded ideals are ``g``."""

    def rees(d):
        try:
            return valuation.rees_valuations(c, d) if any(d) else None
        except NotAntinef:
            return None

    return (
        any(a > b for m in range(1, 4) for a, b in zip(g[m], g[m + 1])),
        any(s > a + b for m in range(1, 4) for n in range(1, 5 - m) for s, a, b in zip(g[m + n], g[m], g[n])),
        any(rees(g[mm * m0]) != frozenset((e,)) for mm in range(1, 5)),
    )


def _ideal_monotonicity(case: _Case):
    """E's valuation ideals of degree 1..4 have pointwise growing divisors."""
    return len(case.graded_failed), [{"curve": e} for e, failed in enumerate(case.graded_failed) if failed[0]]


def _graded_subadditivity(case: _Case):
    """The divisor of degree m + n is at most the sum of degrees m and n (m + n <= 4)."""
    return len(case.graded_failed), [{"curve": e} for e, failed in enumerate(case.graded_failed) if failed[1]]


def _rees_singleton(case: _Case):
    """E is the only Rees valuation of its ideals of degree m0, 2m0, 3m0, 4m0.
    An ideal whose divisor is zero or not antinef fails the check."""
    return len(case.rows), [
        {"curve": r.curve, "m0": r.fingen_degree} for r, failed in zip(case.rows, case.graded_failed) if failed[2]
    ]


def _model_stability(case: _Case):
    """One more blowup keeps E's multiplicities on the old curves and its asymptotic lct.
    Certified without a solve: if E's column w meets E negatively and every other
    curve trivially, so does its pullback on every extension, as E's column
    there; then only the new curve's ratio could lower the lct."""
    curves = []  # per curve: certificate fails, w, w[e]·lct denominator, lct numerator
    for e, (row, w) in enumerate(zip(case.rows, case.columns)):
        p = germ.intersect(case.c, w)
        curves.append((p[e] >= 0 or any(p[:e] + p[e + 1 :]), w, w[e] * row.lct.denominator, row.lct.numerator))
    found = []
    for step in case.extensions:
        refs = germ.step_refs(step)
        k_new = 1 + sum(case.k[r] for r in refs)
        for e, (wrong, w, wd, num) in enumerate(curves):
            if wrong or (k_new + 1) * wd < num * sum(map(w.__getitem__, refs)):
                found.append({"curve": e, "step": repr(step)})
    return len(case.extensions) * len(case.rows), found


def _pullback_stability(case: _Case):
    """The curve of one more blowup does not lower a nonzero ideal's lct."""
    nonzero, found = _nonzero(case), []
    for step in case.extensions:
        refs = germ.step_refs(step)
        new_k = 1 + sum(case.k[r] for r in refs)
        for coeffs, old in nonzero:
            new_d = sum(coeffs[r] for r in refs)
            if new_d > 0 and (new_k + 1) * old.value.denominator < old.value.numerator * new_d:
                found.append({"ideal": list(coeffs), "step": repr(step)})
    return len(case.extensions) * len(nonzero), found


def _lct_scaling(case: _Case):
    """lct(a^m) = lct(a)/m for m = 2, 3."""
    nonzero = _nonzero(case)
    return len(nonzero), [
        {"ideal": list(coeffs)}
        for coeffs, old in nonzero
        if any(thresholds.lct_ideal(case.c, tuple(mm * v for v in coeffs)).value != old.value / mm for mm in (2, 3))
    ]


def _lct_containment(case: _Case):
    """Of two nested ideals, the deeper one has the smaller lct."""
    stride = max(1, -(-len(case.ideals) // _CONTAINMENT_CAP))
    sample = [(d, report.value) for d, report in case.ideals[::stride]]
    checks, found = 0, []
    for ia, (da, va) in enumerate(sample):
        for db, vb in sample[ia + 1 :]:
            dominates = all(a >= b for a, b in zip(da, db))
            if dominates or all(a <= b for a, b in zip(da, db)):
                # The bigger divisor cuts the deeper ideal.
                big, small = (va, vb) if dominates else (vb, va)
                checks += 1
                if big is not thresholds.PLUS_INFINITY and small is not thresholds.PLUS_INFINITY and big > small:
                    found.append({"a": list(da), "b": list(db)})
    return checks, found


def _lct_upper_bound(case: _Case):
    """E's asymptotic lct is at most k + 1."""
    return len(case.rows), [{"curve": r.curve} for r in case.rows if not r.lct <= r.k + 1]


def _prime_blowup_positive(case: _Case):
    """The one-divisor model's threshold lct - k is positive exactly when the gap is below 1.
    The gap is classify's; lct > k is read off the ideal d unloaded from m0·E,
    as (k_j + 1)·m0 > k·d_j at every curve j."""
    return len(case.rows), [
        {"curve": r.curve}
        for r, d in zip(case.rows, case.m0_ideals)
        if (r.gap < 1) != all((kj + 1) * r.fingen_degree > r.k * dj for kj, dj in zip(case.k, d))
    ]


def _unique_place_plt(case: _Case):
    """The unique lc place of a nonzero ideal, when there is one, is plt over the model."""
    nonzero = _nonzero(case)
    # the place is plt over the model divisors when it alone attains its asymptotic lct
    return len(nonzero), [
        {"ideal": list(coeffs)}
        for coeffs, report in nonzero
        if len(report.argmin) == 1 and case.classes[min(report.argmin)].argmin != report.argmin
    ]


def _by_ideal(case: _Case, grids, points, failures):
    """(checks, details) over the ideals of ``grids``, one check per lc pair.
    ``failures(coeffs, pt, vs, mld)`` lists the failures at lambda = p/q,
    pt = (p, q), given vs = q·(log discrepancy per curve) and their least.
    An ideal with none at ``points(grid)`` has none; any other is checked
    at every pair of its ``lambda_grid``."""

    def at(coeffs, pt):
        vs = _scaled(case.k, coeffs, pt)
        return failures(coeffs, pt, vs, min(vs))

    found = []
    for g in grids:
        if any(at(g.coeffs, pt) for pt in points(g)):
            for lam in lambda_grid(case.c, g.coeffs, g.lct, case.budget.lambda_denominator_bound):
                found += at(g.coeffs, (lam.numerator, lam.denominator))
    return sum(g.count for g in grids), found


def _ends_and_kinks(g: _Grid):
    return (g.lo, *g.kinks, g.hi)


def _gap_inequality(case: _Case):
    """Along every lc pair, each curve's log discrepancy is at least its gap.
    Log discrepancies do not grow with lambda, so an ideal is decided at hi."""
    gaps = [(r.gap.numerator, r.gap.denominator) for r in case.rows]

    def failures(coeffs, pt, vs, _):
        return [_pair_details(coeffs, pt, curve=e) for e, (gn, gd) in enumerate(gaps) if vs[e] * gd < pt[1] * gn]

    return _by_ideal(case, case.grids, lambda g: (g.hi,), failures)


def _gap_attainment(case: _Case):
    """A curve computing an lct has log discrepancy 0, (k + 1)·den = num·d[e],
    along its unloaded ideal d of degree m0 at that ideal's lct num/den; a zero
    ideal, of infinite lct, fails."""

    def wrong(r):
        d = case.m0_ideals[r.curve]
        lct = thresholds.lct_ideal(case.c, d).value
        return lct is thresholds.PLUS_INFINITY or (r.k + 1) * lct.denominator != lct.numerator * d[r.curve]

    attaining = [r for r in case.rows if r.gap == 0]
    return len(attaining), [{"curve": r.curve} for r in attaining if wrong(r)]


def _witness_strictness(case: _Case):
    """A witness keeps a strictly smaller log discrepancy than its curve along nonzero lc pairs.
    The difference of two log discrepancies is affine in lambda, so an ideal
    is decided at lo and hi."""
    obstructions = [(r.curve, r.witness) for r in case.rows if r.verdict == "MldObstructed"]

    def failures(coeffs, pt, vs, _):
        return [_pair_details(coeffs, pt, curve=e, witness=f) for e, f in obstructions if not vs[f] < vs[e]]

    return _by_ideal(case, [g for g in case.grids if any(g.coeffs)], lambda g: (g.lo, g.hi), failures)


def _mld_implies_lct(case: _Case):
    """A curve computing the mld of an lc pair with nonzero ideal computes an lct.
    A curve attaining the mld anywhere on [lo, hi] attains it at an end or a kink."""

    def failures(coeffs, pt, vs, mld):
        return [_pair_details(coeffs, pt, curve=j) for j, v in enumerate(vs) if v == mld and case.rows[j].gap != 0]

    return _by_ideal(case, [g for g in case.grids if any(g.coeffs)], _ends_and_kinks, failures)


def _classification_decisive(case: _Case):
    """Every curve either computes an lct or has an mld obstruction witness."""
    return len(case.rows), [{"curve": r.curve} for r in case.rows if r.verdict == "Indeterminate"]


def _extension_below(case: _Case, coeffs, pt, vs, mld):
    """The least (k, d) over the ideal ``coeffs`` of a curve within the extension
    depth whose log discrepancy at pt goes below mld, or None.  A chain pattern
    read at curves i and j (i = j if free) has q·(k + 1) - p·d = q·c + x·vs[i] + y·vs[j]."""
    (free, satellite), q, a = case.patterns, pt[1], [kj + 1 for kj in case.k]
    at = [(free, i, i, v, v) for i, v in enumerate(vs)]
    at += [(satellite, i, j, vs[i], vs[j]) for i, j in germ._edges(case.c)]
    return min(
        ((c - 1 + x * a[i] + y * a[j], x * coeffs[i] + y * coeffs[j]) for ps, i, j, vi, vj in at for c, x, y in ps
         if q * c + x * vi + y * vj < mld),
        default=None,
    )


def _mld_extension_guard(case: _Case):
    """No curve within the extension depth goes below the model's mld (the model is a log resolution).
    The mld less a curve's log discrepancy is concave in lambda: on [lo, hi]
    it peaks at an end or a kink."""
    if not case.patterns[0]:
        return 0, []

    def failures(coeffs, pt, vs, mld):
        least = _extension_below(case, coeffs, pt, vs, mld)
        return [] if least is None else [_pair_details(coeffs, pt, ext_k=least[0], ext_d=least[1])]

    return _by_ideal(case, case.grids, _ends_and_kinks, failures)


_SUITES = {
    "dstar_unit": _dstar_unit,
    "oracle_equivalence": _oracle_equivalence,
    "ideal_monotonicity": _ideal_monotonicity,
    "graded_subadditivity": _graded_subadditivity,
    "rees_singleton": _rees_singleton,
    "model_stability": _model_stability,
    "pullback_stability": _pullback_stability,
    "lct_scaling": _lct_scaling,
    "lct_containment": _lct_containment,
    "lct_upper_bound": _lct_upper_bound,
    "prime_blowup_positive": _prime_blowup_positive,
    "unique_place_plt": _unique_place_plt,
    "gap_inequality": _gap_inequality,
    "gap_attainment": _gap_attainment,
    "witness_strictness": _witness_strictness,
    "mld_implies_lct": _mld_implies_lct,
    "classification_decisive": _classification_decisive,
    "mld_extension_guard": _mld_extension_guard,
}
SUITE_NAMES = (*_SUITES, "atlas_spot_check")


def _context(c: germ.Cluster) -> dict:
    return {"base": c.base.label, "steps": _steps_json(c)}


def verify_theorems(b: EnumBudget) -> VerificationReport:
    """Run every suite over the enumeration, plus the atlas spot check,
    which recomputes a seeded sample of the rows from a JSON round trip
    of their clusters.  Failures become counterexample entries in the
    report."""
    checked = dict.fromkeys(SUITE_NAMES, 0)
    bad: dict[str, list[dict]] = {name: [] for name in SUITE_NAMES}
    counts = dict.fromkeys(("clusters", "curves", "ideals", "lc_pairs", "lambda_checks"), 0)
    rows: list[AtlasRow] = []
    last: list[_Lineage] = []
    sweep = _sweep(b)
    for wave in _waves(b):
        lineages = []  # by position, for the next wave
        for parent, c in wave:
            case = _case(b, counts["clusters"], c, None if parent is None else last[parent], sweep)
            if len(c.steps) < b.max_steps:
                lineages.append(_Lineage(case.classes, case.m0_ideals, case.graded_failed, case.ideals))
            counts["clusters"] += 1
            counts["curves"] += len(case.rows)
            counts["ideals"] += len(case.ideals)
            counts["lc_pairs"] += sum(g.count for g in case.grids)
            rows.extend(case.rows)
            for name, suite in _SUITES.items():
                n, failures = suite(case)
                checked[name] += n
                if failures:
                    ctx = _context(c)
                    bad[name] += [{**ctx, **d} for d in failures]
            c._dstar.clear()  # no later reader: the spot check rebuilds its clusters
        last = lineages

    rng = random.Random(ATLAS_SPOT_CHECK_SEED)
    if rows:
        for idx in sorted(rng.sample(range(len(rows)), max(1, len(rows) // 20))):
            row = rows[idx]
            fresh = germ.cluster_from_json(germ.cluster_to_json(row.cluster))
            e = row.curve
            checked["atlas_spot_check"] += 1
            if _row(fresh, thresholds.classify(fresh, e), row.enum_index, valuation.fingen_degree(fresh, e)) != row:
                bad["atlas_spot_check"].append({**_context(row.cluster), "curve": e})

    counts["lambda_checks"] = counts["lc_pairs"]
    suites = tuple(SuiteResult(name, checked[name], tuple(bad[name])) for name in SUITE_NAMES)
    return VerificationReport(b, ATLAS_SPOT_CHECK_SEED, counts, suites, tuple(rows))
