"""Bounded exhaustive enumeration of clusters and pairs, theorem-level
property sweeps, and the atlas dataset.

Clusters are enumerated up to the canonical identification in which free
blowups on the same curve are interchangeable (together with the induced
relabeling of their descendants); minimal-resolution curves are never
permuted.  Each class is represented by the lexicographically smallest
step encoding, found by a search that builds it one position at a time
and branches only over tied free siblings, once per isomorphism class of
their subtrees (see :func:`cluster_signature`).

Counterexamples found by the sweeps become report entries, never aborts:
the harness doubles as a probe for where the claims might fail
off-hypothesis.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import germ, thresholds, valuation
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


def _base_key(b: germ.BaseGerm):
    return (0, "") if b.is_smooth else (1, b.dynkin)


def _base_label(b: germ.BaseGerm) -> str:
    return "smooth" if b.is_smooth else b.dynkin


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
        if self.ideal_coeff_bound < 0:
            raise ValueError("ideal_coeff_bound must be >= 0")
        if self.lambda_denominator_bound < 1:
            raise ValueError("lambda_denominator_bound must be >= 1")
        if self.extension_depth < 0:
            raise ValueError("extension_depth must be >= 0")
        bases = tuple(sorted(set(self.bases), key=_base_key))
        object.__setattr__(self, "bases", bases)


# -- canonical form ------------------------------------------------------


def cluster_signature(c: germ.Cluster, step: germ.BlowupStep | None = None) -> tuple:
    """Lexicographically smallest step encoding over all relabelings of
    the step curves that keep parents before children.  Two clusters get
    the same signature exactly when they differ by permuting
    interchangeable free blowups.  With ``step``, a legal step on ``c``,
    this is the signature of ``c`` extended by it, read from the step
    parents alone without building the extension.

    The encoding is built one position at a time.  A step is ready once
    its parent curves are placed, and its token, the sorted new ids of
    those curves, is then fixed, so each position takes the smallest
    ready token.  Ready steps tie only when they have the same parents,
    that is, when they are free blowups on one curve, and the search
    branches over those: once per isomorphism class of the subtrees
    hanging from them, and never past a prefix above the best encoding
    found so far.  Only a branch point recurses, so a long chain of
    forced positions costs no stack depth.
    """
    rank = c.base.rank()
    parents = germ.step_parents(c)
    if step is not None:
        parents += (tuple(sorted(germ._step_refs(step))),)
    t = len(parents)
    label = _base_label(c.base)
    if t == 0:
        return (label,)
    key = _subtree_keys(rank, parents)
    children: list[list[int]] = [[] for _ in parents]
    waiting = [0] * t  # parents of each step not yet placed
    for i, ps in enumerate(parents):
        for p in ps:
            if p >= rank:
                children[p - rank].append(i)
                waiting[i] += 1
    new_id = list(range(rank)) + [0] * t
    tokens: list[tuple[int, ...]] = []
    best: tuple | None = None

    def place(i: int, depth: int, ready: list[int]) -> list[int]:
        new_id[rank + i] = rank + depth
        rest = [j for j in ready if j != i]
        for j in children[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                rest.append(j)
        return rest

    def unplace(i: int) -> None:
        for j in children[i]:
            waiting[j] += 1

    def search(ready: list[int], tight: bool) -> None:
        # tight: the tokens so far are a prefix of best
        nonlocal best
        forced: list[int] = []  # steps this call placed without a choice
        while True:
            depth = len(tokens)
            if depth == t:
                if not tight:
                    best = tuple(tokens)
                break
            toks = [tuple(sorted(new_id[p] for p in parents[i])) for i in ready]
            low = min(toks)
            if tight and low > best[depth]:
                break
            tight = tight and low == best[depth]
            tokens.append(low)
            tied = list({key[i]: i for i, tok in zip(ready, toks) if tok == low}.values())
            if len(tied) == 1:
                forced.append(tied[0])
                ready = place(tied[0], depth, ready)
                continue
            for i in tied:
                search(place(i, depth, ready), tight)
                unplace(i)
                tight = True  # the first branch ends at a leaf, which best now extends
            tokens.pop()
            break
        for i in reversed(forced):
            unplace(i)
            tokens.pop()

    search([i for i in range(t) if waiting[i] == 0], False)
    return (label,) + best


def _subtree_keys(rank: int, parents) -> list[int]:
    """For each step, an id of the isomorphism class of the subtree it
    roots in the Enriques tree (Aho-Hopcroft-Ullman): a step's tree parent
    is the later of its parent curves, and the other parent of a
    satellite lies above that one, so the subtree holds every step blown
    up on it, directly or not.  A satellite is labeled by the height of
    its other curve above its tree parent (at least 1), or by -1 - i if
    that curve is base curve i; a free step by 0.  Steps with the
    same parents and the same key can be swapped, with their subtrees,
    without changing the cluster."""
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


def cluster_from_signature(sig: tuple) -> germ.Cluster:
    label = sig[0]
    base = germ.SMOOTH if label == "smooth" else germ.du_val(label)
    steps: list[germ.BlowupStep] = []
    for tok in sig[1:]:
        if len(tok) == 0:
            steps.append(germ.Free(None))
        elif len(tok) == 1:
            steps.append(germ.Free(tok[0]))
        else:
            steps.append(germ.Satellite(tok))
    return germ.build(base, steps)


def enumerate_clusters(b: EnumBudget):
    """Yield every valid cluster within the budget exactly once, in
    deterministic order: bases in canonical order, then by step count,
    then by signature."""
    for base in b.bases:
        seen: set[tuple] = set()
        if base.is_smooth:
            wave = [germ.build(base, (germ.Free(None),))]
        else:
            wave = [germ.build(base, ())]
        seen.add(cluster_signature(wave[0]))
        yield from wave
        while wave and len(wave[0].steps) < b.max_steps:
            fresh: dict[tuple, germ.Cluster] = {}
            for c in wave:
                for step in germ.legal_steps(c):
                    sig = cluster_signature(c, step)
                    if sig not in seen:
                        seen.add(sig)
                        fresh[sig] = cluster_from_signature(sig)
            wave = [fresh[s] for s in sorted(fresh)]
            yield from wave


# -- pair enumeration ----------------------------------------------------


def antinef_ideals(c: germ.Cluster, bound: int) -> list[tuple[int, ...]]:
    """Antinef closures of every coefficient vector bounded by ``bound``,
    deduplicated and sorted.  Closures may exceed the bound pointwise.

    The set is generated by joins instead of unloading all (bound+1)^n
    vectors.  ``unload(z)`` is the least antinef divisor >= z and antinef
    divisors are closed under pointwise min (the complete ideals of a
    rational surface singularity, Zariski-Lipman), so
    unload(max(x, y)) = unload(max(unload(x), unload(y))).  Every bounded
    v is the max of its v_j·e_j, so the closures are exactly the closure
    of the zero divisor under a -> unload(max(a, g)) over the generators
    g = unload(b·e_j), 0 < b <= bound.  That takes at most
    n·bound·(len(result) + 1) unloads.
    """
    n = c.curve_count()
    gens = {
        valuation.unload(c, tuple(b if i == j else 0 for i in range(n)))
        for j in range(n)
        for b in range(1, bound + 1)
    }
    seen = {(0,) * n} | gens
    todo = list(gens)
    while todo:
        a = todo.pop()
        for g in gens:
            z = tuple(map(max, a, g))
            if z not in seen:  # a divisor in seen is antinef: its closure is itself
                d = valuation.unload(c, z)
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
    return sorted(seen)


def lambda_grid(c: germ.Cluster, coeffs, lct, qmax: int) -> list[Fraction]:
    """Exponents to sweep for one ideal of threshold ``lct``: every p/q in
    (0, lct] with q <= qmax, plus the crossing values where two curves'
    log discrepancies agree.  The trivial ideal, of threshold
    ``PLUS_INFINITY``, gets the single exponent 1 (its log discrepancies
    do not depend on the exponent)."""
    if lct is thresholds.PLUS_INFINITY:
        return [Fraction(1)]
    k = germ.canonical_vector(c)
    vals: set[Fraction] = set()
    for q in range(1, qmax + 1):
        pmax = (lct.numerator * q) // lct.denominator
        for p in range(1, pmax + 1):
            vals.add(Fraction(p, q))
    n = len(coeffs)
    for i in range(n):
        for j in range(i + 1, n):
            if coeffs[i] != coeffs[j]:
                lam = Fraction(k[i] - k[j], coeffs[i] - coeffs[j])
                if 0 < lam <= lct:
                    vals.add(lam)
    return sorted(vals)


# -- depth-bounded model extensions --------------------------------------


def extension_forms(c: germ.Cluster, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """Affine forms (constant, weights) of every curve reachable by at
    most ``depth`` further blowups: the new curve's canonical coefficient
    is constant + weights . k, and its ideal coefficient is weights . d
    for any divisorial ideal d on the model."""
    if depth <= 0:
        return []
    n = c.curve_count()
    nodes = [(0, tuple(1 if i == j else 0 for i in range(n))) for j in range(n)]
    adj = frozenset(germ.dual_graph(c).edges)
    forms: set[tuple[int, tuple[int, ...]]] = set()

    def explore(nodes, adj, remaining):
        if remaining == 0:
            return
        new_id = len(nodes)
        for t in range(len(nodes)):
            cu, wu = nodes[t]
            nf = (1 + cu, wu)
            forms.add(nf)
            explore(nodes + [nf], adj | {(t, new_id)}, remaining - 1)
        for i, j in sorted(adj):
            ci, wi = nodes[i]
            cj, wj = nodes[j]
            nf = (1 + ci + cj, tuple(a + b for a, b in zip(wi, wj)))
            forms.add(nf)
            explore(
                nodes + [nf],
                (adj - {(i, j)}) | {(i, new_id), (j, new_id)},
                remaining - 1,
            )

    explore(nodes, adj, depth)
    return sorted(forms)


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


def _row(c: germ.Cluster, cl: thresholds.Classification, enum_index: int) -> AtlasRow:
    """The row read from one curve's ``thresholds.classify`` record."""
    return AtlasRow(
        cluster=c,
        curve=cl.curve,
        k=germ.canonical_vector(c)[cl.curve],
        lct=cl.lct,
        gap=cl.gap,
        fingen_degree=valuation.fingen_degree(c, cl.curve),
        verdict=cl.verdict,
        witness=cl.witness,
        enum_index=enum_index,
    )


def atlas_rows(b: EnumBudget) -> list[AtlasRow]:
    """One row per (cluster, curve), in enumeration order."""
    return [
        _row(c, thresholds.classify(c, e), enum_index)
        for enum_index, c in enumerate(enumerate_clusters(b))
        for e in range(c.curve_count())
    ]


def rank_by_gap(rows) -> list[AtlasRow]:
    """Rank rows by gap descending, then fewer curves first, then
    enumeration order."""
    return sorted(
        rows,
        key=lambda r: (-r.gap, r.cluster.curve_count(), r.enum_index, r.curve),
    )


def _steps_json(c: germ.Cluster) -> str:
    return json.dumps(germ.cluster_to_json(c)["steps"], separators=(",", ":"))


def write_atlas_csv(rows, fh) -> None:
    w = csv.writer(fh)
    w.writerow(ATLAS_COLUMNS)
    for r in rows:
        w.writerow(
            (
                _base_label(r.cluster.base),
                _steps_json(r.cluster),
                r.curve,
                r.k,
                format_rational(r.lct),
                format_rational(r.gap),
                r.fingen_degree,
                r.verdict,
                "" if r.witness is None else r.witness,
            )
        )


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
            "budget": {
                "max_steps": self.budget.max_steps,
                "bases": [_base_label(b) for b in self.budget.bases],
                "ideal_coeff_bound": self.budget.ideal_coeff_bound,
                "lambda_denominator_bound": self.budget.lambda_denominator_bound,
                "extension_depth": self.budget.extension_depth,
            },
            "seed": self.seed,
            "counts": dict(self.counts),
            "suites": [
                {
                    "name": s.name,
                    "checked": s.checked,
                    "counterexamples": list(s.counterexamples),
                }
                for s in self.suites
            ],
            "total_counterexamples": self.counterexample_total(),
        }


@dataclass(frozen=True)
class _Case:
    """Everything the suites share about one enumerated cluster, computed
    once per cluster."""

    c: germ.Cluster
    budget: EnumBudget
    rows: list[AtlasRow]
    classes: list[thresholds.Classification]  # per curve, the record its row was read from
    k: tuple[int, ...]
    # (divisor, lct) of every enumerated ideal; PLUS_INFINITY for the trivial one
    ideals: list[tuple[tuple[int, ...], Fraction | thresholds._Infinity]]
    # per curve, its valuation ideals of degree 1..4 and m0..4m0, keyed by
    # degree; the multiples of m0 are unloaded from m·E alone, not from the
    # column, so the suites reading them check the column independently
    graded: list[dict[int, tuple[int, ...]]]
    extensions: list[germ.BlowupStep]  # sampled one-blowup extensions
    # (divisor, lambda, q·(log discrepancy per curve), minimum) of every
    # pair; lambda = p/q in lowest terms.  No grid exponent exceeds its
    # ideal's lct, so every pair is log canonical.
    pairs: list[tuple[tuple[int, ...], Fraction, list[int], int]]


def _case(b: EnumBudget, enum_index: int, c: germ.Cluster) -> _Case:
    n = c.curve_count()
    classes = [thresholds.classify(c, e) for e in range(n)]
    rows = [_row(c, cl, enum_index) for cl in classes]
    k = germ.canonical_vector(c)
    ideals = [
        (coeffs, thresholds.lct_ideal(c, thresholds.CompleteIdeal(coeffs)).value)
        for coeffs in antinef_ideals(c, b.ideal_coeff_bound)
    ]
    pairs = []
    for coeffs, lct in ideals:
        for lam in lambda_grid(c, coeffs, lct, b.lambda_denominator_bound):
            p, q = lam.numerator, lam.denominator
            vs = [q * (kj + 1) - p * dj for kj, dj in zip(k, coeffs)]
            pairs.append((coeffs, lam, vs, min(vs)))
    steps = germ.legal_steps(c)
    return _Case(
        c, b, rows, classes, k, ideals,
        graded=[
            {m: valuation.valuation_ideal(c, e, m) for m in range(1, 5) if m % m0}
            | {m: valuation.unload(c, [m * (j == e) for j in range(n)]) for m in range(m0, 5 * m0, m0)}
            for e, m0 in enumerate(r.fingen_degree for r in rows)
        ],
        # sampled deterministically when there are many
        extensions=steps[:: max(1, -(-len(steps) // _STABILITY_CAP))],
        pairs=pairs,
    )


def _found(failed: bool, **details) -> list[dict]:
    return [details] if failed else []


def _pair_details(coeffs, lam, **details) -> dict:
    return {**details, "ideal": list(coeffs), "lambda": format_rational(lam)}


def _dstar_unit(case: _Case):
    """dstar is positive at every curve and 1 at E."""
    for e in range(len(case.rows)):
        x = valuation.asymptotic_multiplicities(case.c, e)
        yield _found(x[e] != 1 or any(v <= 0 for v in x), curve=e)


def _oracle_equivalence(case: _Case):
    """Unloading m0·E gives m0·dstar at the finite-generation degree m0."""
    for row in case.rows:
        e, m0 = row.curve, row.fingen_degree
        yield _found(case.graded[e][m0] != valuation.fingen_ideal(case.c, e), curve=e, m0=m0)


def _ideal_monotonicity(case: _Case):
    """E's valuation ideals of degree 1..4 have pointwise growing divisors."""
    for e, g in enumerate(case.graded):
        ds = [g[m] for m in range(1, 5)]
        yield _found(any(a > b for da, db in zip(ds, ds[1:]) for a, b in zip(da, db)), curve=e)


def _graded_subadditivity(case: _Case):
    """The divisor of degree m + n is at most the sum of degrees m and n (m + n <= 4)."""
    splits = [(m, n) for m in range(1, 4) for n in range(1, 5 - m)]
    for e, g in enumerate(case.graded):
        over = any(s > a + b for m, n in splits for s, a, b in zip(g[m + n], g[m], g[n]))
        yield _found(over, curve=e)


def _rees_singleton(case: _Case):
    """E is the only Rees valuation of its ideals of degree m0, 2m0, 3m0, 4m0."""
    for row in case.rows:
        e, m0 = row.curve, row.fingen_degree
        ideals = (case.graded[e][mm * m0] for mm in range(1, 5))
        extra = any(valuation.rees_valuations(case.c, d) != frozenset((e,)) for d in ideals)
        yield _found(extra, curve=e, m0=m0)


def _model_stability(case: _Case):
    """One more blowup keeps E's multiplicities on the old curves and its asymptotic lct."""
    c, n = case.c, len(case.rows)
    for step in case.extensions:
        c2, label = germ.extend(c, step), repr(step)
        k2 = germ.canonical_vector(c2)
        for e, row in enumerate(case.rows):
            # E keeps its multiplicities on the old curves exactly when w2 extends
            # w: both are primitive and w2's new entry is a sum of old ones
            w2 = valuation.fingen_ideal(c2, e)
            val2 = min(Fraction((k2[j] + 1) * w2[e], w2[j]) for j in range(n + 1))
            changed = w2[:n] != valuation.fingen_ideal(c, e) or val2 != row.lct
            yield _found(changed, curve=e, step=label)


def _pullback_stability(case: _Case):
    """The curve of one more blowup does not lower a nonzero ideal's lct."""
    for step in case.extensions:
        refs, label = germ._step_refs(step), repr(step)
        new_k = 1 + sum(case.k[r] for r in refs)
        for coeffs, old in case.ideals:
            if any(coeffs):
                new_d = sum(coeffs[r] for r in refs)
                lowered = new_d > 0 and Fraction(new_k + 1, new_d) < old
                yield _found(lowered, ideal=list(coeffs), step=label)


def _lct_scaling(case: _Case):
    """lct(a^m) = lct(a)/m for m = 2, 3."""
    for coeffs, old in case.ideals:
        if any(coeffs):
            powers = ((mm, thresholds.CompleteIdeal(tuple(mm * v for v in coeffs))) for mm in (2, 3))
            wrong = any(thresholds.lct_ideal(case.c, a).value != old / mm for mm, a in powers)
            yield _found(wrong, ideal=list(coeffs))


def _lct_containment(case: _Case):
    """Of two nested ideals, the deeper one has the smaller lct."""
    stride = max(1, -(-len(case.ideals) // _CONTAINMENT_CAP))
    sample = case.ideals[::stride]
    for ia, (da, va) in enumerate(sample):
        for db, vb in sample[ia + 1 :]:
            dominates = all(a >= b for a, b in zip(da, db))
            if dominates or all(a <= b for a, b in zip(da, db)):
                # The bigger divisor cuts the deeper ideal.
                big, small = (va, vb) if dominates else (vb, va)
                failed = thresholds.PLUS_INFINITY not in (big, small) and big > small
                yield _found(failed, a=list(da), b=list(db))


def _lct_upper_bound(case: _Case):
    """E's asymptotic lct is at most k + 1."""
    for row in case.rows:
        yield _found(not row.lct <= row.k + 1, curve=row.curve)


def _prime_blowup_positive(case: _Case):
    """The one-divisor model's threshold lct - k is positive exactly when the gap is below 1.
    The gap is classify's; lct > k is read off the ideal d unloaded from m0·E,
    as (k_j + 1)·m0 > k·d_j at every curve j."""
    for row in case.rows:
        e, m0 = row.curve, row.fingen_degree
        positive = all((kj + 1) * m0 > row.k * dj for kj, dj in zip(case.k, case.graded[e][m0]))
        yield _found((row.gap < 1) != positive, curve=e)


def _unique_place_plt(case: _Case):
    """The unique lc place of a nonzero ideal, when there is one, is plt over the model."""
    for coeffs, _ in case.ideals:
        if any(coeffs):
            place = thresholds.unique_lc_place(case.c, thresholds.CompleteIdeal(coeffs))
            # the place is plt over the model divisors when it alone attains its asymptotic lct
            yield _found(place is not None and case.classes[place].argmin != {place}, ideal=list(coeffs))


def _gap_inequality(case: _Case):
    """Along every lc pair, each curve's log discrepancy is at least its gap."""
    gaps = [(r.gap.numerator, r.gap.denominator) for r in case.rows]
    for coeffs, lam, vs, _ in case.pairs:
        q = lam.denominator
        yield [
            _pair_details(coeffs, lam, curve=e)
            for e, (gn, gd) in enumerate(gaps)
            if vs[e] * gd < q * gn
        ]


def _gap_attainment(case: _Case):
    """A curve computing an lct has log discrepancy 0 along its unloaded
    ideal of degree m0 at that ideal's lct."""
    c = case.c
    for row in case.rows:
        if row.gap == 0:
            witness = thresholds.CompleteIdeal(case.graded[row.curve][row.fingen_degree])
            pair = thresholds.PairSpec(witness, thresholds.lct_ideal(c, witness).value)
            yield _found(thresholds.log_discrepancy(c, pair, row.curve) != row.gap, curve=row.curve)


def _witness_strictness(case: _Case):
    """A witness keeps a strictly smaller log discrepancy than its curve along nonzero lc pairs."""
    obstructions = [(r.curve, r.witness) for r in case.rows if r.verdict == "MldObstructed"]
    for coeffs, lam, vs, _ in case.pairs:
        if any(coeffs):
            yield [
                _pair_details(coeffs, lam, curve=e, witness=f)
                for e, f in obstructions
                if not vs[f] < vs[e]
            ]


def _mld_implies_lct(case: _Case):
    """A curve computing the mld of an lc pair with nonzero ideal computes an lct."""
    for coeffs, lam, vs, mn in case.pairs:
        if any(coeffs):
            yield [
                _pair_details(coeffs, lam, curve=j)
                for j, v in enumerate(vs)
                if v == mn and case.rows[j].gap != 0
            ]


def _classification_decisive(case: _Case):
    """Every curve either computes an lct or has an mld obstruction witness."""
    for row in case.rows:
        yield _found(row.verdict == "Indeterminate", curve=row.curve)


def _mld_extension_guard(case: _Case):
    """No curve within the extension depth goes below the model's mld (the model is a log resolution)."""
    forms = extension_forms(case.c, case.budget.extension_depth)
    if not forms:
        return
    # (k, ideal coefficient) of each extension curve, per ideal
    kd_of = {
        coeffs: sorted(
            {(const + sum(map(mul, ws, case.k)), sum(map(mul, ws, coeffs))) for const, ws in forms}
        )
        for coeffs, _ in case.ideals
    }
    for coeffs, lam, _, mn in case.pairs:
        p, q = lam.numerator, lam.denominator
        below = [(kk, dd) for kk, dd in kd_of[coeffs] if q * (kk + 1) - p * dd < mn][:1]
        yield [
            {"ideal": list(coeffs), "lambda": format_rational(lam), "ext_k": kk, "ext_d": dd}
            for kk, dd in below
        ]


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
    return {"base": _base_label(c.base), "steps": _steps_json(c)}


def verify_theorems(b: EnumBudget) -> VerificationReport:
    """Run every suite over the enumeration, plus the atlas spot check,
    which recomputes a seeded sample of the rows from a JSON round trip
    of their clusters.  Failures become counterexample entries in the
    report."""
    checked = dict.fromkeys(SUITE_NAMES, 0)
    bad: dict[str, list[dict]] = {name: [] for name in SUITE_NAMES}
    counts = dict.fromkeys(("clusters", "curves", "ideals", "lc_pairs", "lambda_checks"), 0)
    rows: list[AtlasRow] = []

    def record(name, ctx, checks):
        for details in checks:
            checked[name] += 1
            if details:
                bad[name].extend({**ctx, **d} for d in details)

    for enum_index, c in enumerate(enumerate_clusters(b)):
        case = _case(b, enum_index, c)
        counts["clusters"] += 1
        counts["curves"] += len(case.rows)
        counts["ideals"] += len(case.ideals)
        counts["lc_pairs"] += len(case.pairs)
        counts["lambda_checks"] += len(case.pairs)
        rows.extend(case.rows)
        ctx = _context(c)
        for name, suite in _SUITES.items():
            record(name, ctx, suite(case))

    rng = random.Random(ATLAS_SPOT_CHECK_SEED)
    if rows:
        for idx in sorted(rng.sample(range(len(rows)), max(1, len(rows) // 20))):
            row = rows[idx]
            fresh = germ.cluster_from_json(germ.cluster_to_json(row.cluster))
            changed = _row(fresh, thresholds.classify(fresh, row.curve), row.enum_index) != row
            record("atlas_spot_check", _context(row.cluster), [_found(changed, curve=row.curve)])

    suites = tuple(SuiteResult(name, checked[name], tuple(bad[name])) for name in SUITE_NAMES)
    return VerificationReport(b, ATLAS_SPOT_CHECK_SEED, counts, suites, tuple(rows))
