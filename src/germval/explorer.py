"""Bounded exhaustive enumeration of clusters and pairs, theorem-level
property sweeps, and the atlas dataset.

Clusters are enumerated up to the canonical identification in which free
blowups on the same curve are interchangeable (together with the induced
relabeling of their descendants); minimal-resolution curves are never
permuted.  Each class is represented by the lexicographically smallest
step encoding, found by brute force over valid relabelings, which is
cheap at desk scale.

Counterexamples found by the sweeps become report entries, never aborts:
the harness doubles as a probe for where the claims might fail
off-hypothesis.
"""

from __future__ import annotations

import csv
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

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


def cluster_signature(c: germ.Cluster) -> tuple:
    """Lexicographically smallest step encoding over all relabelings of
    the step curves that keep parents before children.  Two clusters get
    the same signature exactly when they differ by permuting
    interchangeable free blowups."""
    rank = c.base.rank()
    parents = germ.step_parents(c)
    t = len(parents)
    label = _base_label(c.base)
    if t == 0:
        return (label,)
    best: tuple | None = None
    for perm in permutations(range(t)):
        tokens: list[tuple[int, ...] | None] = [None] * t
        ok = True
        for i, ps in enumerate(parents):
            for p in ps:
                if p >= rank and perm[p - rank] >= perm[i]:
                    ok = False
                    break
            if not ok:
                break
            tokens[perm[i]] = tuple(
                sorted(p if p < rank else rank + perm[p - rank] for p in ps)
            )
        if ok:
            cand = tuple(tokens)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return (label,) + best


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
                    sig = cluster_signature(germ.extend(c, step))
                    if sig not in seen:
                        seen.add(sig)
                        fresh[sig] = cluster_from_signature(sig)
            wave = [fresh[s] for s in sorted(fresh)]
            yield from wave


# -- pair enumeration ----------------------------------------------------


def antinef_ideals(c: germ.Cluster, bound: int) -> list[tuple[int, ...]]:
    """Antinef closures of every coefficient vector bounded by ``bound``,
    deduplicated and sorted.  Closures may exceed the bound pointwise."""
    n = c.curve_count()
    out = {valuation.unload(c, v) for v in product(range(bound + 1), repeat=n)}
    return sorted(out)


def lambda_grid(c: germ.Cluster, coeffs, qmax: int) -> list[Fraction]:
    """Exponents to sweep for one ideal: every p/q in (0, lct] with
    q <= qmax, plus the crossing values where two curves' log
    discrepancies agree.  The trivial ideal gets the single exponent 1
    (its log discrepancies do not depend on the exponent)."""
    k = germ.canonical_vector(c)
    support = [j for j, d in enumerate(coeffs) if d > 0]
    if not support:
        return [Fraction(1)]
    lct = min(Fraction(k[j] + 1, coeffs[j]) for j in support)
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


def enumerate_pairs(c: germ.Cluster, b: EnumBudget):
    """Yield PairSpec values for every enumerated ideal and exponent."""
    for coeffs in antinef_ideals(c, b.ideal_coeff_bound):
        ideal = thresholds.CompleteIdeal(coeffs)
        for lam in lambda_grid(c, coeffs, b.lambda_denominator_bound):
            yield thresholds.PairSpec(ideal, lam)


# -- depth-bounded model extensions --------------------------------------


def extension_forms(c: germ.Cluster, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """Affine forms (constant, weights) of every curve reachable by at
    most ``depth`` further blowups: the new curve's canonical coefficient
    is constant + weights . k, and its ideal coefficient is weights . d
    for any divisorial ideal d on the model."""
    if depth <= 0:
        return []
    m = germ.intersection_matrix(c)
    n = len(m)
    nodes = [
        (0, tuple(1 if i == j else 0 for i in range(n))) for j in range(n)
    ]
    adj = frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] == 1
    )
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


def _rows_for_cluster(task: tuple[int, germ.Cluster]) -> list[AtlasRow]:
    enum_index, c = task
    k = germ.canonical_vector(c)
    rows = []
    for e in range(c.curve_count()):
        cl = thresholds.classify(c, e)
        rows.append(
            AtlasRow(
                cluster=c,
                curve=e,
                k=k[e],
                lct=thresholds.asymptotic_lct(c, e).value,
                gap=thresholds.lct_gap(c, e),
                fingen_degree=valuation.fingen_degree(c, e),
                verdict=cl.verdict,
                witness=cl.witness,
                enum_index=enum_index,
            )
        )
    return rows


def atlas_rows(b: EnumBudget, jobs: int = 1) -> list[AtlasRow]:
    """One row per (cluster, curve); deterministic regardless of the
    worker count (results are merged in enumeration order)."""
    tasks = list(enumerate(enumerate_clusters(b)))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_rows_for_cluster, tasks))
    else:
        chunks = [_rows_for_cluster(t) for t in tasks]
    return [row for chunk in chunks for row in chunk]


def rank_by_gap(rows) -> list[AtlasRow]:
    """Rank rows by gap descending, then fewer curves first, then
    enumeration order."""
    return sorted(
        rows,
        key=lambda r: (-r.gap, r.cluster.curve_count(), r.enum_index, r.curve),
    )


def extremal_gaps(b: EnumBudget, jobs: int = 1) -> list[AtlasRow]:
    return rank_by_gap(atlas_rows(b, jobs=jobs))


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

SUITE_NAMES = (
    "dstar_unit",
    "oracle_equivalence",
    "ideal_monotonicity",
    "graded_subadditivity",
    "rees_singleton",
    "model_stability",
    "pullback_stability",
    "lct_scaling",
    "lct_containment",
    "lct_upper_bound",
    "prime_blowup_positive",
    "unique_place_plt",
    "gap_inequality",
    "gap_attainment",
    "witness_strictness",
    "mld_implies_lct",
    "classification_decisive",
    "mld_extension_guard",
    "atlas_spot_check",
)


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


def verify_theorems(b: EnumBudget) -> VerificationReport:
    """Run every invariant suite of the valuation and thresholds modules
    over the enumeration, plus the atlas spot check.  Failures become
    counterexample entries in the report."""
    checked = {name: 0 for name in SUITE_NAMES}
    bad: dict[str, list[dict]] = {name: [] for name in SUITE_NAMES}
    counts = {"clusters": 0, "curves": 0, "ideals": 0, "lc_pairs": 0, "lambda_checks": 0}
    all_rows: list[AtlasRow] = []

    for enum_index, c in enumerate(enumerate_clusters(b)):
        counts["clusters"] += 1
        ctx = {"base": _base_label(c.base), "steps": _steps_json(c)}
        n = c.curve_count()
        k = germ.canonical_vector(c)
        kp1 = [k[j] + 1 for j in range(n)]

        dstars = []
        m0s = []
        lct_flags = []
        plt_flags = []
        gaps = []
        obstructions: list[tuple[int, int]] = []
        for e in range(n):
            counts["curves"] += 1
            x = valuation.asymptotic_multiplicities(c, e)
            dstars.append(x)
            checked["dstar_unit"] += 1
            if x[e] != 1 or any(v <= 0 for v in x):
                bad["dstar_unit"].append({**ctx, "curve": e})

            m0 = valuation.fingen_degree(c, e)
            m0s.append(m0)
            checked["oracle_equivalence"] += 1
            scaled = tuple(int(v * m0) for v in x)
            if valuation.valuation_ideal(c, e, m0) != scaled:
                bad["oracle_equivalence"].append({**ctx, "curve": e, "m0": m0})

            ideals_m = [valuation.valuation_ideal(c, e, m) for m in range(1, 5)]
            checked["ideal_monotonicity"] += 1
            if not all(
                a <= bb for da, db in zip(ideals_m, ideals_m[1:]) for a, bb in zip(da, db)
            ):
                bad["ideal_monotonicity"].append({**ctx, "curve": e})
            checked["graded_subadditivity"] += 1
            ok = True
            for mm in range(1, 4):
                for nn in range(1, 5 - mm):
                    dm, dn, dmn = ideals_m[mm - 1], ideals_m[nn - 1], ideals_m[mm + nn - 1]
                    if any(s > a + bb for s, a, bb in zip(dmn, dm, dn)):
                        ok = False
            if not ok:
                bad["graded_subadditivity"].append({**ctx, "curve": e})

            checked["rees_singleton"] += 1
            if any(
                valuation.rees_valuations(c, valuation.valuation_ideal(c, e, mm * m0))
                != frozenset((e,))
                for mm in range(1, 5)
            ):
                bad["rees_singleton"].append({**ctx, "curve": e, "m0": m0})

            report = thresholds.asymptotic_lct(c, e)
            gap = thresholds.lct_gap(c, e)
            gaps.append(gap)
            lct_flags.append(report.value == kp1[e])
            plt_flags.append(thresholds.plt_check(c, e))
            checked["lct_upper_bound"] += 1
            if not report.value <= kp1[e]:
                bad["lct_upper_bound"].append({**ctx, "curve": e})
            checked["prime_blowup_positive"] += 1
            if report.prime_blowup_lct != report.value - k[e] or (
                (gap < 1) != (report.prime_blowup_lct > 0)
            ):
                bad["prime_blowup_positive"].append({**ctx, "curve": e})

            if gap == 0:
                checked["gap_attainment"] += 1
                witness = thresholds.lct_witness_ideal(c, e)
                lam = thresholds.lct_ideal(c, witness).value
                pairw = thresholds.PairSpec(witness, lam)
                if thresholds.log_discrepancy(c, pairw, e) != gap:
                    bad["gap_attainment"].append({**ctx, "curve": e})

            cl = thresholds.classify(c, e)
            checked["classification_decisive"] += 1
            if cl.verdict == "Indeterminate":
                bad["classification_decisive"].append({**ctx, "curve": e})
            if cl.verdict == "MldObstructed":
                obstructions.append((e, cl.witness))
            all_rows.append(
                AtlasRow(c, e, k[e], report.value, gap, m0, cl.verdict, cl.witness, enum_index)
            )

        # Stability under one extra blowup: retained multiplicities,
        # retained thresholds, and thresholds of pulled-back ideals.
        # Extensions are sampled deterministically when there are many.
        ideals = antinef_ideals(c, b.ideal_coeff_bound)
        counts["ideals"] += len(ideals)
        lct_vals = []
        for coeffs in ideals:
            support = [j for j in range(n) if coeffs[j] > 0]
            lct_vals.append(
                min(Fraction(kp1[j], coeffs[j]) for j in support) if support else None
            )
        ext_steps = germ.legal_steps(c)
        ext_steps = ext_steps[:: max(1, -(-len(ext_steps) // _STABILITY_CAP))]
        for step in ext_steps:
            c2 = germ.extend(c, step)
            refs = germ._step_refs(step)
            k2 = germ.canonical_vector(c2)
            for e in range(n):
                x2 = valuation.asymptotic_multiplicities(c2, e)
                checked["model_stability"] += 1
                val2 = min(Fraction(k2[j] + 1) / x2[j] for j in range(n + 1))
                if x2[:n] != dstars[e] or val2 != kp1[e] - gaps[e]:
                    bad["model_stability"].append({**ctx, "curve": e, "step": repr(step)})
            new_k = 1 + sum(k[r] for r in refs)
            for coeffs, old in zip(ideals, lct_vals):
                if old is None:
                    continue
                checked["pullback_stability"] += 1
                new_d = sum(coeffs[r] for r in refs)
                if new_d > 0 and Fraction(new_k + 1, new_d) < old:
                    bad["pullback_stability"].append({**ctx, "ideal": list(coeffs), "step": repr(step)})

        for coeffs, old in zip(ideals, lct_vals):
            if old is None:
                continue
            checked["lct_scaling"] += 1
            scaled_ok = all(
                thresholds.lct_ideal(
                    c, thresholds.CompleteIdeal(tuple(mm * v for v in coeffs))
                ).value
                == old / mm
                for mm in (2, 3)
            )
            if not scaled_ok:
                bad["lct_scaling"].append({**ctx, "ideal": list(coeffs)})
            checked["unique_place_plt"] += 1
            place = thresholds.unique_lc_place(c, thresholds.CompleteIdeal(coeffs))
            if place is not None and not plt_flags[place]:
                bad["unique_place_plt"].append({**ctx, "ideal": list(coeffs)})

        stride = max(1, -(-len(ideals) // _CONTAINMENT_CAP))
        sample = list(zip(ideals, lct_vals))[::stride]
        for ia, (da, va) in enumerate(sample):
            for db, vb in sample[ia + 1 :]:
                dominates = all(a >= bb for a, bb in zip(da, db))
                dominated = all(a <= bb for a, bb in zip(da, db))
                if not (dominates or dominated):
                    continue
                checked["lct_containment"] += 1
                # The bigger divisor cuts the deeper ideal, so its
                # threshold must not exceed the smaller divisor's.
                big, small = (va, vb) if dominates else (vb, va)
                if big is not None and small is not None and big > small:
                    bad["lct_containment"].append({**ctx, "a": list(da), "b": list(db)})

        # Exact integer sweep over every enumerated pair of this cluster.
        gap_nd = [(g.numerator, g.denominator) for g in gaps]
        forms = extension_forms(c, b.extension_depth)
        for coeffs in ideals:
            nonzero = any(coeffs)
            kd = sorted(
                {(const + sum(w * kv for w, kv in zip(ws, k)), sum(w * dv for w, dv in zip(ws, coeffs)))
                 for const, ws in forms}
            )
            for lam in lambda_grid(c, coeffs, b.lambda_denominator_bound):
                counts["lambda_checks"] += 1
                p, q = lam.numerator, lam.denominator
                vs = [q * kp1[j] - p * coeffs[j] for j in range(n)]
                mn = min(vs)
                if mn < 0:
                    continue
                counts["lc_pairs"] += 1
                if nonzero:
                    checked["mld_implies_lct"] += 1
                    for j in range(n):
                        if vs[j] == mn and not lct_flags[j]:
                            bad["mld_implies_lct"].append(
                                {**ctx, "curve": j, "ideal": list(coeffs), "lambda": format_rational(lam)}
                            )
                    checked["witness_strictness"] += 1
                    for e, f in obstructions:
                        if not vs[f] < vs[e]:
                            bad["witness_strictness"].append(
                                {**ctx, "curve": e, "witness": f, "ideal": list(coeffs), "lambda": format_rational(lam)}
                            )
                checked["gap_inequality"] += 1
                for e in range(n):
                    gn, gd = gap_nd[e]
                    if vs[e] * gd < q * gn:
                        bad["gap_inequality"].append(
                            {**ctx, "curve": e, "ideal": list(coeffs), "lambda": format_rational(lam)}
                        )
                if forms:
                    checked["mld_extension_guard"] += 1
                    for kk, dd in kd:
                        if q * (kk + 1) - p * dd < mn:
                            bad["mld_extension_guard"].append(
                                {**ctx, "ideal": list(coeffs), "lambda": format_rational(lam), "ext_k": kk, "ext_d": dd}
                            )
                            break

    rng = random.Random(ATLAS_SPOT_CHECK_SEED)
    if all_rows:
        size = max(1, len(all_rows) // 20)
        for idx in sorted(rng.sample(range(len(all_rows)), size)):
            row = all_rows[idx]
            checked["atlas_spot_check"] += 1
            fresh = germ.cluster_from_json(germ.cluster_to_json(row.cluster))
            cl = thresholds.classify(fresh, row.curve)
            same = (
                germ.canonical_vector(fresh)[row.curve] == row.k
                and thresholds.asymptotic_lct(fresh, row.curve).value == row.lct
                and thresholds.lct_gap(fresh, row.curve) == row.gap
                and valuation.fingen_degree(fresh, row.curve) == row.fingen_degree
                and (cl.verdict, cl.witness) == (row.verdict, row.witness)
            )
            if not same:
                bad["atlas_spot_check"].append(
                    {"base": _base_label(row.cluster.base), "steps": _steps_json(row.cluster), "curve": row.curve}
                )

    suites = tuple(
        SuiteResult(name, checked[name], tuple(bad[name])) for name in SUITE_NAMES
    )
    return VerificationReport(b, ATLAS_SPOT_CHECK_SEED, counts, suites, tuple(all_rows))
