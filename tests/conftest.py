import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from operator import mul

import pytest

from germval import explorer, germ, thresholds, valuation
from germval.cli import satellite_chain, single_blowup
from germval.errors import InvalidStep, NotAntinef
from germval.exact import format_rational
from germval.explorer import EnumBudget, verify_theorems

__all__ = ["satellite_chain", "single_blowup"]


def chain2() -> germ.Cluster:
    """Two blowups: a free point, then a free point on its curve."""
    return germ.build(germ.SMOOTH, (germ.Free(None), germ.Free(0)))


def simulate_stepwise(base: germ.BaseGerm, steps) -> tuple:
    """(steps, self-intersections, neighbour tuples, k) of the cluster,
    simulated step by step through ``germ.step_refs`` with each check made
    for every kind of step, raising the InvalidStep of the first illegal
    one: the oracle for the per-kind blowup of ``germ.build`` and
    ``germ.extend``."""
    steps = tuple(steps)
    if base.is_smooth and not steps:
        raise InvalidStep(0, "a smooth base needs at least one blowup")
    self_int = [-2] * base.rank()
    nb_sets: list[set[int]] = [set() for _ in self_int]
    for i, j in [] if base.is_smooth else germ._dynkin_edges(base.dynkin):
        nb_sets[i].add(j)
        nb_sets[j].add(i)
    nbrs, k = [tuple(sorted(nb)) for nb in nb_sets], [0] * len(self_int)
    for idx, step in enumerate(steps):
        n = len(self_int)
        refs = germ.step_refs(step)
        if isinstance(step, germ.Free) and step.on is None:
            if not base.is_smooth:
                raise InvalidStep(idx, "blowup of the base point needs a smooth base")
            if idx != 0:
                raise InvalidStep(idx, "blowup of the base point is only legal first")
        elif isinstance(step, germ.Satellite) and step.on[0] == step.on[1]:
            raise InvalidStep(idx, "satellite needs two distinct curves")
        if base.is_smooth and idx == 0 and not (isinstance(step, germ.Free) and step.on is None):
            raise InvalidStep(idx, "the first step over a smooth base blows up the base point")
        for r in refs:
            if not 0 <= r < n:
                raise InvalidStep(idx, f"curve {r} does not exist yet")
        if isinstance(step, germ.Satellite):
            i, j = step.on
            if j not in nbrs[i]:
                raise InvalidStep(idx, f"curves {i} and {j} do not meet at this step")
            nbrs[i] = tuple(v for v in nbrs[i] if v != j)
            nbrs[j] = tuple(v for v in nbrs[j] if v != i)
        self_int.append(-1)
        nbrs.append(refs)
        for r in refs:
            nbrs[r] += (n,)
            self_int[r] -= 1
        k.append(1 + sum(k[r] for r in refs))
    return steps, tuple(self_int), tuple(nbrs), tuple(k)


def cluster_doc_stepwise(doc) -> tuple:
    """What ``simulate_stepwise`` gives for a cluster JSON document, whose
    steps are read one check at a time, raising the ValueError of the first
    malformed part: the oracle for ``germ.cluster_from_json``."""

    def is_curve_id(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    if not isinstance(doc, dict):
        raise ValueError("cluster document must be a JSON object")
    base_doc = doc.get("base")
    if base_doc == "smooth":
        base = germ.SMOOTH
    elif isinstance(base_doc, dict) and set(base_doc) == {"du_val"}:
        base = germ.du_val(str(base_doc["du_val"]))
    else:
        raise ValueError('"base" must be "smooth" or {"du_val": <label>}')
    steps_doc = doc.get("steps")
    if not isinstance(steps_doc, list):
        raise ValueError('"steps" must be a list')
    steps: list[germ.BlowupStep] = []
    for idx, s in enumerate(steps_doc):
        if not isinstance(s, dict) or "kind" not in s:
            raise ValueError(f"steps[{idx}]: not a step object")
        kind = s["kind"]
        if kind == "free":
            on = s.get("on")
            if not (on is None or is_curve_id(on)):
                raise ValueError(f"steps[{idx}]: free 'on' must be null or an int")
            steps.append(germ.Free(on))
        elif kind == "satellite":
            on = s.get("on")
            if not isinstance(on, list) or len(on) != 2 or not all(is_curve_id(v) for v in on):
                raise ValueError(f"steps[{idx}]: satellite 'on' must be [int, int]")
            steps.append(germ.Satellite((on[0], on[1])))
        else:
            raise ValueError(f"steps[{idx}]: unknown kind {kind!r}")
    return simulate_stepwise(base, steps)


def outcome(make) -> tuple:
    """What ``make()`` gives, as comparable data: ("ok", value), with a
    cluster taken as (steps, self-intersections, neighbours, k), or the
    error it raises: InvalidStep with its index and reason, ValueError with
    its message."""
    try:
        got = make()
    except InvalidStep as exc:
        return "InvalidStep", exc.index, exc.reason
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(got, germ.Cluster):
        got = got.steps, got._self, got._nbrs, got._k
    return "ok", got


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

    The oracle for ``explorer.is_canonical_extension``, which keeps an
    extension exactly when this is its own step encoding.
    """
    rank = c.base.rank()
    parents = germ.step_parents(c)
    if step is not None:
        parents += (germ.step_refs(step),)
    t = len(parents)
    if t == 0:
        return (c.base.label,)
    key = explorer._subtree_keys(rank, parents)
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
    return (c.base.label,) + best


def cluster_signature_permutations(c: germ.Cluster) -> tuple:
    """Lexicographically smallest step encoding, found by trying all t!
    orders of the t steps and keeping those that place every curve after
    its parents: the oracle for the search in ``cluster_signature``."""
    rank = c.base.rank()
    parents = germ.step_parents(c)
    t = len(parents)
    best: tuple | None = None
    for perm in permutations(range(t)):
        if any(p >= rank and perm[p - rank] >= perm[i] for i, ps in enumerate(parents) for p in ps):
            continue
        tokens: list = [None] * t
        for i, ps in enumerate(parents):
            tokens[perm[i]] = tuple(sorted(p if p < rank else rank + perm[p - rank] for p in ps))
        if best is None or tuple(tokens) < best:
            best = tuple(tokens)
    return ("smooth" if c.base.is_smooth else c.base.dynkin,) + best


def enumerate_clusters_wave_wide(b: EnumBudget):
    """Every class within the budget, in the order ``explorer.enumerate_clusters``
    promises, enumerated without the tree: every legal step of every cluster
    of a wave goes into one dict keyed by the extension's signature, and
    the next wave is each key, in sorted order, built afresh from its
    tokens.  The oracle for the enumeration, which reads each class's parent
    off its signature instead."""

    def from_signature(sig):
        steps = [germ.Satellite(tok) if len(tok) == 2 else germ.Free(tok[0] if tok else None) for tok in sig[1:]]
        return germ.build(base, steps)

    for base in b.bases:
        wave = [germ.build(base, (germ.Free(None),) if base.is_smooth else ())]
        yield from wave
        while wave and len(wave[0].steps) < b.max_steps:
            fresh: dict[tuple, germ.Cluster] = {}
            for c in wave:
                for step in germ.legal_steps(c):
                    sig = cluster_signature(c, step)
                    if sig not in fresh:
                        fresh[sig] = from_signature(sig)
            wave = [fresh[s] for s in sorted(fresh)]
            yield from wave


def renumber(c: germ.Cluster, rng: random.Random) -> germ.Cluster:
    """The same cluster with its steps in a random order that keeps every
    curve after the curves it is blown up on.  A satellite stays legal,
    since only its own step ends the meeting of its two curves."""
    rank = c.base.rank()
    parents = germ.step_parents(c)
    waiting = [sum(p >= rank for p in ps) for ps in parents]  # parents not yet placed
    users: list[list[int]] = [[] for _ in parents]
    for i, ps in enumerate(parents):
        for p in ps:
            if p >= rank:
                users[p - rank].append(i)
    new_id = list(range(rank)) + [0] * len(parents)
    order: list[int] = []
    ready = [i for i, w in enumerate(waiting) if w == 0]
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        new_id[rank + i] = rank + len(order)
        order.append(i)
        for j in users[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                ready.append(j)
    steps: list[germ.BlowupStep] = []
    for i in order:
        s = c.steps[i]
        if isinstance(s, germ.Free):
            steps.append(germ.Free(None if s.on is None else new_id[s.on]))
        else:
            steps.append(germ.Satellite((new_id[s.on[0]], new_id[s.on[1]])))
    return germ.build(c.base, steps)


def cold_valuation_ideal(c: germ.Cluster, e: int, m: int) -> tuple[int, ...]:
    """The valuation ideal of degree m unloaded from m·E itself, without
    the warm start from the column that ``valuation.valuation_ideal``
    takes: the oracle wherever the claim is that unloading agrees with
    dstar."""
    return valuation.unload(c, tuple(m if j == e else 0 for j in range(c.curve_count())))


def unload_dense(c: germ.Cluster, z) -> tuple[int, ...]:
    """Unloading over the dense matrix: while some curve meets the divisor
    positively, bump the first such curve by the least multiple that
    makes its product nonpositive, and rescan.  The oracle for the
    worklist over the dual graph in ``valuation.unload``."""
    m = germ.intersection_matrix(c)
    d = list(z)
    n = len(d)
    while True:
        prods = [sum(m[j][i] * d[i] for i in range(n)) for j in range(n)]
        bad = [j for j in range(n) if prods[j] > 0]
        if not bad:
            return tuple(d)
        j = bad[0]
        d[j] += -(-prods[j] // -m[j][j])


def oracle_lct_unloading(c: germ.Cluster, e: int, mmax: int = 2000, start: int = 1) -> Fraction:
    """Threshold of the graded sequence of E computed through unloading
    alone: find the first degree from ``start`` on where the valuation
    ideal becomes numerically trivial against the other curves, then take
    the minimal ratio.  Every such degree gives the same ratio.
    Independent of the linear-algebra multiplicity path."""
    m = germ.intersection_matrix(c)
    k = germ.canonical_vector(c)
    n = len(k)
    for mm in range(start, mmax + 1):
        z = [0] * n
        z[e] = mm
        d = valuation.unload(c, z)
        prods = [sum(m[j][i] * d[i] for i in range(n)) for j in range(n)]
        if all(prods[j] == 0 for j in range(n) if j != e):
            return min(Fraction((k[j] + 1) * mm, d[j]) for j in range(n))
    raise AssertionError(f"no stable degree below {mmax}")


def antinef_ideals_bruteforce(c: germ.Cluster, bound: int) -> list[tuple[int, ...]]:
    """Antinef closures of all (bound+1)^n coefficient vectors bounded by
    ``bound``, deduplicated and sorted: the definition the per-curve join
    passes of ``explorer.antinef_ideals`` must reproduce."""
    n = c.curve_count()
    return sorted({valuation.unload(c, v) for v in product(range(bound + 1), repeat=n)})


def meeting_pairs(m) -> list[tuple[int, int]]:
    """The pairs i < j of curves that meet, read off the 1-entries of the
    intersection matrix ``m``, sorted."""
    return [(i, j) for i in range(len(m)) for j in range(i + 1, len(m)) if m[i][j] == 1]


def extension_forms(c: germ.Cluster, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """Forms (k, weights) of every curve reachable by at most ``depth``
    further blowups: the new curve's canonical coefficient is k, and its
    ideal coefficient is weights . d for any divisorial ideal d on the
    model.  The curve of a point on curves T gets k = 1 + sum of their k
    and the sum of their weights.  The least (k, weights . d) over the
    forms below a threshold is what ``explorer._extension_below`` must give
    for the ideal d.

    A curve over the model depends only on its chain of infinitely near
    points (Casas-Alvero, *Singularities of Plane Curves*, ch. 3), so the
    walk follows chains instead of every order of blowups.  The first
    centre is a point ``germ.legal_steps`` offers on the model.  Each
    later centre lies on the newest curve f: its free point, or where f
    meets a curve through f's own centre.  A new curve meets only the
    curves through its centre, and curves never change their form, so a
    blowup off a chain leaves the forms along it unchanged and no other
    centre arises.
    """
    if depth < 1:
        return []
    k = germ.canonical_vector(c)
    unit = [(kj, tuple(int(i == j) for i in range(len(k)))) for j, kj in enumerate(k)]

    def blowup(through):  # (the new curve's form, the forms through its centre)
        ws = tuple(map(sum, zip(*(w for _, w in through))))
        return (1 + sum(kt for kt, _ in through), ws), through

    level = {blowup(tuple(unit[r] for r in germ.step_refs(s))) for s in germ.legal_steps(c)}
    forms = {f for f, _ in level}
    for _ in range(depth - 1):
        level = {blowup(t) for f, through in level for t in ((f,), *((f, g) for g in through))}
        forms |= {f for f, _ in level}
    return sorted(forms)


def extension_forms_sequences(c: germ.Cluster, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """Forms (k, weights) of every curve reached by some ordered sequence
    of at most ``depth`` blowups over the model, each at a free point of
    any curve or at any meeting point of two curves, tracking which
    meetings each blowup consumes and creates: the oracle for the chain
    walk of ``extension_forms``."""
    if depth <= 0:
        return []
    n = c.curve_count()
    nodes = [(0, tuple(1 if i == j else 0 for i in range(n))) for j in range(n)]
    adj = frozenset(meeting_pairs(germ.intersection_matrix(c)))
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
            explore(nodes + [nf], (adj - {(i, j)}) | {(i, new_id), (j, new_id)}, remaining - 1)

    explore(nodes, adj, depth)
    # the walk above keeps k as constant + weights . k on the model
    k = germ.canonical_vector(c)
    return sorted({(const + sum(map(mul, ws, k)), ws) for const, ws in forms})


def prune_to_ancestors(c: germ.Cluster, curve: int) -> tuple[germ.Cluster, dict[int, int]]:
    """Restrict the cluster to the ancestors of ``curve``.

    Returns the pruned cluster and the old-id -> new-id map.  Dropping
    non-ancestor steps keeps every remaining step legal: a satellite's
    intersection point can only have been consumed by the satellite step
    itself, which is an ancestor whenever its curve is kept.  When every
    curve is an ancestor the cluster itself is returned.
    """
    keep = germ.ancestor_curves(c, curve)
    if len(keep) == c.curve_count():
        return c, {i: i for i in range(len(keep))}
    rank = c.base.rank()
    old_to_new = {i: i for i in range(rank)}
    new_steps: list[germ.BlowupStep] = []
    for idx, step in enumerate(c.steps):
        old_id = rank + idx
        if old_id not in keep:
            continue
        old_to_new[old_id] = rank + len(new_steps)
        if isinstance(step, germ.Free):
            new_steps.append(germ.Free(None if step.on is None else old_to_new[step.on]))
        else:
            i, j = step.on
            new_steps.append(germ.Satellite((old_to_new[i], old_to_new[j])))
    return germ.build(c.base, new_steps), old_to_new


def classify_pruned(c: germ.Cluster, e: int) -> thresholds.Classification:
    """The classification read from E's Fraction multiplicities on the
    cluster pruned to E's ancestors, with ids mapped back: what
    ``thresholds.classify`` must give, its ``argmin`` cut to the
    ancestors, without building the pruned cluster."""
    pruned, old_to_new = prune_to_ancestors(c, e)
    new_to_old = {v: o for o, v in old_to_new.items()}  # keeps the order of ids
    pe = old_to_new[e]
    k = germ.canonical_vector(pruned)
    x = valuation.asymptotic_multiplicities(pruned, pe)
    ratios = sorted(((k[j] + 1) / x[j], k[j], new_to_old[j]) for j in range(len(k)))
    value = ratios[0][0]
    gap = k[pe] + 1 - value
    argmin = frozenset(j for r, _, j in ratios if r == value)
    if gap == 0:
        return thresholds.Classification(e, "ComputesLct", None, value, gap, argmin)
    found = [j for r, kj, j in ratios if j != e and kj <= k[pe] and r < k[pe] + 1]
    if found:
        return thresholds.Classification(e, "MldObstructed", found[0], value, gap, argmin)
    return thresholds.Classification(e, "Indeterminate", None, value, gap, argmin)


def check_classify_against_pruned(clusters) -> None:
    """``thresholds.classify`` builds no cluster and, its argmin cut to
    the ancestors, equals ``classify_pruned`` on every curve of the given
    clusters."""
    clusters = list(clusters)
    post_init = germ.Cluster.__post_init__
    built = 0

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    germ.Cluster.__post_init__ = counting_post_init
    try:
        got = [[thresholds.classify(c, e) for e in range(c.curve_count())] for c in clusters]
    finally:
        germ.Cluster.__post_init__ = post_init
    assert built == 0
    for c, cls in zip(clusters, got):
        cut = [replace(cl, argmin=cl.argmin & germ.ancestor_curves(c, cl.curve)) for cl in cls]
        assert cut == [classify_pruned(c, e) for e in range(c.curve_count())], c


def leading_principal_minors(m) -> tuple[Fraction, ...]:
    """Determinants of the leading k x k blocks of an integer matrix,
    k = 1..n, by fraction-free (Bareiss) elimination without row
    exchanges.  A zero pivot stalls the sweep, so from there on the minors
    come from cofactor expansion of the untouched matrix."""
    n = len(m)
    a = [list(row) for row in m]
    minors: list[Fraction] = []
    prev = 1
    clean = True
    for k in range(n):
        clean = clean and a[k][k] != 0
        if not clean:
            minors.append(_det_cofactor([list(row[: k + 1]) for row in m[: k + 1]]))
            continue
        pk = a[k][k]
        minors.append(Fraction(pk))
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (pk * a[i][j] - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pk
    return tuple(minors)


def _det_cofactor(a) -> Fraction:
    if not a:
        return Fraction(1)
    det = Fraction(0)
    for j, v in enumerate(a[0]):
        if v:
            det += (-1) ** j * v * _det_cofactor([row[:j] + row[j + 1 :] for row in a[1:]])
    return det


def is_negative_definite(m) -> bool:
    """Sylvester's criterion: the leading principal minors alternate in
    sign, starting negative."""
    return all(minor * (-1) ** (k + 1) > 0 for k, minor in enumerate(leading_principal_minors(m)))


def proximity_factors(c: germ.Cluster):
    """(P, D) with M = P·D·Pᵀ, rebuilt from the step parents: P is
    unitriangular with P[p][j] = -1 when curve p passes through the center
    of the step creating curve j; D is the minimal-resolution matrix of
    the base followed by -1 on every step curve."""
    rank, n = c.base.rank(), c.curve_count()
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for idx, parents in enumerate(germ.step_parents(c)):
        for q in parents:
            p[q][rank + idx] = -1
    d = [[-int(i == j) for j in range(n)] for i in range(n)]
    if rank:
        for i, row in enumerate(germ.intersection_matrix(germ.build(c.base, ()))):
            d[i][:rank] = row
    return p, d


def lc_pairs(case):
    """(divisor, lambda, q·(log discrepancy per curve), minimum) of every
    pair of a sweep case, ideal by ideal over ``explorer.lambda_grid``,
    lambda = p/q in lowest terms: the per-pair data of the oracle suites
    below."""
    for coeffs, report in case.ideals:
        for lam in explorer.lambda_grid(case.c, coeffs, report.value, case.budget.lambda_denominator_bound):
            p, q = lam.numerator, lam.denominator
            vs = [q * (kj + 1) - p * dj for kj, dj in zip(case.k, coeffs)]
            yield coeffs, lam, vs, min(vs)


def _details(coeffs, lam, **details) -> dict:
    return {**details, "ideal": list(coeffs), "lambda": format_rational(lam)}


def pairwise_gap_inequality(case):
    gaps = [(r.gap.numerator, r.gap.denominator) for r in case.rows]
    for coeffs, lam, vs, _ in lc_pairs(case):
        q = lam.denominator
        yield [_details(coeffs, lam, curve=e) for e, (gn, gd) in enumerate(gaps) if vs[e] * gd < q * gn]


def pairwise_witness_strictness(case):
    obstructions = [(r.curve, r.witness) for r in case.rows if r.verdict == "MldObstructed"]
    for coeffs, lam, vs, _ in lc_pairs(case):
        if any(coeffs):
            yield [_details(coeffs, lam, curve=e, witness=f) for e, f in obstructions if not vs[f] < vs[e]]


def pairwise_mld_implies_lct(case):
    for coeffs, lam, vs, mn in lc_pairs(case):
        if any(coeffs):
            yield [_details(coeffs, lam, curve=j) for j, v in enumerate(vs) if v == mn and case.rows[j].gap != 0]


def pairwise_mld_extension_guard(case):
    forms = extension_forms(case.c, case.budget.extension_depth)
    if not forms:
        return
    kd_of = {coeffs: sorted({(kk, sum(map(mul, ws, coeffs))) for kk, ws in forms}) for coeffs, _ in case.ideals}
    for coeffs, lam, _, mn in lc_pairs(case):
        p, q = lam.numerator, lam.denominator
        below = [(kk, dd) for kk, dd in kd_of[coeffs] if q * (kk + 1) - p * dd < mn][:1]
        yield [_details(coeffs, lam, ext_k=kk, ext_d=dd) for kk, dd in below]


PAIRWISE_SUITES = {
    "gap_inequality": pairwise_gap_inequality,
    "witness_strictness": pairwise_witness_strictness,
    "mld_implies_lct": pairwise_mld_implies_lct,
    "mld_extension_guard": pairwise_mld_extension_guard,
}


def check_pair_suites_pairwise(b) -> dict[str, list[dict]]:
    """On every cluster of the budget, each pair suite of the sweep, which
    decides an ideal at a few exponents, counts the same checks and lists
    the same counterexamples in the same order as its per-pair oracle,
    which evaluates every lc pair: the sweep's pair suites before they
    were decided per ideal.  Returns each suite's counterexamples, each
    with its ``cluster``."""
    found: dict[str, list[dict]] = {name: [] for name in PAIRWISE_SUITES}
    sweep = explorer._sweep(b)
    for enum_index, c in enumerate(explorer.enumerate_clusters(b)):
        case = explorer._case(b, enum_index, c, None, sweep)
        for name, pairwise in PAIRWISE_SUITES.items():
            checked, got = explorer._SUITES[name](case)
            want = list(pairwise(case))
            assert checked == len(want), (name, c)
            assert got == [d for ds in want for d in ds], (name, c)
            found[name] += [{"cluster": c, **d} for ds in want for d in ds]
    return found


def graded_failures_fresh(c: germ.Cluster, graded) -> list[tuple[bool, bool, bool]]:
    """Per curve E, whether its graded ideals fail ideal_monotonicity,
    graded_subadditivity and rees_singleton, checked on the cluster itself:
    pointwise on the divisors, and with ``valuation.rees_valuations`` on
    each ideal of degree m0..4m0.  A zero or non-antinef one fails."""

    def only_e(d, e):
        try:
            return any(d) and valuation.rees_valuations(c, d) == {e}
        except NotAntinef:
            return False

    failed = []
    for e, g in enumerate(graded):
        m0 = valuation.fingen_degree(c, e)
        n = c.curve_count()
        failed.append(
            (
                any(g[m][j] > g[m + 1][j] for m in range(1, 4) for j in range(n)),
                any(g[a + b][j] > g[a][j] + g[b][j] for a in range(1, 4) for b in range(1, 5 - a) for j in range(n)),
                not all(only_e(g[mm * m0], e) for mm in range(1, 5)),
            )
        )
    return failed


def mld_kinks_bruteforce(k, coeffs, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """The kinks strictly inside (lo, hi) of the least k_j + 1 - lambda·d_j,
    read off every crossing of two lines: the least line bends at a
    crossing where lines of different slopes attain it."""
    n = len(k)
    crossings = {
        Fraction(k[i] - k[j], coeffs[i] - coeffs[j]) for i in range(n) for j in range(n) if coeffs[i] > coeffs[j]
    }
    kinks = []
    for x in sorted(x for x in crossings if lo < x < hi):
        vals = [kj + 1 - x * dj for kj, dj in zip(k, coeffs)]
        if len({dj for v, dj in zip(vals, coeffs) if v == min(vals)}) > 1:
            kinks.append(x)
    return kinks


def count_column_solves(monkeypatch) -> dict:
    """Counts, under the key "calls", the columns solved from here on: the
    calls of ``valuation._column``, which ``fingen_ideal`` keeps on the
    cluster."""
    count = {"calls": 0}
    column = valuation._column

    def counting_column(*args):
        count["calls"] += 1
        return column(*args)

    monkeypatch.setattr(valuation, "_column", counting_column)
    return count


def invert_symmetric(m) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a nonsingular symmetric integer matrix, raising
    ValueError on a singular one.

    Fraction-free Gauss-Jordan elimination of the augmented block
    [M | I]: integer arithmetic throughout, with rationals assembled only
    at the end from the adjugate-like right block over the final pivot.
    The dense oracle for the columns ``valuation`` solves on the dual
    graph.
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
                raise ValueError(f"singular matrix: zero pivot column at {k}")
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


def oracle_dstar_dense(c: germ.Cluster) -> list[tuple[Fraction, ...]]:
    """Every curve's column of the dense exact inverse of M, normalized at
    that curve."""
    inv = invert_symmetric(germ.intersection_matrix(c))
    n = c.curve_count()
    return [tuple(inv[j][e] / inv[e][e] for j in range(n)) for e in range(n)]


def check_proximity_model(c: germ.Cluster, curves) -> None:
    """M = P·D·Pᵀ, M passes Sylvester's criterion, the satellites of
    ``germ.legal_steps`` are at M's off-diagonal 1-entries and
    ``germ.intersect`` is the dense product with M on every unit vector and
    every stored column, and on the given curves dstar is the dense-inverse
    column, the stored column m0·dstar is primitive with m0 the lcm of
    dstar's denominators and agrees with the cold unloading of m0·E, done
    by the worklist and by the dense rescan, the warm-started valuation
    ideals of degree 1, m0 - 1 and m0 + 1 agree with cold unloading,
    ``classify``'s lct is m0 times that ideal's threshold with the same
    argmin, and E attains that threshold exactly when the gap is 0."""
    m = [list(row) for row in germ.intersection_matrix(c)]
    p, d = proximity_factors(c)
    assert m == _mat_mul(_mat_mul(p, d), [list(col) for col in zip(*p)])
    assert is_negative_definite(m)
    n = len(m)
    assert [s.on for s in germ.legal_steps(c) if isinstance(s, germ.Satellite)] == meeting_pairs(m)
    dense = oracle_dstar_dense(c)
    for e in curves:
        assert valuation.asymptotic_multiplicities(c, e) == dense[e]
        m0 = lcm(*(v.denominator for v in dense[e]))
        w = valuation.fingen_ideal(c, e)
        assert gcd(*w) == 1 and valuation.fingen_degree(c, e) == m0
        cold = cold_valuation_ideal(c, e, m0)
        assert w == tuple(m0 * v for v in dense[e]) == cold == unload_dense(c, [m0 * (j == e) for j in range(n)])
        for deg in {1, m0 - 1, m0 + 1} - {0}:
            assert valuation.valuation_ideal(c, e, deg) == cold_valuation_ideal(c, e, deg)
        cl = thresholds.classify(c, e)
        report = thresholds.lct_ideal(c, cold)
        assert (report.value * m0, report.argmin) == (cl.lct, cl.argmin)
        assert (e in report.argmin) == (cl.gap == 0)
    for v in [[int(i == j) for i in range(n)] for j in range(n)] + list(c._dstar.values()):
        assert germ.intersect(c, v) == [sum(a * b for a, b in zip(row, v)) for row in m]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.fixture(scope="session")
def sweep_a():
    """Criterion-scale sweep: smooth clusters up to 5 steps, ideal bound 3,
    exponent denominators up to 12, no model extensions.  Returns the
    report together with its wall-clock runtime."""
    budget = EnumBudget(
        max_steps=5,
        bases=(germ.SMOOTH,),
        ideal_coeff_bound=3,
        lambda_denominator_bound=12,
        extension_depth=0,
    )
    start = time.perf_counter()
    report = verify_theorems(budget)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def sweep_b():
    """Extension-guard sweep: smooth clusters up to 4 steps with model
    extensions explored to depth 3."""
    budget = EnumBudget(
        max_steps=4,
        bases=(germ.SMOOTH,),
        ideal_coeff_bound=3,
        lambda_denominator_bound=12,
        extension_depth=3,
    )
    start = time.perf_counter()
    report = verify_theorems(budget)
    return report, time.perf_counter() - start
