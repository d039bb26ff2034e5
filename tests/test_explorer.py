import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import groupby, product

import pytest

from germval import cli, explorer, germ, thresholds, valuation
from germval.exact import format_rational
from germval.explorer import (
    ATLAS_COLUMNS,
    SUITE_NAMES,
    EnumBudget,
    antinef_ideals,
    atlas_rows,
    enumerate_clusters,
    lambda_grid,
    rank_by_gap,
    verify_theorems,
    write_atlas_csv,
)

import conftest
from conftest import (
    antinef_ideals_bruteforce,
    chain2,
    check_pair_suites_pairwise,
    cluster_signature,
    cluster_signature_permutations,
    count_column_solves,
    enumerate_clusters_wave_wide,
    extension_forms,
    extension_forms_sequences,
    graded_failures_fresh,
    mld_kinks_bruteforce,
    renumber,
    satellite_chain,
    single_blowup,
)


def smooth_budget(max_steps, **kw):
    return EnumBudget(max_steps=max_steps, bases=(germ.SMOOTH,), **kw)


def test_enumeration_counts_small():
    # hand-derived class counts over a smooth base (cumulative):
    # 1 step: the blowup of the point; 2 steps: one chain; 3 steps: two
    # free points / chain of three / one satellite; 15 at four steps.
    # 56 to 1095 at five to seven steps were counted by the permutation
    # search.
    for max_steps, expected in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 56), (6, 236), (7, 1095)):
        assert len(list(enumerate_clusters(smooth_budget(max_steps)))) == expected


def brute_force_class_count(max_steps):
    """Independent oracle: DFS over all legal step sequences, grouping by
    the permutation signature."""
    seen = set()
    stack = [germ.build(germ.SMOOTH, (germ.Free(None),))]
    while stack:
        c = stack.pop()
        seen.add(cluster_signature_permutations(c))
        if len(c.steps) < max_steps:
            stack.extend(germ.extend(c, s) for s in germ.legal_steps(c))
    return len(seen)


@pytest.mark.parametrize("max_steps", [1, 2, 3, 4, 5])
def test_enumeration_matches_sequence_oracle(max_steps):
    enumerated = len(list(enumerate_clusters(smooth_budget(max_steps))))
    assert enumerated == brute_force_class_count(max_steps)


def test_enumeration_deterministic_and_unique():
    b = smooth_budget(4)
    runs = [[cluster_signature(c) for c in enumerate_clusters(b)] for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(runs[0]) == len(set(runs[0]))


def test_enumeration_yields_canonical_representatives():
    # each class comes as the cluster whose step parents, read as tokens,
    # are its signature
    for c in enumerate_clusters(EnumBudget(max_steps=4, bases=(germ.SMOOTH, germ.du_val("D4")))):
        assert (c.base.label, *germ.step_parents(c)) == cluster_signature(c)


# the class-count budgets: smooth <= 7, three du Val bases in one run at
# <= 4 steps, and the largest base at <= 3
TREE_BUDGETS = [
    pytest.param(smooth_budget(7), id="smooth7"),
    pytest.param(EnumBudget(max_steps=4, bases=tuple(map(germ.du_val, ("A3", "D4", "E6")))), id="A3-D4-E6x4"),
    pytest.param(EnumBudget(max_steps=3, bases=(germ.du_val("E8"),)), id="E8x3"),
]


@pytest.mark.parametrize("budget", TREE_BUDGETS)
def test_enumeration_order_matches_the_wave_wide_oracle(budget):
    got = [(c.base, c.steps) for c in enumerate_clusters(budget)]
    assert got == [(c.base, c.steps) for c in enumerate_clusters_wave_wide(budget)]


@pytest.mark.parametrize("budget", TREE_BUDGETS)
def test_each_class_past_a_first_wave_extends_its_parent(budget):
    # a class's signature less its last token is its parent's signature,
    # and the class is its parent extended by one step
    first_waves, previous = 0, []
    for wave in explorer._waves(budget):
        for pos, c in wave:
            assert cluster_signature(c) == (c.base.label, *germ.step_parents(c))
            if pos is None:
                first_waves += 1
                assert len(wave) == 1 and len(c.steps) == c.base.is_smooth
            else:
                assert c.steps[:-1] == previous[pos][1].steps
        assert [pos for pos, _ in wave] == sorted(pos for pos, _ in wave)
        previous = wave
    assert first_waves == len(budget.bases)


def own_extension_is_least(c, step, signature) -> bool:
    """Whether ``signature`` of c extended by ``step`` is the extension's
    own step encoding."""
    return signature == (c.base.label, *germ.step_parents(c), germ.step_refs(step))


@pytest.mark.parametrize("budget", TREE_BUDGETS)
def test_canonical_extension_agrees_with_the_signature_search(budget):
    # every legal step of every class the enumeration extends
    for c in enumerate_clusters(budget):
        if len(c.steps) < budget.max_steps:
            for step in germ.legal_steps(c):
                expected = own_extension_is_least(c, step, cluster_signature(c, step))
                assert explorer.is_canonical_extension(c, step) == expected, (c, step)


def test_enumeration_identifies_sibling_orderings():
    # the two orderings of "chain of two on one curve plus a bare sibling"
    a = germ.build(germ.SMOOTH, (germ.Free(None), germ.Free(0), germ.Free(0), germ.Free(1)))
    b = germ.build(germ.SMOOTH, (germ.Free(None), germ.Free(0), germ.Free(1), germ.Free(0)))
    assert a != b
    assert cluster_signature(a) == cluster_signature(b)


def test_enumeration_covers_du_val_zero_steps():
    b = EnumBudget(max_steps=1, bases=(germ.du_val("A1"), germ.SMOOTH))
    clusters = list(enumerate_clusters(b))
    assert germ.build(germ.du_val("A1"), ()) in clusters
    assert clusters[0].base.is_smooth  # smooth enumerates first


def test_antinef_ideals_examples():
    sb = single_blowup()
    assert antinef_ideals(sb, 2) == [(0,), (1,), (2,)]
    assert antinef_ideals(sb, 0) == [(0,)]
    # chain: closures of all bounded vectors, deduplicated
    expected = sorted({valuation.unload(chain2(), v) for v in product(range(3), repeat=2)})
    assert antinef_ideals(chain2(), 2) == expected
    assert (1, 2) in expected and (0, 0) in expected


DU_VAL_LABELS = ("A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8")


def du_val_budget(labels, max_steps):
    return EnumBudget(max_steps=max_steps, bases=tuple(germ.du_val(x) for x in labels))


def du_val_bases() -> list[germ.Cluster]:
    """The nine du Val base clusters, with no steps: the clusters that the
    sweep's first wave gives ``antinef_ideals`` with no pulled-back parent."""
    return [germ.build(germ.du_val(x), ()) for x in DU_VAL_LABELS]


# (budget, ideal bound) pairs, each compared cluster by cluster.  E8 stops
# at one step because its 2-step clusters alone take 4 s of brute force.
# A2 at 2 steps with bound 3 is the smallest budget found with an ideal
# that is no join of two generators, so it fails a single round of joins.
JOIN_ORACLE_BUDGETS = [
    pytest.param(smooth_budget(5), 1, id="smooth5-B1"),
    pytest.param(smooth_budget(5), 2, id="smooth5-B2"),
    pytest.param(du_val_budget(("A1", "A2", "A3", "D4", "E6", "E7"), 2), 1, id="A1-E7x2-B1"),
    pytest.param(du_val_budget(("E8",), 1), 1, id="E8x1-B1"),
    pytest.param(du_val_budget(("A2",), 3), 2, id="A2x3-B2"),
    pytest.param(du_val_budget(("A2",), 2), 3, id="A2x2-B3"),
]


@pytest.mark.parametrize(
    "budget", [smooth_budget(5), du_val_budget(("A3", "D4"), 3)], ids=["smooth5", "A3-D4x3"]
)
def test_signature_matches_permutation_oracle(budget):
    # every enumerated cluster and every one-step extension of it
    for c in enumerate_clusters(budget):
        for cand in [c, *(germ.extend(c, step) for step in germ.legal_steps(c))]:
            assert cluster_signature(cand) == cluster_signature_permutations(cand), cand


@pytest.mark.parametrize(
    "budget", [smooth_budget(5), du_val_budget(("A3", "D4"), 3)], ids=["smooth5", "A3-D4x3"]
)
def test_canonical_extension_matches_permutation_oracle(budget):
    # every legal step of every cluster, to six steps over a smooth base
    for c in enumerate_clusters(budget):
        for step in germ.legal_steps(c):
            expected = own_extension_is_least(c, step, cluster_signature_permutations(germ.extend(c, step)))
            assert explorer.is_canonical_extension(c, step) == expected, (c, step)


@pytest.mark.parametrize("label,expected", [("A3", 785), ("D4", 1605), ("E6", 4736)])
def test_du_val_class_counts(label, expected):
    # counted at up to 4 steps by the permutation search
    assert len(list(enumerate_clusters(du_val_budget((label,), 4)))) == expected


def test_wide_fan_signs_without_trying_step_orders():
    # 20 free children of the first curve, each with one free child: the
    # permutation search would try 41! orders
    steps = [germ.Free(None)] + [germ.Free(0)] * 20 + [germ.Free(i) for i in range(1, 21)]
    c = germ.build(germ.SMOOTH, steps)
    start = time.perf_counter()
    sig = cluster_signature(c)
    assert time.perf_counter() - start < 1.0
    assert sig == ("smooth", ()) + ((0,),) * 20 + tuple((i,) for i in range(1, 21))
    assert cluster_signature(renumber(c, random.Random(0))) == sig
    # the twenty children share one subtree class, so one branch decides
    assert explorer.is_canonical_extension(germ.build(germ.SMOOTH, steps[:-1]), steps[-1])


def test_long_chain_signs_without_deep_recursion():
    # one step per position and no ties: the searches place them in a loop
    steps = [germ.Free(None)] + [germ.Free(i) for i in range(1499)]
    sig = cluster_signature(germ.build(germ.SMOOTH, steps))
    assert sig == ("smooth", ()) + tuple((i,) for i in range(1499))
    assert explorer.is_canonical_extension(germ.build(germ.SMOOTH, steps[:-1]), steps[-1])


def fan_of_chains(k: int) -> list[germ.BlowupStep]:
    """The base point, k free points on its curve, then on the i-th of
    those a chain of i free points, one chain after another."""
    steps = [germ.Free(None)] + [germ.Free(0)] * k
    for i in range(1, k + 1):
        on = i
        for _ in range(i):
            steps.append(germ.Free(on))
            on = len(steps) - 1  # over a smooth base, step j makes curve j
    return steps


def test_canonicity_stops_at_the_first_token_below(monkeypatch):
    # the least encodings start the second chain before growing the first
    # past one step, so at position 11 the ready token (3,) is below the
    # fan's own (10,).  The search reaches it on its first branch: it takes
    # the least ready token once per position, 12 times in all, where a
    # search for the least encoding tries the 8! orders of the children.
    steps = fan_of_chains(8)
    assert len(steps) == 45
    parent = germ.build(germ.SMOOTH, steps[:-1])
    positions = Counter()

    def counting_min(*args, **kwargs):
        positions["min"] += 1
        return min(*args, **kwargs)

    monkeypatch.setattr(explorer, "min", counting_min, raising=False)
    assert not explorer.is_canonical_extension(parent, steps[-1])
    assert positions["min"] == 12


def test_signature_of_extension_reads_step_parents():
    for c in enumerate_clusters(EnumBudget(max_steps=4, bases=(germ.SMOOTH, germ.du_val("D4")))):
        for step in germ.legal_steps(c):
            assert cluster_signature(c, step) == cluster_signature(germ.extend(c, step))


@pytest.mark.parametrize("budget,classes", [(smooth_budget(6), 236), (du_val_budget(("E6",), 4), 4736)])
def test_enumeration_builds_each_class_once(monkeypatch, budget, classes):
    # the base's first cluster is built, and every other class is its
    # parent extended by one step
    made = Counter()
    build, extend = germ.build, germ.extend

    def counting_build(base, steps):
        made["build"] += 1
        return build(base, steps)

    def counting_extend(c, step):
        made["extend"] += 1
        return extend(c, step)

    monkeypatch.setattr(germ, "build", counting_build)
    monkeypatch.setattr(germ, "extend", counting_extend)
    assert sum(1 for _ in enumerate_clusters(budget)) == classes
    assert made == {"build": 1, "extend": classes - 1}


@pytest.mark.parametrize("budget,bound", JOIN_ORACLE_BUDGETS)
def test_antinef_ideals_match_bruteforce(budget, bound):
    for c in enumerate_clusters(budget):
        assert antinef_ideals(c, bound) == antinef_ideals_bruteforce(c, bound), c


@pytest.mark.parametrize("bound", [2, 3])
def test_du_val_base_ideals_match_bruteforce(bound):
    # one pass per curve; every other cluster the sweep meets runs only
    # its last curve's pass, from its parent's ideals pulled back
    for c in du_val_bases():
        assert antinef_ideals(c, bound) == antinef_ideals_bruteforce(c, bound), c


def count_unloads(monkeypatch) -> Counter:
    """A counter that ``valuation.unload`` bumps on every call from now on."""
    calls = Counter()
    unload = valuation.unload

    def counting_unload(c, z):
        calls["unload"] += 1
        return unload(c, z)

    monkeypatch.setattr(valuation, "unload", counting_unload)
    return calls


def test_antinef_ideals_unload_count(monkeypatch):
    # each curve's pass unloads its B generators once and joins each ideal
    # so far with each of them at most once, and no pass has more ideals
    # than the result: n·B·(|ideals| + 1) in all
    calls = count_unloads(monkeypatch)
    bound = 1
    for c in enumerate_clusters(du_val_budget(("A1", "A2", "A3", "D4", "E6", "E7"), 2)):
        calls.clear()
        ideals = antinef_ideals(c, bound)
        assert calls["unload"] <= c.curve_count() * bound * (len(ideals) + 1), c


@pytest.mark.parametrize("bound,unloads", [(4, 256), (12, 5616)])
def test_antinef_ideals_first_wave_unload_count(monkeypatch, bound, unloads):
    # the unloads of the sweep's first wave over the nine du Val bases
    calls = count_unloads(monkeypatch)
    for c in du_val_bases():
        antinef_ideals(c, bound)
    assert calls["unload"] == unloads


def test_lambda_grid_contents():
    c = chain2()
    lct = Fraction(3, 2)
    grid = lambda_grid(c, (1, 2), lct, 4)
    assert max(grid) == lct
    assert all(0 < lam <= lct for lam in grid)
    assert Fraction(1, 4) in grid and Fraction(5, 4) in grid
    # crossing of the two curves: (k0-k1)/(d0-d1) = 1
    assert Fraction(1) in grid
    assert grid == sorted(set(grid))


def test_lambda_grid_includes_off_grid_crossings():
    r4 = satellite_chain(4)
    coeffs = (2, 3, 6, 7)
    grid = lambda_grid(r4, coeffs, Fraction(5, 6), 2)  # lct at curve 2: 5/6
    # crossings finer than the q<=2 grid: e.g. curves 0 and 2 at
    # (1-4)/(2-6) = 3/4, curves 0 and 3 at 4/5, curves 1 and 2 at 2/3
    assert grid == [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)]


def test_lambda_grid_trivial_ideal():
    assert lambda_grid(chain2(), (0, 0), thresholds.PLUS_INFINITY, 6) == [Fraction(1)]


ENUMERATE_REPORT_BUDGET = EnumBudget(
    max_steps=6, bases=(germ.SMOOTH,), ideal_coeff_bound=1, lambda_denominator_bound=12, extension_depth=2
)
SWEEP_A_BUDGET = EnumBudget(max_steps=5, bases=(germ.SMOOTH,), ideal_coeff_bound=3, lambda_denominator_bound=12)
# du Val ideals whose threshold is below 1 mostly have no exponent of denominator 1
EMPTY_GRIDS_BUDGET = EnumBudget(2, (germ.SMOOTH, germ.du_val("A2"), germ.du_val("E6")), 2, 1)


@pytest.mark.parametrize(
    "budget",
    [
        pytest.param(ENUMERATE_REPORT_BUDGET, id="enumerate-report"),
        pytest.param(SWEEP_A_BUDGET, id="sweep-A"),
        pytest.param(EMPTY_GRIDS_BUDGET, id="q-1"),
    ],
)
def test_grid_summary_matches_lambda_grid(budget):
    # count, lo and hi are len, min and max of the grid, and the kinks are
    # those read off every crossing
    empty, sweep = 0, explorer._sweep(budget)
    for enum_index, c in enumerate(enumerate_clusters(budget)):
        case = explorer._case(budget, enum_index, c, None, sweep)
        summaries = {g.coeffs: g for g in case.grids}
        for coeffs, report in case.ideals:
            grid = lambda_grid(c, coeffs, report.value, budget.lambda_denominator_bound)
            g = summaries.pop(coeffs, None)
            if not grid:
                assert g is None
                empty += 1
                continue
            assert (g.count, Fraction(*g.lo), Fraction(*g.hi)) == (len(grid), grid[0], grid[-1])
            assert [Fraction(*x) for x in g.kinks] == mld_kinks_bruteforce(case.k, coeffs, grid[0], grid[-1])
        assert not summaries
    assert (empty > 0) == (budget is EMPTY_GRIDS_BUDGET)


@pytest.mark.parametrize(
    "budget",
    [
        pytest.param(EnumBudget(3, (germ.SMOOTH, germ.du_val("A2"), germ.du_val("D4")), 2, 6, 2), id="mixed"),
        pytest.param(EnumBudget(2, tuple(map(germ.du_val, ("A3", "D5", "E7"))), 1, 4, 1), id="du-Val"),
        pytest.param(EMPTY_GRIDS_BUDGET, id="q-1"),
    ],
)
def test_pair_suites_match_the_pairwise_oracle(budget):
    assert not any(check_pair_suites_pairwise(budget).values())


FAULT_BUDGET = EnumBudget(3, (germ.SMOOTH, germ.du_val("A2")), 2, 6, 1)


def swap_witness(e, f):
    """A change of ``classify``'s record: curve e obstructed by curve f."""

    def change(c, cl):
        return replace(cl, verdict="MldObstructed", witness=f) if cl.curve == e and f < c.curve_count() else cl

    return change


@pytest.mark.parametrize(
    "suite, change, budget",
    [
        pytest.param(
            "gap_inequality", lambda c, cl: replace(cl, gap=cl.gap + Fraction(1, 3)), FAULT_BUDGET, id="raised-gaps"
        ),
        pytest.param(
            "mld_implies_lct",
            lambda c, cl: replace(cl, gap=Fraction(1, 7)) if cl.gap == 0 else cl,
            FAULT_BUDGET,
            id="gap-0-moved",
        ),
        # on seven ideals of this budget curve 1 attains the mld only at a
        # kink inside the grid, where a check of the grid's ends misses it
        pytest.param(
            "mld_implies_lct",
            lambda c, cl: replace(cl, gap=Fraction(1, 7)) if cl.curve == 1 and cl.gap == 0 else cl,
            smooth_budget(4, ideal_coeff_bound=3, lambda_denominator_bound=6),
            id="gap-of-curve-1-moved",
        ),
        # curves 0 and 1 given each other as witness, one at a time: with
        # k1 = k0 + 1, a_1 - a_0 = 1 - lambda·(d_1 - d_0) turns sign inside
        # some grids, so one fault fails at the low end, the other at the high
        pytest.param("witness_strictness", swap_witness(0, 1), FAULT_BUDGET, id="witness-1-for-curve-0"),
        pytest.param("witness_strictness", swap_witness(1, 0), FAULT_BUDGET, id="witness-0-for-curve-1"),
    ],
)
def test_pair_suites_match_the_pairwise_oracle_under_a_fault(monkeypatch, suite, change, budget):
    classify = thresholds.classify
    monkeypatch.setattr(thresholds, "classify", lambda c, e: change(c, classify(c, e)))
    assert check_pair_suites_pairwise(budget)[suite]


def test_mld_extension_guard_finds_a_form_below_the_mld_inside_the_grid(monkeypatch):
    # the average of two meeting model curves' forms, less 1/100, goes below
    # the mld only near where both attain it: at a kink of the mld, which may
    # lie strictly inside an ideal's grid, where a check of its ends misses it.
    # The sweep gets it as the satellite pattern (-1/100, 1/2, 1/2), the
    # pairwise oracle as a form on each meeting pair.
    half, less = Fraction(1, 2), Fraction(1, 100)

    def with_midpoints(c, depth):
        k, n = germ.canonical_vector(c), c.curve_count()
        return extension_forms(c, depth) + [
            ((k[i] + k[j]) * half - less, tuple(half * (x in (i, j)) for x in range(n))) for i, j in germ._edges(c)
        ]

    def with_midpoint_pattern(depth):
        free, satellite = patterns(depth)
        return free, [*satellite, (-less, half, half)]

    patterns = explorer._chain_patterns
    monkeypatch.setattr(conftest, "extension_forms", with_midpoints)
    monkeypatch.setattr(explorer, "_chain_patterns", with_midpoint_pattern)
    found = check_pair_suites_pairwise(FAULT_BUDGET)["mld_extension_guard"]
    assert found
    inside = 0
    for (c, coeffs), entries in groupby(found, key=lambda e: (e["cluster"], tuple(e["ideal"]))):
        lct = thresholds.lct_ideal(c, coeffs).value
        grid = [format_rational(x) for x in lambda_grid(c, coeffs, lct, FAULT_BUDGET.lambda_denominator_bound)]
        inside += not {grid[0], grid[-1]} & {e["lambda"] for e in entries}
    assert inside > 0


def test_extension_forms_small():
    sb = single_blowup()  # one curve, k = 1
    assert extension_forms(sb, 0) == []
    assert extension_forms(sb, 1) == [(2, (1,))]
    depth2 = extension_forms(sb, 2)
    # free-on-free, and the satellite of the curve with its free child
    assert (3, (1,)) in depth2 and (4, (2,)) in depth2

    forms = extension_forms(chain2(), 1)  # k = (1, 2)
    assert (2, (1, 0)) in forms and (3, (0, 1)) in forms and (4, (1, 1)) in forms


def test_extension_forms_track_consumed_intersections():
    # depth-2 satellite forms on the chain: after the satellite of (0,1),
    # the pair (0,1) is consumed, so no form can weight it twice
    forms = extension_forms(chain2(), 2)
    assert (6, (2, 1)) in forms  # satellite of curve 0 with the first satellite
    assert (7, (1, 2)) in forms
    assert all(ws != (2, 2) for _, ws in forms)


def test_extension_forms_walk_equals_every_blowup_order():
    cases = [(EnumBudget(max_steps=3, bases=(germ.SMOOTH, germ.du_val("A2"), germ.du_val("D4"))), (1, 2, 3))]
    cases.append((smooth_budget(3), (4,)))
    checked = 0
    for b, depths in cases:
        for c in enumerate_clusters(b):
            for depth in depths:
                assert extension_forms(c, depth) == extension_forms_sequences(c, depth), (c, depth)
                checked += 1
    assert checked == 1082


def test_extension_below_is_the_least_form_read_below_each_threshold():
    # at each end and kink of the grid of every (cluster, ideal, depth) of
    # these budgets at ideal bound 2, and at the largest depth on smooth <= 2,
    # the chain patterns read on the point's log discrepancies give the least
    # (k, d) of the weight-vector walk's forms below each threshold: each
    # distinct q·(k + 1) - p·d of a form there, and one above them all
    cases = [
        (smooth_budget(3), (1, 2, 3, 4)),
        (du_val_budget(("A2", "D4", "E6"), 2), (1, 2, 3, 4)),
        (smooth_budget(2), (explorer.MAX_EXTENSION_DEPTH,)),
    ]
    checked = points = 0
    for b, depths in cases:
        for depth in depths:
            b = replace(b, extension_depth=depth)
            sweep = explorer._sweep(b)
            for enum_index, c in enumerate(enumerate_clusters(b)):
                case, forms = explorer._case(b, enum_index, c, None, sweep), extension_forms(c, depth)
                for g in case.grids:
                    pairs = sorted({(kk, sum(w * x for w, x in zip(ws, g.coeffs))) for kk, ws in forms})
                    for p, q in explorer._ends_and_kinks(g):
                        scaled = sorted({q * (kk + 1) - p * dd for kk, dd in pairs})
                        vs = explorer._scaled(case.k, g.coeffs, (p, q))
                        for t in (*scaled, scaled[-1] + 1):
                            want = next((kd for kd in pairs if q * (kd[0] + 1) - p * kd[1] < t), None)
                            got = explorer._extension_below(case, g.coeffs, (p, q), vs, t)
                            assert got == want, (c, g.coeffs, depth, (p, q), t)
                        points += 1
                    checked += 1
    # every ideal of these budgets has a nonempty grid
    assert (checked, points) == (2860 + 7, 5755)


def test_mld_extension_guard_reports_a_form_below_the_mld(monkeypatch):
    # the free pattern (-1, 0, 0) is a form with k = -2 and d = 0, whose log
    # discrepancy -1 is below the mld of every lc pair, which is at least 0
    b = smooth_budget(2, ideal_coeff_bound=1, lambda_denominator_bound=2, extension_depth=1)
    clean = verify_theorems(b).suite("mld_extension_guard")
    assert clean.checked > 0 and not clean.counterexamples

    patterns, forms = explorer._chain_patterns, conftest.extension_forms
    monkeypatch.setattr(explorer, "_chain_patterns", lambda depth: ([*patterns(depth)[0], (-1, 0, 0)], patterns(depth)[1]))
    monkeypatch.setattr(conftest, "extension_forms", lambda c, depth: forms(c, depth) + [(-2, (0,) * c.curve_count())])
    suite = verify_theorems(b).suite("mld_extension_guard")
    assert suite.checked == clean.checked
    assert len(suite.counterexamples) == clean.checked
    for found in suite.counterexamples:
        assert {"ideal", "lambda", "ext_k", "ext_d"} <= set(found)
        assert found["ext_k"] == -2 and found["ext_d"] == 0
    assert len(check_pair_suites_pairwise(b)["mld_extension_guard"]) == clean.checked


def test_extension_depth_is_capped():
    for depth in (0, 2, 3, 4, explorer.MAX_EXTENSION_DEPTH):
        assert smooth_budget(1, extension_depth=depth).extension_depth == depth
    with pytest.raises(ValueError, match="extension_depth must be <= 10"):
        smooth_budget(1, extension_depth=11)


def test_lambda_denominator_bound_is_capped():
    for q in (1, 12, explorer.MAX_LAMBDA_DENOMINATOR):
        assert smooth_budget(1, lambda_denominator_bound=q).lambda_denominator_bound == q
    for q in (0, 101, 10**5):
        with pytest.raises(ValueError, match=r"lambda_denominator_bound must be in 1\.\.100"):
            smooth_budget(1, lambda_denominator_bound=q)


def test_ideal_coeff_bound_is_capped():
    for bound in (0, 3, explorer.MAX_IDEAL_COEFF_BOUND):
        assert smooth_budget(1, ideal_coeff_bound=bound).ideal_coeff_bound == bound
    for bound in (-1, 13, 10**5):
        with pytest.raises(ValueError, match=r"ideal_coeff_bound must be in 0\.\.12"):
            smooth_budget(1, ideal_coeff_bound=bound)


def test_verify_theorems_empty_budget():
    report = verify_theorems(EnumBudget(max_steps=3, bases=()))
    assert report.counts["clusters"] == 0
    assert report.counterexample_total() == 0
    assert all(s.checked == 0 for s in report.suites)


def test_verify_theorems_small_smooth():
    report = verify_theorems(
        smooth_budget(3, ideal_coeff_bound=2, lambda_denominator_bound=6, extension_depth=2)
    )
    assert report.counterexample_total() == 0
    assert [s.name for s in report.suites] == list(SUITE_NAMES)
    for name in SUITE_NAMES:
        assert report.suite(name).checked > 0, name
    doc = report.to_json()
    json.dumps(doc)  # must be serializable
    assert doc["seed"] == report.seed
    assert doc["total_counterexamples"] == 0


def test_verify_theorems_bookkeeping():
    report = verify_theorems(
        EnumBudget(
            max_steps=3,
            bases=(germ.SMOOTH, germ.du_val("A2")),
            ideal_coeff_bound=2,
            lambda_denominator_bound=6,
            extension_depth=1,
        )
    )
    counts = report.counts
    checked = {s.name: s.checked for s in report.suites}
    assert counts["curves"] > 0 and counts["lc_pairs"] > 0
    per_curve = (
        "dstar_unit",
        "oracle_equivalence",
        "ideal_monotonicity",
        "graded_subadditivity",
        "rees_singleton",
        "lct_upper_bound",
        "prime_blowup_positive",
        "classification_decisive",
    )
    for name in per_curve:
        assert checked[name] == counts["curves"], name
    # every grid exponent is at most the ideal's lct, so every pair is lc
    assert checked["gap_inequality"] == counts["lc_pairs"] == counts["lambda_checks"]
    assert checked["mld_implies_lct"] == checked["witness_strictness"]


def test_counterexamples_keep_one_check_per_pair(monkeypatch):
    # a gap above every log discrepancy fails the inequality at every
    # curve of every pair, yet each pair is still one check
    b = smooth_budget(3, ideal_coeff_bound=1)
    expected = verify_theorems(b).suite("gap_inequality").checked
    classify = thresholds.classify
    monkeypatch.setattr(
        thresholds, "classify", lambda c, e: replace(classify(c, e), gap=Fraction(10**6))
    )
    suite = verify_theorems(b).suite("gap_inequality")
    assert suite.checked == expected
    assert len(suite.counterexamples) > suite.checked
    for entry in suite.counterexamples:
        assert set(entry) == {"base", "steps", "curve", "ideal", "lambda"}
    per_check = {}
    for entry in suite.counterexamples:
        key = (entry["steps"], tuple(entry["ideal"]), entry["lambda"])
        per_check.setdefault(key, []).append(entry["curve"])
    assert max(len(curves) for curves in per_check.values()) >= 2
    assert all(curves == sorted(set(curves)) for curves in per_check.values())


def test_sweep_reuses_row_lct_reports(monkeypatch):
    # each atlas row and each spot check solves its curve's column once, in
    # classify; no suite solves it again, and model_stability certifies E's
    # column once on the model instead of solving on each extension
    count = count_column_solves(monkeypatch)
    report = verify_theorems(smooth_budget(3, ideal_coeff_bound=1))
    rows = report.counts["curves"] + report.suite("atlas_spot_check").checked
    assert report.suite("model_stability").checked > 0
    assert count["calls"] == rows


def test_atlas_rows_build_one_ratio_list_per_row(monkeypatch):
    count = count_column_solves(monkeypatch)
    rows = atlas_rows(EnumBudget(max_steps=2, bases=(germ.SMOOTH, germ.du_val("A2"))))
    assert count["calls"] == len(rows) > 0


def test_sweep_computes_each_ideal_threshold_once(monkeypatch):
    # classify takes one threshold per curve it classifies: each curve of a
    # base's first cluster, each new curve and each spot check; old curves
    # inherit their records.  _case takes one per ideal that is not its
    # parent's pulled back, whose report it inherits.  lct_scaling asks
    # again for two powers of each nonzero ideal, and gap_attainment once
    # per curve computing an lct.
    calls = {"all": 0, "in_grid": 0, "classified": 0, "new_ideals": 0}
    inside_grid = [False]
    lct_ideal, grid, case_of = thresholds.lct_ideal, explorer.lambda_grid, explorer._case

    def counting_case(b, enum_index, c, parent, sweep):
        case = case_of(b, enum_index, c, parent, sweep)
        calls["classified"] += c.curve_count() if parent is None else 1
        calls["new_ideals"] += len(case.ideals) - (0 if parent is None else len(parent.ideals))
        return case

    def counting_lct_ideal(c, a):
        calls["all"] += 1
        calls["in_grid"] += inside_grid[0]
        return lct_ideal(c, a)

    def flagged_grid(*args):
        inside_grid[0] = True
        try:
            return grid(*args)
        finally:
            inside_grid[0] = False

    monkeypatch.setattr(thresholds, "lct_ideal", counting_lct_ideal)
    monkeypatch.setattr(explorer, "lambda_grid", flagged_grid)
    monkeypatch.setattr(explorer, "_case", counting_case)
    report = verify_theorems(EnumBudget(max_steps=3, bases=(germ.SMOOTH, germ.du_val("A2")), ideal_coeff_bound=1))
    counts = report.counts
    nonzero = counts["ideals"] - counts["clusters"]  # one trivial ideal per cluster
    assert nonzero > 0 and calls["in_grid"] == 0
    # the first clusters have 1 and 2 curves; every other one adds one
    assert calls["classified"] == 1 + 2 + counts["clusters"] - 2 < counts["curves"]
    assert 0 < calls["new_ideals"] < counts["ideals"]
    classified = calls["classified"] + report.suite("atlas_spot_check").checked
    fresh = calls["new_ideals"] + 2 * nonzero + report.suite("gap_attainment").checked
    assert calls["all"] == classified + fresh


def test_prime_blowup_positive_reads_lct_off_the_unloaded_ideal(monkeypatch):
    # a classify that claims gap 0 and lct k + 1 on every curve agrees with
    # itself, so only a threshold read elsewhere can catch it
    classify = thresholds.classify

    def claims_lct_computed(c, e):
        cl = classify(c, e)
        return replace(cl, lct=cl.lct + cl.gap, gap=Fraction(0))

    monkeypatch.setattr(thresholds, "classify", claims_lct_computed)
    b = EnumBudget(max_steps=1, bases=(germ.du_val("E6"),), ideal_coeff_bound=1, lambda_denominator_bound=2)
    suite = verify_theorems(b).suite("prime_blowup_positive")
    assert suite.checked > 0 and suite.counterexamples


def pullback_identity_failures(clusters):
    """(cluster, step, curve) wherever E's column pulled back through a
    legal step fails to meet the built extension as the column meets the
    model, and the new curve in 0: the premise of model_stability."""
    failures = []
    for c in clusters:
        for step in germ.legal_steps(c):
            c2, refs = germ.extend(c, step), germ.step_refs(step)
            for e in range(c.curve_count()):
                w = valuation.fingen_ideal(c, e)
                if germ.intersect(c2, explorer._pullback(w, refs)) != [*germ.intersect(c, w), 0]:
                    failures.append((c, step, e))
    return failures


@pytest.mark.parametrize(
    "budget",
    [
        pytest.param(smooth_budget(5), id="smooth5"),
        pytest.param(du_val_budget(("A3", "D4", "E6"), 3), id="A3-D4-E6x3"),
    ],
)
def test_extension_meets_a_pulled_back_column_as_the_model_does(budget):
    assert not pullback_identity_failures(enumerate_clusters(budget))


def test_pullback_identity_catches_a_wrong_centre(monkeypatch):
    # an extension that blows up another centre than the step names: E's
    # column extended by the step's sum then meets it otherwise.  The
    # clusters are enumerated first, as the enumeration extends too.
    clusters, extend = list(enumerate_clusters(smooth_budget(3))), germ.extend

    def elsewhere(c, step):
        others = [s for s in germ.legal_steps(c) if germ.step_refs(s) != germ.step_refs(step)]
        return extend(c, others[0] if others else step)

    monkeypatch.setattr(germ, "extend", elsewhere)
    assert pullback_identity_failures(clusters)


def faulty_ideal_values(monkeypatch, value_of):
    """Make each sweep case report ``value_of(lct)`` as every nonzero ideal's threshold."""
    case_of = explorer._case

    def faulty(*args):
        case = case_of(*args)
        ideals = [(d, replace(rep, value=value_of(rep.value)) if any(d) else rep) for d, rep in case.ideals]
        return replace(case, ideals=ideals)

    monkeypatch.setattr(explorer, "_case", faulty)


def check_fault_is_caught(name, b, inject):
    """The suite runs clean, and after ``inject()`` it reports a
    counterexample without checking more or less than before."""
    clean = verify_theorems(b).suite(name)
    assert clean.checked > 0 and not clean.counterexamples
    inject()
    suite = verify_theorems(b).suite(name)
    assert suite.checked == clean.checked and suite.counterexamples


def patch_classify(monkeypatch, change):
    """Make ``classify`` report ``change(record)``."""
    classify = thresholds.classify
    monkeypatch.setattr(thresholds, "classify", lambda c, e: change(classify(c, e)))


def test_witness_strictness_catches_a_witness_that_is_its_own_curve(monkeypatch):
    # a curve's log discrepancy is never strictly below its own
    b = smooth_budget(4, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught(
        "witness_strictness", b, lambda: patch_classify(monkeypatch, lambda cl: replace(cl, witness=cl.curve))
    )


def test_mld_implies_lct_catches_a_gap_raised_by_one(monkeypatch):
    # with no curve computing an lct, every curve computing an mld is a counterexample
    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught(
        "mld_implies_lct", b, lambda: patch_classify(monkeypatch, lambda cl: replace(cl, gap=cl.gap + 1))
    )


def test_pullback_stability_catches_a_threshold_raised_by_one(monkeypatch):
    # a free point on a curve j attaining the lct gives ratio lct + 1/d_j, below lct + 1 once d_j > 1
    b = smooth_budget(3, ideal_coeff_bound=2, lambda_denominator_bound=2)
    check_fault_is_caught("pullback_stability", b, lambda: faulty_ideal_values(monkeypatch, lambda v: v + 1))


def test_lct_containment_catches_inverted_thresholds(monkeypatch):
    # 1/lct reverses the order of every pair of nested ideals with different thresholds
    b = smooth_budget(3, ideal_coeff_bound=2, lambda_denominator_bound=2)
    check_fault_is_caught("lct_containment", b, lambda: faulty_ideal_values(monkeypatch, lambda v: 1 / v))


def bump_valuation_ideal(monkeypatch, degree):
    """Make ``valuation_ideal`` add 100 to every coefficient at one degree."""
    valuation_ideal = valuation.valuation_ideal

    def bumped(c, e, m):
        d = valuation_ideal(c, e, m)
        return tuple(v + 100 for v in d) if m == degree else d

    monkeypatch.setattr(valuation, "valuation_ideal", bumped)


def doubled_unload(monkeypatch):
    """Make ``unload`` return twice the closure."""
    unload = valuation.unload
    monkeypatch.setattr(valuation, "unload", lambda c, z: tuple(2 * v for v in unload(c, z)))


def extra_rees_valuation(monkeypatch):
    """Make curve 0 a Rees valuation of every ideal."""
    rees = valuation.rees_valuations
    monkeypatch.setattr(valuation, "rees_valuations", lambda c, d: rees(c, d) | {0})


def test_ideal_monotonicity_catches_a_degree_one_ideal_above_degree_two(monkeypatch):
    b = smooth_budget(4, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("ideal_monotonicity", b, lambda: bump_valuation_ideal(monkeypatch, 1))


def test_graded_subadditivity_catches_a_degree_three_ideal_above_the_sum(monkeypatch):
    b = smooth_budget(4, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("graded_subadditivity", b, lambda: bump_valuation_ideal(monkeypatch, 3))


def test_rees_singleton_catches_an_extra_rees_valuation(monkeypatch):
    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("rees_singleton", b, lambda: extra_rees_valuation(monkeypatch))


def test_rees_singleton_fails_a_zero_ideal_instead_of_stopping_the_sweep(monkeypatch):
    # an unload that returns the zero divisor leaves every graded ideal 0,
    # which has no Rees valuation and no finite lct
    b = smooth_budget(2, ideal_coeff_bound=1, lambda_denominator_bound=2)
    clean = verify_theorems(b)
    monkeypatch.setattr(valuation, "unload", lambda c, z: (0,) * c.curve_count())
    report = verify_theorems(b)
    for name in ("rees_singleton", "dstar_unit"):
        suite = report.suite(name)
        assert suite.checked == clean.suite(name).checked and suite.counterexamples, name


def shifted_column(monkeypatch):
    """Make ``fingen_ideal`` add 1 at the curve after E, when there is one."""
    fingen_ideal = valuation.fingen_ideal

    def shifted(c, e):
        w = fingen_ideal(c, e)
        return tuple(v + (i == (e + 1) % len(w) != e) for i, v in enumerate(w))

    monkeypatch.setattr(valuation, "fingen_ideal", shifted)


@pytest.mark.parametrize(
    "inject",
    [
        # w + e_j meets curve j in E_j.E_j != 0, so the certificate fails
        pytest.param(shifted_column, id="column-meets-another-curve"),
        # the new curve's ratio lies below an lct raised by one
        pytest.param(lambda mp: patch_classify(mp, lambda cl: replace(cl, lct=cl.lct + 1)), id="lct-raised"),
    ],
)
def test_model_stability_catches_a_wrong_column_or_lct(monkeypatch, inject):
    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("model_stability", b, lambda: inject(monkeypatch))


def test_lct_scaling_catches_a_threshold_doubled_on_powers(monkeypatch):
    # an ideal whose entries share a factor is a power; doubling its lct breaks lct(a^m) = lct(a)/m
    lct_ideal = thresholds.lct_ideal

    def doubled(c, d):
        report = lct_ideal(c, d)
        return replace(report, value=2 * report.value) if math.gcd(*d) > 1 else report

    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("lct_scaling", b, lambda: monkeypatch.setattr(thresholds, "lct_ideal", doubled))


def test_lct_upper_bound_catches_a_threshold_above_k_plus_one(monkeypatch):
    # lct = k + 1 - gap, so lct + gap + 1 = k + 2
    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught(
        "lct_upper_bound", b, lambda: patch_classify(monkeypatch, lambda cl: replace(cl, lct=cl.lct + cl.gap + 1))
    )


def test_gap_attainment_catches_a_log_discrepancy_raised_by_one(monkeypatch):
    # a row whose k is raised by one has log discrepancy k + 2 - lct·d_e = 1
    row = explorer._row

    def raised(*args):
        r = row(*args)
        return replace(r, k=r.k + 1)

    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("gap_attainment", b, lambda: monkeypatch.setattr(explorer, "_row", raised))


def test_classification_decisive_catches_an_indeterminate_verdict(monkeypatch):
    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught(
        "classification_decisive", b, lambda: patch_classify(monkeypatch, lambda cl: replace(cl, verdict="Indeterminate"))
    )


def test_atlas_spot_check_catches_a_round_trip_that_moves_the_last_blowup(monkeypatch):
    # a free point on curve 0 keeps the curve count, so every row can still be recomputed
    cluster_from_json = germ.cluster_from_json

    def moved(doc):
        steps = doc["steps"]
        if len(steps) > 1:
            doc = {**doc, "steps": [*steps[:-1], {"kind": "free", "on": 0}]}
        return cluster_from_json(doc)

    b = smooth_budget(4, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("atlas_spot_check", b, lambda: monkeypatch.setattr(germ, "cluster_from_json", moved))


def test_dstar_unit_reads_the_unloaded_ideal(monkeypatch):
    # an unload that doubles its result leaves the column alone, so only a
    # check read off the unloaded ideal of degree m0 can catch it, and
    # oracle_equivalence finds the two apart
    b = smooth_budget(2, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("oracle_equivalence", b, lambda: doubled_unload(monkeypatch))
    suite = verify_theorems(b).suite("dstar_unit")
    assert suite.checked == 3 and len(suite.counterexamples) == 3


def test_sweep_unloads_each_valuation_ideal_once(monkeypatch):
    requests = Counter()
    valuation_ideal = valuation.valuation_ideal

    def counting_valuation_ideal(c, e, m):
        requests[c, e, m] += 1
        return valuation_ideal(c, e, m)

    monkeypatch.setattr(valuation, "valuation_ideal", counting_valuation_ideal)
    b = EnumBudget(max_steps=3, bases=(germ.SMOOTH, germ.du_val("A2")), ideal_coeff_bound=1)
    report = verify_theorems(b)
    assert report.suite("gap_attainment").checked > 0
    assert requests and max(requests.values()) == 1


def fresh_graded(c, oracle=True):
    """Per curve, its valuation ideals of degree 1..4 and m0..4m0 taken on
    the cluster itself, as the sweep takes a new curve's: each multiple of
    m0 unloaded bump by bump from the one below it, with its E entry
    raised, and the others from ``valuation_ideal``.  With ``oracle``,
    each multiple of m0 must also be ``valuation_ideal``'s; a fault
    injected into either breaks that on purpose."""
    graded = []
    for e in range(c.curve_count()):
        m0 = valuation.fingen_degree(c, e)
        g = {m: valuation.valuation_ideal(c, e, m) for m in range(1, 5) if m % m0}
        d = (0,) * c.curve_count()
        for m in range(m0, 5 * m0, m0):
            d = g[m] = valuation.unload(c, [m if j == e else v for j, v in enumerate(d)])
            assert not oracle or d == valuation.valuation_ideal(c, e, m), (c, e, m)
        graded.append(g)
    return graded


def sweep_pullbacks(monkeypatch, budget):
    """Sweep the budget, comparing each case with what is computed afresh
    on its cluster: its classify records with ``thresholds.classify``, its
    ideals of degree m0 and graded verdicts with ``fresh_graded``, its
    ideal set with ``antinef_ideals(c, bound)`` and each ideal's report
    with ``thresholds.lct_ideal``.  Returns the clusters that differ, the
    clusters past their base's first wave, how many of those found their
    parent's lineage, and the report."""
    case_of = explorer._case
    wrong, later, found = [], 0, 0

    def checked(b, enum_index, c, parent, sweep):
        nonlocal later, found
        case = case_of(b, enum_index, c, parent, sweep)
        if len(c.steps) > c.base.is_smooth:
            later += 1
            found += parent is not None
        n, graded = c.curve_count(), fresh_graded(c)
        if (
            case.classes != [thresholds.classify(c, e) for e in range(n)]
            or case.m0_ideals != [g[valuation.fingen_degree(c, e)] for e, g in enumerate(graded)]
            or case.graded_failed != graded_failures_fresh(c, graded)
            or case.ideals != [(d, thresholds.lct_ideal(c, d)) for d in antinef_ideals(c, b.ideal_coeff_bound)]
        ):
            wrong.append(c)
        return case

    with monkeypatch.context() as m:
        m.setattr(explorer, "_case", checked)
        report = verify_theorems(budget)
    return wrong, later, found, report


@pytest.mark.parametrize(
    "budget, later",
    [
        pytest.param(du_val_budget(("A1", "A2", "A3", "D4", "E6", "E7"), 2), 327, id="sweep-duval"),
        pytest.param(ENUMERATE_REPORT_BUDGET, 235, id="enumerate-report"),
        pytest.param(EnumBudget(3, tuple(map(germ.du_val, ("A2", "D4", "E6"))), 2, 6), 1066, id="A2-D4-E6x3"),
    ],
)
def test_sweep_pulls_back_what_a_fresh_computation_gives(monkeypatch, budget, later):
    # every cluster past a base's first wave finds its parent; every
    # inherited classify record, pulled-back ideal of degree m0, ideal set
    # and inherited threshold report is the one computed afresh, and so are
    # the atlas rows read from them
    wrong, past_first_wave, found, report = sweep_pullbacks(monkeypatch, budget)
    assert not wrong
    assert found == past_first_wave == later
    assert report.rows == tuple(atlas_rows(budget))


@pytest.mark.parametrize(
    "inject, fails",
    [
        pytest.param(lambda mp: None, set(), id="clean"),
        pytest.param(lambda mp: bump_valuation_ideal(mp, 1), {"ideal_monotonicity"}, id="degree-1-bump"),
        pytest.param(
            lambda mp: bump_valuation_ideal(mp, 3), {"ideal_monotonicity", "graded_subadditivity"}, id="degree-3-bump"
        ),
        pytest.param(extra_rees_valuation, {"rees_singleton"}, id="extra-rees-valuation"),
        # the m0..4m0 chain then sets E's entry below the doubled one
        pytest.param(doubled_unload, {"rees_singleton"}, id="doubled-unload"),
    ],
)
def test_inherited_graded_verdicts_match_a_fresh_check(monkeypatch, inject, fails):
    # the three graded-ideal verdicts are computed on the first wave and on
    # each new curve, and inherited on old curves; on every curve they are
    # those of a fresh check of its graded ideals pulled back from the
    # curve's first cluster, clean and under faults, and the faults make
    # inherited verdicts fail.  A doubled unload is no closure, so a curve's
    # ideals taken afresh on a child may differ from those pulled back; the
    # clean sweep checks them against ideals taken afresh (see
    # sweep_pullbacks).
    inject(monkeypatch)
    case_of, wrong, inherited = explorer._case, [], Counter()
    names = ("ideal_monotonicity", "graded_subadditivity", "rees_singleton")
    graded_of = {}  # by (base, steps): fresh on a base's first cluster and each new curve, else pulled back

    def checked(b, enum_index, c, parent, sweep):
        case = case_of(b, enum_index, c, parent, sweep)
        graded = fresh_graded(c, oracle=False)
        if parent is not None:
            refs = germ.step_refs(c.steps[-1])
            old = graded_of[c.base, c.steps[:-1]]
            graded[: len(old)] = [{m: explorer._pullback(d, refs) for m, d in g.items()} for g in old]
        graded_of[c.base, c.steps] = graded
        if case.graded_failed != graded_failures_fresh(c, graded):
            wrong.append(c)
        for failed in [] if parent is None else case.graded_failed[:-1]:
            inherited.update(["curves", *(name for name, f in zip(names, failed) if f)])
        return case

    monkeypatch.setattr(explorer, "_case", checked)
    monkeypatch.setattr(explorer, "_SUITES", {})  # the cases alone are compared
    report = verify_theorems(EnumBudget(4, (germ.SMOOTH, germ.du_val("A2"), germ.du_val("D4")), 0, 1))
    assert report.counts["curves"] == 52 + 1724 + 12494
    assert not wrong and inherited["curves"] > 10000
    assert {name for name in names if inherited[name]} == fails


def test_sweep_catches_an_unload_fault_past_the_first_wave(monkeypatch):
    # past a base's first wave only the new curve's ideals and the joins with
    # its generators are unloaded; an unload that raises the newest curve's
    # entry there is still found, on those clusters alone
    unload = valuation.unload

    def faulty(c, z):
        d = unload(c, z)
        return (*d[:-1], d[-1] + 1) if len(c.steps) > 1 else d

    b = smooth_budget(4, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught("oracle_equivalence", b, lambda: monkeypatch.setattr(valuation, "unload", faulty))
    found = verify_theorems(b).suite("oracle_equivalence").counterexamples
    assert all(len(json.loads(x["steps"])) > 1 for x in found)


def test_oracle_equivalence_catches_a_pullback_that_reads_one_curve_of_a_satellite(monkeypatch):
    # the new entry of a pulled-back ideal must be the sum over both curves
    # through a satellite centre; the column is solved afresh
    pullback = explorer._pullback
    b = smooth_budget(3, ideal_coeff_bound=1, lambda_denominator_bound=2)
    check_fault_is_caught(
        "oracle_equivalence", b, lambda: monkeypatch.setattr(explorer, "_pullback", lambda d, refs: pullback(d, refs[:1]))
    )


def test_pullback_check_catches_an_ideal_set_missing_a_join(monkeypatch):
    # drop from each pulled-back ideal set its largest ideal, if any, that
    # is no parent ideal pulled back: a join with a new generator
    ideals_of, dropped = explorer.antinef_ideals, []

    def missing_a_join(c, bound, pulled=None):
        ideals = ideals_of(c, bound, pulled)
        if pulled is not None:
            joins = [d for d in ideals if d not in pulled]
            if joins:
                ideals.remove(max(joins))
                dropped.append(c)
        return ideals

    b = smooth_budget(4, ideal_coeff_bound=2)
    assert not sweep_pullbacks(monkeypatch, b)[0]
    monkeypatch.setattr(explorer, "antinef_ideals", missing_a_join)
    wrong = sweep_pullbacks(monkeypatch, b)[0]
    assert dropped and set(dropped) <= set(wrong)


WORK_COUNTED = (
    (germ, "build"),
    (valuation, "_column"),
    (thresholds, "lct_ideal"),
    (valuation, "unload"),
    (explorer, "lambda_grid"),
    (explorer, "is_canonical_extension"),
    (germ, "extend"),
    (valuation, "rees_valuations"),
    (thresholds, "classify"),
    (explorer, "_chain_patterns"),
    (germ, "intersect"),
    (explorer, "_pullback"),
)


# and the lc pairs a pair suite walked one by one, on ideals it did not clear
# at a few exponents: the exponents lambda_grid returned in the sweep; and
# the Fractions constructed
WORK_NAMES = (*(name for _, name in WORK_COUNTED), "pairs_walked", "Fraction")
# Fraction arithmetic builds its results through Fraction.__new__ up to
# Python 3.11 and through Fraction._from_coprime_ints from 3.12 on; the
# Fraction counts are pinned where __new__ sees every construction.
COUNTS_FRACTIONS = not hasattr(Fraction, "_from_coprime_ints")


def work(*counts) -> dict:
    """The counts of ``WORK_NAMES``, in its order, that ``count_work`` returns."""
    return {name: n for name, n in zip(WORK_NAMES, counts, strict=True) if COUNTS_FRACTIONS or name != "Fraction"}


def count_work(monkeypatch, run):
    """What ``run()`` returns, with the work of ``WORK_NAMES`` it did, by name."""
    calls = Counter()

    def counted(module, name):
        f = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in WORK_COUNTED:
        counted(module, name)
    grid = explorer.lambda_grid

    def walked(*args):
        exponents = grid(*args)
        calls["pairs_walked"] += len(exponents)
        return exponents

    monkeypatch.setattr(explorer, "lambda_grid", walked)
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return new(cls, *args, **kwargs)

    if COUNTS_FRACTIONS:
        monkeypatch.setattr(Fraction, "__new__", counting_new)
    return run(), work(*(calls[name] for name in WORK_NAMES))


def sweep_work(monkeypatch, budget):
    """One ``verify_theorems`` report over the budget, with its work."""
    return count_work(monkeypatch, lambda: verify_theorems(budget))


def test_sweep_work_at_the_enumerate_report_budget(monkeypatch):
    # deterministic work counts of the benchmark's enumerate-report sweep;
    # a change that lowers a count lowers its pin.  The base's first cluster
    # and each spot check are built, and every other class extended.  Old
    # curves inherit their classify records, so classify runs on the first
    # cluster's curves, each new curve and each spot check.  The chain
    # patterns of the extension depth, 2, are built once for the sweep.
    # Each parent ideal is pulled back once per child, and a column is
    # multiplied by M once, by model_stability's certificate.
    report, calls = sweep_work(monkeypatch, ENUMERATE_REPORT_BUDGET)
    assert report.counterexample_total() == 0
    assert calls == work(67, 1403, 1984, 2052, 0, 458, 235, 944, 302, 1, 4333, 1571, 0, 3059)
    assert report.counts["lc_pairs"] == 21948


@pytest.mark.parametrize(
    "budget, counts, lc_pairs",
    [
        pytest.param(
            EnumBudget(
                max_steps=2,
                bases=tuple(map(germ.du_val, ("A1", "A2", "A3", "D4", "E6", "E7"))),
                ideal_coeff_bound=1,
                lambda_denominator_bound=4,
            ),
            (129, 2584, 1873, 3074, 0, 494, 327, 1400, 473, 0, 6935, 2765, 0, 3479),
            1210,
            id="sweep-duval",
        ),
        pytest.param(
            SWEEP_A_BUDGET,
            (13, 269, 1115, 660, 0, 89, 55, 224, 68, 0, 1141, 614, 0, 2024),
            21920,
            id="sweep-A",
        ),
        pytest.param(
            smooth_budget(4, ideal_coeff_bound=3, lambda_denominator_bound=12, extension_depth=3),
            (3, 54, 277, 167, 0, 19, 14, 60, 17, 1, 279, 131, 0, 502),
            5438,
            id="sweep-B",
        ),
        pytest.param(
            EnumBudget(max_steps=7),
            (368, 7717, 15249, 10921, 0, 2438, 1094, 4380, 1462, 0, 22651, 11063, 0, 25616),
            68112,
            id="enumerate-7",
        ),
    ],
)
def test_sweep_work_at_the_north_star_budgets(monkeypatch, budget, counts, lc_pairs):
    # the benchmark's du Val bases in one sweep, acceptance sweeps A and B,
    # and smooth <= 7 at the command-line defaults; the counts are in the
    # order of WORK_NAMES.  Only sweep B, at extension depth 3, builds chain
    # patterns, once.
    report, calls = sweep_work(monkeypatch, budget)
    assert report.counterexample_total() == 0
    assert calls == work(*counts)
    assert report.counts["lc_pairs"] == lc_pairs


def test_sweep_keeps_no_cached_column(sweep_a):
    # once a cluster's suites have run, its columns are dropped: the report's
    # rows keep every cluster alive, and nothing after the suites reads a
    # column, as the spot check rebuilds its clusters from JSON
    e6 = EnumBudget(max_steps=2, bases=(germ.du_val("E6"),), ideal_coeff_bound=1, lambda_denominator_bound=4)
    for report in sweep_a[0], verify_theorems(e6):
        assert report.rows and not any(r.cluster._dstar for r in report.rows)


def test_analyze_work_on_a_long_chain(monkeypatch, tmp_path, capsys):
    # analyze --last on a 10,000-blowup chain builds the cluster and solves
    # the last curve's column, record and threshold once; its gap is
    # positive, so no witness is unloaded.  Its dstar is read off the integer
    # column with no Fraction, and no product with M is taken.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(germ.cluster_to_json(satellite_chain(10_000))))
    code, calls = count_work(monkeypatch, lambda: cli.main(["analyze", str(path), "--last", "-f", "json"]))
    assert code == 0 and json.loads(capsys.readouterr().out)["gap"] == "9997/6"
    assert calls == work(1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 4)


def test_sweep_evaluates_pairs_only_on_ideals_a_suite_does_not_clear(monkeypatch):
    # curve 2 obstructed by curve 1 fails witness_strictness on some ideals;
    # those alone are walked pair by pair, once each.  classify is patched
    # where the sweep calls it: on curve 2 when it is new, and its children
    # inherit the record.
    classify, change = thresholds.classify, swap_witness(2, 1)
    monkeypatch.setattr(thresholds, "classify", lambda c, e: change(c, classify(c, e)))
    b = smooth_budget(4, ideal_coeff_bound=1, lambda_denominator_bound=6)
    report, calls = sweep_work(monkeypatch, b)
    suite = report.suite("witness_strictness")
    assert report.counterexample_total() == len(suite.counterexamples) > 0
    failing = {(x["steps"], tuple(x["ideal"])) for x in suite.counterexamples}
    assert (calls["lambda_grid"], calls["pairs_walked"], len(suite.counterexamples)) == (len(failing), 216, 101) == (9, 216, 101)
    assert calls["pairs_walked"] < report.counts["lc_pairs"]


def test_verify_theorems_du_val_dichotomy():
    bases = tuple(germ.du_val(x) for x in ("A1", "A2", "A3", "D4", "E6", "E7", "E8"))
    report = verify_theorems(
        EnumBudget(max_steps=2, bases=bases, ideal_coeff_bound=1, lambda_denominator_bound=4)
    )
    assert report.counterexample_total() == 0
    decisive = report.suite("classification_decisive")
    assert decisive.checked > 1000 and not decisive.counterexamples


def test_counterexamples_are_reported_not_raised(monkeypatch):
    # break an implication on purpose: with every argmin empty, no curve
    # is plt and every unique lc place becomes a recorded counterexample
    classify = thresholds.classify
    monkeypatch.setattr(thresholds, "classify", lambda c, e: replace(classify(c, e), argmin=frozenset()))
    report = verify_theorems(smooth_budget(2, ideal_coeff_bound=1))
    suite = report.suite("unique_place_plt")
    assert suite.counterexamples
    assert report.counterexample_total() == len(suite.counterexamples)
    doc = report.to_json()
    assert doc["total_counterexamples"] > 0


def test_atlas_rows_reproducible_and_deterministic():
    b = smooth_budget(3)
    rows1 = atlas_rows(b)
    rows2 = atlas_rows(b)
    assert rows1 == rows2
    for row in rows1[:8]:
        assert row.lct == thresholds.classify(row.cluster, row.curve).lct
        assert row.fingen_degree == valuation.fingen_degree(row.cluster, row.curve)


def test_extremal_gaps_ordering():
    b = smooth_budget(4, ideal_coeff_bound=0)
    rows = rank_by_gap(atlas_rows(b))
    gaps = [r.gap for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    assert rows[-1].gap == 0
    for r1, r2 in zip(rows, rows[1:]):
        if r1.gap == r2.gap:
            key1 = (r1.cluster.curve_count(), r1.enum_index, r1.curve)
            key2 = (r2.cluster.curve_count(), r2.enum_index, r2.curve)
            assert key1 <= key2
    # the depth-4 satellite chain carries a positive gap at its last curve
    assert any(r.gap == Fraction(1, 6) for r in rows)


def test_extremal_gaps_single_and_du_val_only():
    rows = rank_by_gap(atlas_rows(smooth_budget(1)))
    assert len(rows) == 1 and rows[0].gap == 0 and rows[0].verdict == "ComputesLct"

    duval_only = EnumBudget(max_steps=1, bases=(germ.du_val("A2"), germ.du_val("D4")))
    rows = rank_by_gap(atlas_rows(duval_only))
    assert rows and all(not r.cluster.base.is_smooth for r in rows)


def test_atlas_csv_shape():
    b = smooth_budget(2)
    buf = io.StringIO()
    write_atlas_csv(atlas_rows(b), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(ATLAS_COLUMNS)
    assert lines[1] == 'smooth,"[{""kind"":""free"",""on"":null}]",0,1,2,0,1,ComputesLct,'
    assert len(lines) == 1 + 1 + 2  # header + one 1-step row + two 2-step rows
