import io
import json
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from germval import explorer, germ, thresholds, valuation
from germval.explorer import (
    ATLAS_COLUMNS,
    SUITE_NAMES,
    EnumBudget,
    antinef_ideals,
    atlas_rows,
    cluster_from_signature,
    cluster_signature,
    enumerate_clusters,
    extension_forms,
    lambda_grid,
    rank_by_gap,
    verify_theorems,
    write_atlas_csv,
)

from conftest import (
    antinef_ideals_bruteforce,
    chain2,
    cluster_signature_permutations,
    count_ratio_lists,
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
    for c in enumerate_clusters(smooth_budget(4)):
        sig = cluster_signature(c)
        assert cluster_from_signature(sig) == c


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


def du_val_budget(labels, max_steps):
    return EnumBudget(max_steps=max_steps, bases=tuple(germ.du_val(x) for x in labels))


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


def test_long_chain_signs_without_deep_recursion():
    # one step per position and no ties: the search places them in a loop
    steps = [germ.Free(None)] + [germ.Free(i) for i in range(1499)]
    sig = cluster_signature(germ.build(germ.SMOOTH, steps))
    assert sig == ("smooth", ()) + tuple((i,) for i in range(1499))


def test_signature_of_extension_reads_step_parents():
    for c in enumerate_clusters(EnumBudget(max_steps=4, bases=(germ.SMOOTH, germ.du_val("D4")))):
        for step in germ.legal_steps(c):
            assert cluster_signature(c, step) == cluster_signature(germ.extend(c, step))


@pytest.mark.parametrize("budget,classes", [(smooth_budget(6), 236), (du_val_budget(("E6",), 4), 4736)])
def test_enumeration_builds_each_class_once(monkeypatch, budget, classes):
    builds = []
    build = germ.build

    def counting_build(base, steps):
        builds.append(steps)
        return build(base, steps)

    monkeypatch.setattr(germ, "build", counting_build)
    assert sum(1 for _ in enumerate_clusters(budget)) == classes
    assert len(builds) == classes


@pytest.mark.parametrize("budget,bound", JOIN_ORACLE_BUDGETS)
def test_antinef_ideals_match_bruteforce(budget, bound):
    for c in enumerate_clusters(budget):
        assert antinef_ideals(c, bound) == antinef_ideals_bruteforce(c, bound), c


def test_antinef_ideals_unload_count(monkeypatch):
    # the join closure unloads each generator once and joins each ideal
    # with each generator at most once: n·B·(|ideals| + 1) in all
    calls = 0
    unload = valuation.unload

    def counting_unload(c, z):
        nonlocal calls
        calls += 1
        return unload(c, z)

    monkeypatch.setattr(valuation, "unload", counting_unload)
    bound = 1
    for c in enumerate_clusters(du_val_budget(("A1", "A2", "A3", "D4", "E6", "E7"), 2)):
        calls = 0
        ideals = antinef_ideals(c, bound)
        assert calls <= c.curve_count() * bound * (len(ideals) + 1), c


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


def test_extension_forms_small():
    sb = single_blowup()
    assert extension_forms(sb, 0) == []
    assert extension_forms(sb, 1) == [(1, (1,))]
    depth2 = extension_forms(sb, 2)
    # free-on-free, and the satellite of the curve with its free child
    assert (2, (1,)) in depth2 and (2, (2,)) in depth2

    forms = extension_forms(chain2(), 1)
    assert (1, (1, 0)) in forms and (1, (0, 1)) in forms and (1, (1, 1)) in forms


def test_extension_forms_track_consumed_intersections():
    # depth-2 satellite forms on the chain: after the satellite of (0,1),
    # the pair (0,1) is consumed, so no form can weight it twice
    forms = extension_forms(chain2(), 2)
    assert (2, (2, 1)) in forms  # satellite of curve 0 with the first satellite
    assert (2, (1, 2)) in forms
    assert all(not (const == 2 and ws == (2, 2)) for const, ws in forms)


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
    # each atlas row and each spot check builds its curve's ratio list
    # once, in classify; no suite builds it again
    count = count_ratio_lists(monkeypatch)
    report = verify_theorems(smooth_budget(3, ideal_coeff_bound=1))
    rows = report.counts["curves"] + report.suite("atlas_spot_check").checked
    assert count["calls"] == rows


def test_atlas_rows_build_one_ratio_list_per_row(monkeypatch):
    count = count_ratio_lists(monkeypatch)
    rows = atlas_rows(EnumBudget(max_steps=2, bases=(germ.SMOOTH, germ.du_val("A2"))))
    assert count["calls"] == len(rows) > 0


def test_sweep_computes_each_ideal_threshold_once(monkeypatch):
    # _case takes each ideal's threshold once; lct_scaling (two powers)
    # and unique_place_plt ask again for each nonzero ideal, and
    # gap_attainment once per curve computing an lct
    calls = {"all": 0, "in_grid": 0}
    inside_grid = [False]
    lct_ideal, grid = thresholds.lct_ideal, explorer.lambda_grid

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
    report = verify_theorems(EnumBudget(max_steps=3, bases=(germ.SMOOTH, germ.du_val("A2")), ideal_coeff_bound=1))
    counts = report.counts
    nonzero = counts["ideals"] - counts["clusters"]  # one trivial ideal per cluster
    assert nonzero > 0 and calls["in_grid"] == 0
    assert calls["all"] == counts["ideals"] + 3 * nonzero + report.suite("gap_attainment").checked


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
