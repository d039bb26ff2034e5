"""Acceptance suite: one test per criterion, exact tolerances, with a
printed pass/fail line each (run with `pytest -s` to see the table)."""

import time
from fractions import Fraction

from germval import germ, thresholds, valuation

from conftest import oracle_lct_unloading, satellite_chain, single_blowup


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _clean(report, suite_name):
    suite = report.suite(suite_name)
    return suite.checked > 0 and not suite.counterexamples, suite


def test_criterion_01_single_blowup_threshold():
    satellite_chain(3)  # warm code paths; timing covers the fresh cluster below
    start = time.perf_counter()
    c = single_blowup()
    cl = thresholds.classify(c, 0)
    value, verdict = cl.lct, cl.verdict
    k = germ.canonical_vector(c)[0]
    elapsed = time.perf_counter() - start
    ok = value == 2 == k + 1 and verdict == "ComputesLct" and elapsed < 0.001
    _report(1, ok, f"single blowup: lct={value}, verdict={verdict} ({elapsed*1e3:.2f} ms)")


def test_criterion_02_satellite_chain_three():
    start = time.perf_counter()
    c = satellite_chain(3)
    ideal = valuation.valuation_ideal(c, 2, 6)
    degree = valuation.fingen_degree(c, 2)
    cl = thresholds.classify(c, 2)
    value, verdict = cl.lct, cl.verdict
    elapsed = time.perf_counter() - start
    ok = (
        ideal == (2, 3, 6)
        and degree == 6
        and value == 5 == germ.canonical_vector(c)[2] + 1
        and verdict == "ComputesLct"
        and elapsed < 0.010
    )
    _report(2, ok, f"r=3: ideal={ideal}, degree={degree}, lct={value} ({elapsed*1e3:.2f} ms)")


def test_criterion_03_satellite_chain_family():
    start = time.perf_counter()
    details = []
    ok = True
    for r in range(4, 9):
        c = satellite_chain(r)
        e = r - 1
        ideal = valuation.valuation_ideal(c, e, r + 3)
        expected_ideal = tuple([2, 3] + [i + 4 for i in range(2, r)])
        degree = valuation.fingen_degree(c, e)
        cl = thresholds.classify(c, e)
        value = cl.lct
        oracle = oracle_lct_unloading(c, e)
        closed_form = Fraction(6 * (r + 2), r + 3)  # recorded, not asserted
        ok = ok and (
            ideal == expected_ideal
            and degree == r + 3
            and (cl.verdict, cl.witness) == ("MldObstructed", 2)
            and value == oracle
        )
        details.append(f"r={r}: lct={value} (closed form {closed_form})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.100
    _report(3, ok, f"{'; '.join(details)} ({elapsed*1e3:.1f} ms)")


def test_criterion_04_du_val_e7():
    start = time.perf_counter()
    c = germ.build(germ.du_val("E7"), ())
    trivial = thresholds.PairSpec((0,) * 7, Fraction(1))
    mld = thresholds.mld_at_origin(c, trivial)
    mld_all = all(thresholds.computes_mld(c, e, trivial) for e in range(7))
    subset = {e for e in range(7) if thresholds.classify(c, e).gap == 0}
    elapsed = time.perf_counter() - start
    ok = (
        mld == 1
        and mld_all
        and 0 < len(subset) < 7
        and subset == {2}
        and elapsed < 0.010
    )
    _report(4, ok, f"E7: mld={mld}, lct subset={sorted(subset)} ({elapsed*1e3:.2f} ms)")


def test_criterion_05_oracle_equivalence(sweep_a):
    report, elapsed = sweep_a
    ok, suite = _clean(report, "oracle_equivalence")
    ok = ok and elapsed < 60
    _report(5, ok, f"unloading = degree * multiplicities at {suite.checked} curves ({elapsed:.1f} s)")


def test_criterion_06_multiplicity_normalization_and_upper_bound(sweep_a):
    report, _ = sweep_a
    ok1, s1 = _clean(report, "dstar_unit")
    ok2, s2 = _clean(report, "lct_upper_bound")
    _report(6, ok1 and ok2, f"unit multiplicity at {s1.checked} curves, bound at {s2.checked}")


def test_criterion_07_mld_computers_compute_lct(sweep_a):
    report, elapsed = sweep_a
    ok, suite = _clean(report, "mld_implies_lct")
    ok = ok and elapsed < 600
    _report(7, ok, f"no mld-computing curve fails lct over {suite.checked} lc pairs ({elapsed:.1f} s)")


def test_criterion_08_witness_strictness(sweep_a):
    report, _ = sweep_a
    ok, suite = _clean(report, "witness_strictness")
    _report(8, ok, f"witness stays strictly below at {suite.checked} lc pairs")


def test_criterion_09_gap_inequality_and_attainment(sweep_a):
    report, _ = sweep_a
    ok1, s1 = _clean(report, "gap_inequality")
    ok2, s2 = _clean(report, "gap_attainment")
    _report(9, ok1 and ok2, f"gap bound at {s1.checked} pairs, attainment at {s2.checked} curves")


def test_criterion_10_rees_stabilization(sweep_a):
    report, _ = sweep_a
    ok, suite = _clean(report, "rees_singleton")
    _report(10, ok, f"single Rees valuation along multiples at {suite.checked} curves")


def test_criterion_11_mld_extension_guard(sweep_b):
    report, elapsed = sweep_b
    ok, suite = _clean(report, "mld_extension_guard")
    ok = ok and elapsed < 600
    _report(11, ok, f"depth-3 extensions never undercut the mld at {suite.checked} pairs ({elapsed:.1f} s)")
