import gc
import weakref
from fractions import Fraction

import pytest

from germval import germ, thresholds, valuation
from germval.errors import MldMinusInfinity, NotAntinef
from germval.explorer import EnumBudget, antinef_ideals, enumerate_clusters
from germval.thresholds import MINUS_INFINITY, PLUS_INFINITY

from conftest import (
    chain2,
    check_classify_against_pruned,
    oracle_lct_unloading,
    prune_to_ancestors,
    satellite_chain,
    single_blowup,
)


def ideal(c, coeffs):
    return thresholds.complete_ideal(c, coeffs)


def pair(c, coeffs, lam):
    return thresholds.pair_spec(c, coeffs, lam)


def test_complete_ideal_validation():
    ideal(chain2(), (0, 0))
    ideal(chain2(), (1, 2))
    with pytest.raises(NotAntinef):
        ideal(chain2(), (0, 1))
    with pytest.raises(ValueError):
        ideal(chain2(), (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        thresholds.pair_spec(chain2(), (1, 1), Fraction(-1))


def test_log_discrepancy_examples():
    sb = single_blowup()
    assert thresholds.log_discrepancy(sb, pair(sb, (1,), 1), 0) == 1
    assert thresholds.log_discrepancy(sb, pair(sb, (1,), 2), 0) == 0
    r3 = satellite_chain(3)
    assert thresholds.log_discrepancy(r3, pair(r3, (2, 3, 6), Fraction(5, 6)), 2) == 0


def test_lct_ideal_examples():
    sb = single_blowup()
    rep = thresholds.lct_ideal(sb, ideal(sb, (1,)))
    assert rep.value == 2 and rep.argmin == frozenset({0})

    zero = thresholds.lct_ideal(sb, ideal(sb, (0,)))
    assert zero.value is PLUS_INFINITY and zero.argmin == frozenset()

    r3 = satellite_chain(3)
    rep = thresholds.lct_ideal(r3, ideal(r3, (2, 3, 6)))
    assert rep.value == Fraction(5, 6) and rep.argmin == frozenset({2})


def test_asymptotic_lct_examples():
    cl = thresholds.classify(single_blowup(), 0)
    assert cl.lct == 2 and cl.argmin == frozenset({0})

    cl3 = thresholds.classify(satellite_chain(3), 2)
    assert cl3.lct == 5 and cl3.argmin == frozenset({2})

    cl4 = thresholds.classify(satellite_chain(4), 3)
    assert cl4.lct == Fraction(35, 6) and cl4.argmin == frozenset({2})
    assert cl4.lct < 6  # strictly below k+1 = 6


def test_asymptotic_lct_against_unloading_oracle():
    cases = [(satellite_chain(r), r - 1) for r in range(3, 7)]
    cases += [(chain2(), 0), (chain2(), 1), (germ.build(germ.du_val("A2"), ()), 1)]
    for c, e in cases:
        assert thresholds.classify(c, e).lct == oracle_lct_unloading(c, e)


def test_satellite_chain_law():
    # The chain's last curve has lct 5(r+3)/6 = (k2+1)/dstar2, attained
    # only at E2; the closed form 6(r+2)/(r+3) recorded by paper_examples
    # agrees only at r = 3.  Past r = 30 the oracle starts unloading at
    # the degree r + 3 that the chain's valuation ideals stabilize in
    # (each earlier degree costs a dense unload), and still checks there
    # that the ideal is numerically trivial off the last curve.
    for r in range(3, 61):
        c = satellite_chain(r)
        cl = thresholds.classify(c, r - 1)
        assert cl.lct == Fraction(5 * (r + 3), 6) and cl.argmin == frozenset({2})
        assert cl.lct == oracle_lct_unloading(c, r - 1, start=1 if r <= 30 else r + 3)
        assert (cl.lct == Fraction(6 * (r + 2), r + 3)) == (r == 3)


def test_cluster_freed_after_queries():
    c = germ.build(germ.du_val("D4"), (germ.Free(0), germ.Satellite((0, 4))))
    e = c.curve_count() - 1
    thresholds.classify(c, e)
    valuation.asymptotic_multiplicities(c, e)
    valuation.fingen_degree(c, e)
    valuation.fingen_ideal(c, e)
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def computes_lct(c, e):
    return thresholds.classify(c, e).gap == 0


def witness_ideal(c, e):
    """m0·dstar, the lct witness of a curve computing an lct."""
    return thresholds.CompleteIdeal(valuation.fingen_ideal(c, e))


def plt(c, e):
    """E alone attains its asymptotic lct over the model curves."""
    return thresholds.classify(c, e).argmin == {e}


def test_computes_lct_examples():
    assert computes_lct(single_blowup(), 0)
    assert computes_lct(satellite_chain(3), 2)
    for r in range(4, 9):
        assert not computes_lct(satellite_chain(r), r - 1)
    assert computes_lct(germ.build(germ.du_val("A2"), ()), 0)


def test_lct_witness_ideal_examples():
    assert witness_ideal(single_blowup(), 0).coeffs == (1,)

    r3 = satellite_chain(3)
    assert computes_lct(r3, 2)
    w = witness_ideal(r3, 2)
    assert w.coeffs == (2, 3, 6)
    rep = thresholds.lct_ideal(r3, w)
    assert rep.value == Fraction(5, 6) and 2 in rep.argmin

    assert computes_lct(chain2(), 1)
    w2 = witness_ideal(chain2(), 1)
    assert w2.coeffs == (1, 2)
    rep2 = thresholds.lct_ideal(chain2(), w2)
    assert rep2.value == Fraction(3, 2) and rep2.argmin == frozenset({1})

    # a curve with a positive gap does not attain the threshold of m0·dstar
    r4 = satellite_chain(4)
    assert not computes_lct(r4, 3)
    assert 3 not in thresholds.lct_ideal(r4, witness_ideal(r4, 3)).argmin


def test_plt_check_examples():
    assert plt(single_blowup(), 0)  # vacuous
    # both other ratios equal 6 > 5, strict for every model curve
    assert plt(satellite_chain(3), 2)
    assert not plt(satellite_chain(4), 3)


def test_unique_lc_place_examples():
    sb = single_blowup()
    assert thresholds.unique_lc_place(sb, ideal(sb, (1,))) == 0
    r3 = satellite_chain(3)
    assert thresholds.unique_lc_place(r3, ideal(r3, (2, 3, 6))) == 2
    assert thresholds.unique_lc_place(chain2(), ideal(chain2(), (1, 1))) == 0
    # a genuine tie has no unique place: ratios 2/1 and 3/2... use (1,2): 2/1 vs 3/2 -> {1}
    assert thresholds.unique_lc_place(chain2(), ideal(chain2(), (1, 2))) == 1
    with pytest.raises(ValueError):
        thresholds.unique_lc_place(sb, ideal(sb, (0,)))


def test_unique_lc_place_none_on_tie():
    r3 = satellite_chain(3)
    # ratios for (2,3,12) are 1, 1, 5/12: min unique; use (1,1,2): 2, 3, 5/2 -> {0}
    # build a tie instead on the A2 chain: both curves ratio 1 for (1,1)
    a2 = germ.build(germ.du_val("A2"), ())
    assert thresholds.unique_lc_place(a2, ideal(a2, (1, 1))) is None


def test_unique_lc_place_implies_plt():
    for c in (chain2(), satellite_chain(3), satellite_chain(4)):
        for coeffs in antinef_ideals(c, 3):
            if not any(coeffs):
                continue
            place = thresholds.unique_lc_place(c, thresholds.CompleteIdeal(coeffs))
            if place is not None:
                assert plt(c, place)


def test_mld_at_origin_examples():
    sb = single_blowup()
    assert thresholds.mld_at_origin(sb, pair(sb, (0,), 1)) == 2
    assert thresholds.mld_at_origin(sb, pair(sb, (0,), 99)) == 2
    e7 = germ.build(germ.du_val("E7"), ())
    assert thresholds.mld_at_origin(e7, pair(e7, (0,) * 7, 1)) == 1
    assert thresholds.mld_at_origin(sb, pair(sb, (1,), 3)) is MINUS_INFINITY


def test_computes_mld_examples():
    sb = single_blowup()
    assert thresholds.computes_mld(sb, 0, pair(sb, (1,), 2))

    r4 = satellite_chain(4)
    lam = thresholds.lct_ideal(r4, ideal(r4, (2, 3, 6, 7))).value
    assert lam == Fraction(5, 6)
    assert not thresholds.computes_mld(r4, 3, pair(r4, (2, 3, 6, 7), lam))
    assert thresholds.computes_mld(r4, 2, pair(r4, (2, 3, 6, 7), lam))

    e7 = germ.build(germ.du_val("E7"), ())
    trivial = pair(e7, (0,) * 7, 1)
    assert all(thresholds.computes_mld(e7, e, trivial) for e in range(7))

    with pytest.raises(MldMinusInfinity):
        thresholds.computes_mld(sb, 0, pair(sb, (1,), 3))


def test_mld_obstruction_examples():
    for r in range(4, 9):
        assert thresholds.classify(satellite_chain(r), r - 1).witness == 2
    assert thresholds.classify(single_blowup(), 0).witness is None
    assert thresholds.classify(satellite_chain(3), 2).witness is None


def test_classify_examples():
    cl3 = thresholds.classify(satellite_chain(3), 2)
    assert (cl3.verdict, cl3.witness) == ("ComputesLct", None)

    cl6 = thresholds.classify(satellite_chain(6), 5)
    assert (cl6.verdict, cl6.witness) == ("MldObstructed", 2)

    a2 = germ.build(germ.du_val("A2"), ())
    assert thresholds.classify(a2, 0).verdict == "ComputesLct"


def test_classify_prunes_siblings():
    # a sibling with large k must not block the witness inequality
    c = germ.build(
        germ.SMOOTH,
        tuple(
            [germ.Free(None), germ.Free(0), germ.Satellite((0, 1)), germ.Free(2)]
        ),
    )
    # attach a deep chain elsewhere: ancestors of curve 3 ignore it
    c_big = germ.build(
        germ.SMOOTH,
        c.steps + (germ.Satellite((2, 3)), germ.Satellite((2, 4))),
    )
    cl = thresholds.classify(c_big, 3)
    assert cl.verdict == "MldObstructed" and cl.witness == 2
    pruned, _ = prune_to_ancestors(c_big, 3)
    assert pruned == c


def test_classify_argmin_spans_every_model_curve():
    # the satellite at the meeting point of curves 0 and 1 ties their
    # threshold for curve 0 without being one of its ancestors
    c = germ.build(germ.du_val("D4"), (germ.Satellite((0, 1)),))
    cl = thresholds.classify(c, 0)
    assert cl.argmin == {0, 1, 4}
    assert cl.argmin & germ.ancestor_curves(c, 0) == {0, 1}


DU_VAL_LABELS = ("A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8")


@pytest.mark.parametrize(
    "budget",
    [
        pytest.param(EnumBudget(max_steps=5, bases=(germ.SMOOTH,)), id="smooth5"),
        pytest.param(EnumBudget(max_steps=2, bases=tuple(map(germ.du_val, DU_VAL_LABELS))), id="A1-E8x2"),
    ],
)
def test_classify_matches_pruned_cluster_oracle(budget):
    check_classify_against_pruned(enumerate_clusters(budget))


def test_lct_gap_examples():
    assert thresholds.classify(single_blowup(), 0).gap == 0
    assert thresholds.classify(satellite_chain(3), 2).gap == 0
    # k+1 = 6 at the last curve of the r=4 chain; value is 35/6
    assert thresholds.classify(satellite_chain(4), 3).gap == Fraction(1, 6)
    # the gap grows linearly along the family
    for r in range(3, 9):
        assert thresholds.classify(satellite_chain(r), r - 1).gap == Fraction(r - 3, 6)


def test_scaling_and_containment():
    r3 = satellite_chain(3)
    base_val = thresholds.lct_ideal(r3, ideal(r3, (2, 3, 6))).value
    for m in (2, 3, 5):
        scaled = thresholds.lct_ideal(r3, ideal(r3, tuple(m * v for v in (2, 3, 6))))
        assert scaled.value == base_val / m
    # containment: bigger divisor, smaller threshold
    vals = {}
    for coeffs in antinef_ideals(r3, 2):
        rep = thresholds.lct_ideal(r3, thresholds.CompleteIdeal(coeffs))
        vals[coeffs] = rep.value
    for da, va in vals.items():
        for db, vb in vals.items():
            if all(a >= b for a, b in zip(da, db)) and va is not PLUS_INFINITY:
                assert vb is PLUS_INFINITY or va <= vb


def test_upper_bound_and_prime_blowup():
    for c in (satellite_chain(5), germ.build(germ.du_val("D4"), (germ.Free(0),))):
        k = germ.canonical_vector(c)
        for e in range(c.curve_count()):
            cl = thresholds.classify(c, e)
            assert cl.lct <= k[e] + 1 and cl.gap == k[e] + 1 - cl.lct
            assert (cl.gap == 0) == (cl.verdict == "ComputesLct")
            # the one-divisor model's threshold lct - k
            assert (cl.gap < 1) == (cl.lct - k[e] > 0)


def test_gap_identity_attainment():
    # when the gap vanishes, the witness pair attains log discrepancy 0
    for c, e in ((single_blowup(), 0), (satellite_chain(3), 2), (chain2(), 1)):
        assert computes_lct(c, e)
        w = witness_ideal(c, e)
        lam = thresholds.lct_ideal(c, w).value
        p = thresholds.PairSpec(w, lam)
        assert thresholds.log_discrepancy(c, p, e) == 0
        assert thresholds.mld_at_origin(c, p) == 0


def test_gap_lower_bounds_log_discrepancy():
    r4 = satellite_chain(4)
    gap = thresholds.classify(r4, 3).gap
    for coeffs in antinef_ideals(r4, 2):
        if not any(coeffs):
            continue
        lct = thresholds.lct_ideal(r4, thresholds.CompleteIdeal(coeffs)).value
        for lam in (lct, lct / 2, lct / 3):
            p = thresholds.PairSpec(thresholds.CompleteIdeal(coeffs), lam)
            assert thresholds.mld_at_origin(r4, p) is not MINUS_INFINITY
            assert thresholds.log_discrepancy(r4, p, 3) >= gap


def test_pair_json_round_trip():
    r3 = satellite_chain(3)
    p = pair(r3, (2, 3, 6), Fraction(5, 6))
    doc = thresholds.pair_to_json(p)
    assert doc == {"ideal": ["2", "3", "6"], "lambda": "5/6"}
    assert thresholds.pair_from_json(r3, doc) == p
    with pytest.raises(ValueError):
        thresholds.pair_from_json(r3, {"ideal": "x", "lambda": "1"})
    with pytest.raises(ValueError):
        thresholds.pair_from_json(r3, {"ideal": ["1", "1", "1"], "lambda": 1})


def test_format_value():
    assert thresholds.format_value(PLUS_INFINITY) == "inf"
    assert thresholds.format_value(MINUS_INFINITY) == "-inf"
    assert thresholds.format_value(Fraction(5, 6)) == "5/6"
