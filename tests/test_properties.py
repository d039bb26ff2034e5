"""Randomized invariants over arbitrary valid clusters, beyond the
exhaustively enumerated sizes."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from germval import germ, thresholds, valuation
from germval.explorer import antinef_ideals, cluster_signature

from conftest import (
    antinef_ideals_bruteforce,
    check_classify_against_pruned,
    check_proximity_model,
    cold_valuation_ideal,
    renumber,
    unload_dense,
)

BASES = [
    germ.SMOOTH,
    germ.du_val("A1"),
    germ.du_val("A3"),
    germ.du_val("A12"),
    germ.du_val("D4"),
    germ.du_val("D6"),
    germ.du_val("E6"),
    germ.du_val("E7"),
    germ.du_val("E8"),
]


@st.composite
def clusters(draw, max_extra_steps=5):
    base = draw(st.sampled_from(BASES))
    if base.is_smooth:
        c = germ.build(base, (germ.Free(None),))
    else:
        c = germ.build(base, ())
    for _ in range(draw(st.integers(min_value=0, max_value=max_extra_steps))):
        c = germ.extend(c, draw(st.sampled_from(germ.legal_steps(c))))
    return c


@st.composite
def cluster_and_curve(draw):
    c = draw(clusters())
    return c, draw(st.integers(min_value=0, max_value=c.curve_count() - 1))


@settings(max_examples=60, deadline=None)
@given(cluster_and_curve())
def test_multiplicities_and_degree_invariants(cc):
    c, e = cc
    x = valuation.asymptotic_multiplicities(c, e)
    assert x[e] == 1 and all(v > 0 for v in x)
    m0 = valuation.fingen_degree(c, e)
    cold = cold_valuation_ideal(c, e, m0)
    assert cold == tuple(m0 * v for v in x)
    assert valuation.rees_valuations(c, cold) == {e}


@settings(max_examples=40, deadline=None)
@given(clusters(max_extra_steps=34), st.data())
def test_proximity_model_against_dense_oracles(c, data):
    # up to 46 curves: 34 steps over A12, 35 over a smooth point
    e = data.draw(st.integers(min_value=0, max_value=c.curve_count() - 1))
    check_proximity_model(c, (e,))


@settings(max_examples=60, deadline=None)
@given(cluster_and_curve())
def test_threshold_invariants(cc):
    c, e = cc
    k = germ.canonical_vector(c)
    cl = thresholds.classify(c, e)
    assert 0 <= cl.gap == k[e] + 1 - cl.lct
    assert (cl.gap == 0) == (cl.verdict == "ComputesLct") == (e in cl.argmin)
    assert cl.verdict != "Indeterminate"


@settings(max_examples=40, deadline=None)
@given(clusters(max_extra_steps=34))
def test_classify_matches_pruned_cluster_oracle(c):
    # random legal steps interleave curves off each curve's ancestry
    check_classify_against_pruned([c])


@settings(max_examples=40, deadline=None)
@given(cluster_and_curve(), st.data())
def test_multiplicities_stable_under_extension(cc, data):
    c, e = cc
    step = data.draw(st.sampled_from(germ.legal_steps(c)))
    c2 = germ.extend(c, step)
    n = c.curve_count()
    assert valuation.asymptotic_multiplicities(c2, e)[:n] == (
        valuation.asymptotic_multiplicities(c, e)
    )


@settings(max_examples=40, deadline=None)
@given(clusters().filter(lambda c: c.curve_count() <= 8), st.sampled_from((1, 2)))
def test_antinef_ideals_join_closure_matches_bruteforce(c, bound):
    assert antinef_ideals(c, bound) == antinef_ideals_bruteforce(c, bound)


@settings(max_examples=40, deadline=None)
@given(clusters(), st.data())
def test_random_antinef_ideal_threshold_laws(c, data):
    n = c.curve_count()
    vec = tuple(data.draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
    coeffs = valuation.unload(c, vec)
    ideal = thresholds.complete_ideal(c, coeffs)
    rep = thresholds.lct_ideal(c, ideal)
    if ideal.is_zero():
        assert rep.value is thresholds.PLUS_INFINITY
        return
    assert rep.argmin
    k = germ.canonical_vector(c)
    assert all(rep.value <= Fraction(k[j] + 1, coeffs[j]) for j in range(n) if coeffs[j])
    # scaling law, and the pair at the threshold is log canonical with mld 0
    doubled = thresholds.lct_ideal(c, thresholds.CompleteIdeal(tuple(2 * v for v in coeffs)))
    assert doubled.value == rep.value / 2
    pair = thresholds.PairSpec(ideal, rep.value)
    assert thresholds.mld_at_origin(c, pair) == 0


@settings(max_examples=60, deadline=None)
@given(clusters(max_extra_steps=7), st.data())
def test_unload_worklist_matches_dense_rescan(c, data):
    n = c.curve_count()
    vec = tuple(data.draw(st.integers(min_value=0, max_value=6)) for _ in range(n))
    assert valuation.unload(c, vec) == unload_dense(c, vec)


@settings(max_examples=60, deadline=None)
@given(clusters(max_extra_steps=12), st.randoms(use_true_random=False))
def test_signature_invariant_under_renumbering(c, rng):
    # up to 13 steps: every curve stays after its parents, so the
    # renumbered cluster is the same cluster
    assert cluster_signature(renumber(c, rng)) == cluster_signature(c)
