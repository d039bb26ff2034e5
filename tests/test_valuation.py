import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from germval import germ, valuation
from germval.errors import NotAntinef
from germval.explorer import EnumBudget, enumerate_clusters

from conftest import (
    chain2,
    check_proximity_model,
    cold_valuation_ideal,
    oracle_lct_unloading,
    satellite_chain,
    single_blowup,
)


def products(c, d):
    m = germ.intersection_matrix(c)
    n = len(d)
    return [sum(m[j][i] * d[i] for i in range(n)) for j in range(n)]


def test_asymptotic_multiplicities_examples():
    assert valuation.asymptotic_multiplicities(single_blowup(), 0) == (Fraction(1),)
    assert valuation.asymptotic_multiplicities(satellite_chain(3), 2) == (
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
    )
    assert valuation.asymptotic_multiplicities(satellite_chain(4), 3) == (
        Fraction(2, 7),
        Fraction(3, 7),
        Fraction(6, 7),
        Fraction(1),
    )
    a2 = germ.build(germ.du_val("A2"), ())
    assert valuation.asymptotic_multiplicities(a2, 0) == (Fraction(1), Fraction(1, 2))


def test_asymptotic_multiplicities_solve_pattern():
    # numerically trivial against every other curve, negative against E
    for c in (satellite_chain(5), germ.build(germ.du_val("D4"), (germ.Free(1),))):
        for e in range(c.curve_count()):
            x = valuation.asymptotic_multiplicities(c, e)
            prods = products(c, [v for v in x])
            assert x[e] == 1
            assert all(v > 0 for v in x)
            assert all(p == 0 for j, p in enumerate(prods) if j != e)
            assert prods[e] < 0


def test_unload_examples():
    sb = single_blowup()
    for m in (1, 4, 9):
        assert valuation.unload(sb, (m,)) == (m,)
    d = valuation.unload(chain2(), (0, 2))
    assert d == (1, 2)
    assert products(chain2(), d) == [0, -1]
    assert valuation.unload(satellite_chain(3), (0, 0, 6)) == (2, 3, 6)
    a1 = germ.build(germ.du_val("A1"), ())
    assert valuation.unload(a1, (3,)) == (3,)


def test_unload_is_minimal_antinef_closure():
    # brute-force oracle: the closure is the least antinef point above z
    # within a small coefficient box
    for c in (chain2(), satellite_chain(3)):
        n = c.curve_count()
        for z in product(range(3), repeat=n):
            d = valuation.unload(c, z)
            assert all(a >= b for a, b in zip(d, z))
            assert all(p <= 0 for p in products(c, d))
            box = 8
            antinef_above = [
                w
                for w in product(range(box), repeat=n)
                if all(a >= b for a, b in zip(w, z))
                and all(p <= 0 for p in products(c, w))
            ]
            assert all(all(a <= b for a, b in zip(d, w)) for w in antinef_above)


def test_unload_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation.unload(chain2(), (1,))
    with pytest.raises(ValueError):
        valuation.unload(chain2(), (-1, 0))
    with pytest.raises(ValueError):
        valuation.unload(chain2(), (Fraction(1, 2), 0))


def test_valuation_ideal_examples():
    assert valuation.valuation_ideal(single_blowup(), 0, 5) == (5,)
    assert valuation.valuation_ideal(satellite_chain(4), 3, 7) == (2, 3, 6, 7)
    a1 = germ.build(germ.du_val("A1"), ())
    assert valuation.valuation_ideal(a1, 0, 3) == (3,)
    with pytest.raises(ValueError):
        valuation.valuation_ideal(a1, 0, 0)


def test_valuation_ideal_monotone_and_subadditive():
    for c in (chain2(), satellite_chain(4), germ.build(germ.du_val("A3"), (germ.Free(1),))):
        for e in range(c.curve_count()):
            ideals = {m: valuation.valuation_ideal(c, e, m) for m in range(1, 9)}
            for m in range(1, 8):
                assert all(a <= b for a, b in zip(ideals[m], ideals[m + 1]))
            for m in range(1, 5):
                for n_ in range(1, 9 - m):
                    assert all(
                        s <= a + b
                        for s, a, b in zip(ideals[m + n_], ideals[m], ideals[n_])
                    )


def test_fingen_degree_examples():
    assert valuation.fingen_degree(single_blowup(), 0) == 1
    assert valuation.fingen_degree(chain2(), 1) == 2
    for r in range(3, 9):
        assert valuation.fingen_degree(satellite_chain(r), r - 1) == r + 3
    a2 = germ.build(germ.du_val("A2"), ())
    assert valuation.fingen_degree(a2, 0) == 2


def test_oracle_equivalence_linear_algebra_vs_unloading():
    budget = EnumBudget(max_steps=4, bases=(germ.SMOOTH, germ.du_val("A2")))
    for c in enumerate_clusters(budget):
        for e in range(c.curve_count()):
            m0 = valuation.fingen_degree(c, e)
            dstar = valuation.asymptotic_multiplicities(c, e)
            assert cold_valuation_ideal(c, e, m0) == tuple(m0 * v for v in dstar)


def test_warm_started_valuation_ideal_matches_cold_unloading():
    smooth = EnumBudget(max_steps=5, bases=(germ.SMOOTH,))
    du_val = EnumBudget(
        max_steps=2,
        bases=tuple(germ.du_val(t) for t in ("A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8")),
    )
    checked = 0
    for budget in (smooth, du_val):
        for c in enumerate_clusters(budget):
            for e in range(c.curve_count()):
                for m in range(1, 2 * valuation.fingen_degree(c, e) + 2):
                    assert valuation.valuation_ideal(c, e, m) == cold_valuation_ideal(c, e, m)
                    checked += 1
    assert checked > 10_000


def test_valuation_ideal_at_large_degree_is_fast():
    # the cold unloading takes over a minute here
    c = satellite_chain(60)
    w = valuation.fingen_ideal(c, 59)
    assert w[59] == 63
    start = time.perf_counter()
    assert valuation.valuation_ideal(c, 59, 63 * 10**4) == tuple(10**4 * v for v in w)
    assert time.perf_counter() - start < 1


def test_proximity_model_against_dense_oracles():
    smooth = EnumBudget(max_steps=5, bases=(germ.SMOOTH,))
    du_val = EnumBudget(
        max_steps=2,
        bases=tuple(germ.du_val(t) for t in ("A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8")),
    )
    count = 0
    for budget in (smooth, du_val):
        for c in enumerate_clusters(budget):
            check_proximity_model(c, range(c.curve_count()))
            count += 1
    assert count > 100


@pytest.mark.parametrize("e", [0, 2000 // 3, 1999])
def test_long_a_chain_column_closed_form(e):
    # the inverse of the A_n Cartan matrix is min(a,b)·(n+1-max(a,b))/(n+1),
    # 1-indexed; no dense inverse is needed, which is cubic in n
    n, b = 2000, e + 1
    col = [min(a, b) * (n + 1 - max(a, b)) for a in range(1, n + 1)]
    g = gcd(*col)
    assert valuation.fingen_ideal(germ.build(germ.du_val(f"A{n}"), ()), e) == tuple(v // g for v in col)


def test_rees_valuations_examples():
    assert valuation.rees_valuations(single_blowup(), (1,)) == frozenset({0})
    assert valuation.rees_valuations(satellite_chain(3), (2, 3, 6)) == frozenset({2})
    assert valuation.rees_valuations(chain2(), (1, 1)) == frozenset({0})


def test_rees_valuations_errors():
    with pytest.raises(NotAntinef):
        valuation.rees_valuations(chain2(), (0, 1))  # meets curve 0 positively
    with pytest.raises(ValueError):
        valuation.rees_valuations(chain2(), (0, 0))


def test_rees_singleton_along_multiples():
    for c in (chain2(), satellite_chain(4)):
        for e in range(c.curve_count()):
            m0 = valuation.fingen_degree(c, e)
            for mult in range(1, 5):
                d = cold_valuation_ideal(c, e, mult * m0)
                assert valuation.rees_valuations(c, d) == frozenset({e})


def test_profile_invariants():
    for c in (satellite_chain(5), germ.build(germ.du_val("E6"), ())):
        for e in range(c.curve_count()):
            dstar = valuation.asymptotic_multiplicities(c, e)
            m0 = valuation.fingen_degree(c, e)
            assert dstar[e] == 1
            assert all(v > 0 for v in dstar)
            assert all((v * m0).denominator == 1 for v in dstar)


def test_model_stability_under_extensions():
    # the re-solved column on each one-blowup extension is the one the
    # model_stability certificate builds: w and its sum over the curves
    # through the new centre
    clusters = [chain2(), satellite_chain(3), germ.build(germ.du_val("A2"), ())]
    clusters += enumerate_clusters(EnumBudget(max_steps=3, bases=(germ.SMOOTH, germ.du_val("D4"))))
    for c in clusters:
        n = c.curve_count()
        for step in germ.legal_steps(c):
            c2 = germ.extend(c, step)
            for e in range(n):
                old = valuation.asymptotic_multiplicities(c, e)
                new = valuation.asymptotic_multiplicities(c2, e)
                assert new[:n] == old
                w = valuation.fingen_ideal(c, e)
                assert valuation.fingen_ideal(c2, e) == (*w, sum(w[r] for r in germ.step_refs(step)))


def test_oracle_lct_consistency_with_profiles():
    # the unloading-only threshold agrees with the linear-algebra ratios
    for c, e in ((satellite_chain(3), 2), (satellite_chain(4), 3), (chain2(), 1)):
        k = germ.canonical_vector(c)
        x = valuation.asymptotic_multiplicities(c, e)
        via_profile = min(Fraction(k[j] + 1) / x[j] for j in range(len(x)))
        assert oracle_lct_unloading(c, e) == via_profile
