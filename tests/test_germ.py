import pickle

import pytest
from hypothesis import given, settings, strategies as st

from germval import germ
from germval.errors import InvalidStep

from conftest import (
    chain2,
    cluster_doc_stepwise,
    is_negative_definite,
    meeting_pairs,
    outcome,
    prune_to_ancestors,
    satellite_chain,
    simulate_stepwise,
    single_blowup,
)


def test_build_single_blowup():
    c = single_blowup()
    assert c.curve_count() == 1
    assert germ.intersection_matrix(c) == ((-1,),)
    assert germ.canonical_vector(c) == (1,)


def test_build_satellite_chain_three():
    c = germ.build(germ.SMOOTH, (germ.Free(None), germ.Free(0), germ.Satellite((0, 1))))
    assert c.curve_count() == 3
    assert germ.intersection_matrix(c) == ((-3, 0, 1), (0, -2, 1), (1, 1, -1))
    assert germ.canonical_vector(c) == (1, 2, 4)


def test_build_rejects_satellite_on_equal_curves():
    with pytest.raises(InvalidStep):
        germ.build(germ.SMOOTH, (germ.Free(None), germ.Satellite((0, 0))))


ILLEGAL_STEPS = [
    (germ.SMOOTH, (germ.Free(None), germ.Free(5)), "step 1: curve 5 does not exist yet"),
    (germ.SMOOTH, (germ.Free(0),), "step 0: the first step over a smooth base blows up the base point"),
    (germ.SMOOTH, (germ.Free(None), germ.Free(None)), "step 1: blowup of the base point is only legal first"),
    (germ.SMOOTH, (), "step 0: a smooth base needs at least one blowup"),
    # centers lie over the singularity
    (germ.du_val("A2"), (germ.Free(None),), "step 0: blowup of the base point needs a smooth base"),
    (germ.du_val("A2"), (germ.Satellite((0, 2)),), "step 0: curve 2 does not exist yet"),
    # the satellite consumes the intersection point; it cannot be reused
    (
        germ.SMOOTH,
        (germ.Free(None), germ.Free(0), germ.Satellite((0, 1)), germ.Satellite((0, 1))),
        "step 3: curves 0 and 1 do not meet at this step",
    ),
    # two free curves on one curve never meet each other
    (
        germ.SMOOTH,
        (germ.Free(None), germ.Free(0), germ.Free(0), germ.Satellite((1, 2))),
        "step 3: curves 1 and 2 do not meet at this step",
    ),
]


@pytest.mark.parametrize(
    "base,steps,reason", ILLEGAL_STEPS, ids=[f"base{i}-steps{i}" for i in range(len(ILLEGAL_STEPS))]
)
def test_build_rejects_illegal_steps(base, steps, reason):
    with pytest.raises(InvalidStep, match=f"^{reason}$"):
        germ.build(base, steps)


def test_chain_matrix():
    assert germ.intersection_matrix(chain2()) == ((-2, 1), (1, -1))


def test_satellite_reopens_with_new_curve():
    # After the satellite of (0,1), curve 2 meets both 0 and 1.
    c = germ.build(
        germ.SMOOTH,
        (germ.Free(None), germ.Free(0), germ.Satellite((0, 1)), germ.Satellite((1, 2))),
    )
    m = germ.intersection_matrix(c)
    assert m[0][1] == 0 and m[0][2] == 1 and m[1][2] == 0 and m[1][3] == 1 and m[2][3] == 1


def test_canonical_vector_satellite_chain_five():
    assert germ.canonical_vector(satellite_chain(5)) == (1, 2, 4, 5, 6)


def test_du_val_layouts():
    a3 = germ.build(germ.du_val("A3"), ())
    assert germ.intersection_matrix(a3) == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))
    assert germ.canonical_vector(a3) == (0, 0, 0)

    d4 = germ.build(germ.du_val("D4"), ())
    m = germ.intersection_matrix(d4)
    degrees = [sum(1 for j in range(4) if j != i and m[i][j] == 1) for i in range(4)]
    assert sorted(degrees) == [1, 1, 1, 3] and degrees[1] == 3

    e7 = germ.build(germ.du_val("E7"), ())
    assert germ.canonical_vector(e7) == (0,) * 7
    m = germ.intersection_matrix(e7)
    degrees = [sum(1 for j in range(7) if j != i and m[i][j] == 1) for i in range(7)]
    assert degrees[2] == 3 and sorted(degrees) == [1, 1, 1, 2, 2, 2, 3]


def test_du_val_first_step_on_curve():
    c = germ.build(germ.du_val("A2"), (germ.Free(0),))
    m = germ.intersection_matrix(c)
    assert m[0][0] == -3 and m[0][2] == 1 and m[2][2] == -1
    assert germ.canonical_vector(c) == (0, 0, 1)


def test_du_val_satellite_on_minimal_resolution_pair():
    c = germ.build(germ.du_val("A2"), (germ.Satellite((0, 1)),))
    m = germ.intersection_matrix(c)
    assert m[0][1] == 0 and m[0][2] == 1 and m[1][2] == 1
    assert germ.canonical_vector(c) == (0, 0, 1)


def test_base_rank_stays_out_of_identity():
    # the rank is parsed once; equality, hashing and repr see only the label
    a3 = germ.du_val("a3")
    assert a3.rank() == 3 and germ.SMOOTH.rank() == 0
    assert a3 == germ.BaseGerm("A3") and hash(a3) == hash(("A3",))
    assert repr(a3) == "BaseGerm(dynkin='A3')"
    back = pickle.loads(pickle.dumps(germ.build(a3, (germ.Free(1),))))
    assert back.base == a3 and back.base.rank() == 3 and back.curve_count() == 4


def test_dynkin_label_validation():
    top = germ.MAX_DU_VAL_RANK
    assert germ.du_val(f"A{top}").rank() == germ.du_val(f"D{top}").rank() == top
    # a fullwidth 3 and a superscript 2 are Unicode digits, not ranks
    for bad in ("A0", "D3", "E5", "E9", "B3", "smooth", f"A{top + 1}", f"D{top + 1}", "A\uff13", "A\u00b2"):
        with pytest.raises(ValueError):
            germ.du_val(bad)


def test_invariants_on_enumerated_clusters():
    from germval.explorer import EnumBudget, enumerate_clusters

    budget = EnumBudget(max_steps=4, bases=(germ.SMOOTH, germ.du_val("A2"), germ.du_val("D4")))
    rank_of = {b: b.rank() for b in budget.bases}
    count = 0
    for c in enumerate_clusters(budget):
        count += 1
        m = germ.intersection_matrix(c)
        k = germ.canonical_vector(c)
        n = len(m)
        assert n == rank_of[c.base] + len(c.steps)
        assert is_negative_definite(m)
        assert all(m[i][j] in (0, 1) for i in range(n) for j in range(n) if i != j)
        for idx, parents in enumerate(germ.step_parents(c)):
            for p in parents:
                assert k[c.base.rank() + idx] > k[p]
    assert count > 40


def test_dual_graph_matches_chain_figure():
    c = satellite_chain(5)
    m = germ.intersection_matrix(c)
    assert meeting_pairs(m) == [(0, 2), (1, 2), (2, 3), (3, 4)]
    assert (m[0][0], germ.canonical_vector(c)[0]) == (-3, 1)
    assert (m[2][2], germ.canonical_vector(c)[2]) == (-2, 4)

    c1 = single_blowup()
    assert germ.intersection_matrix(c1) == ((-1,),) and germ.canonical_vector(c1) == (1,)

    ca3 = germ.build(germ.du_val("A3"), ())
    ma3 = germ.intersection_matrix(ca3)
    assert meeting_pairs(ma3) == [(0, 1), (1, 2)]
    assert [ma3[i][i] for i in range(3)] == [-2] * 3 and germ.canonical_vector(ca3) == (0,) * 3


def test_intersect_reads_the_dual_graph():
    c = satellite_chain(3)  # M = ((-3, 0, 1), (0, -2, 1), (1, 1, -1))
    assert germ.intersect(c, (2, 3, 6)) == [0, 0, -1]
    assert germ.intersect(c, (1, 0, 0)) == [-3, 0, 1]
    assert germ.intersect(germ.build(germ.du_val("D4"), ()), (1, 2, 1, 1)) == [0, -1, 0, 0]


def test_dot_output():
    assert germ.to_dot(single_blowup()) == (
        "graph cluster {\n"
        '  E0 [label="E0 | self=-1 | k=1"];\n'
        "}\n"
    )
    dot = germ.to_dot(satellite_chain(3))
    assert '  E1 [label="E1 | self=-2 | k=2"];' in dot
    assert "  E0 -- E2;" in dot and "  E1 -- E2;" in dot and "E0 -- E1" not in dot


def test_json_round_trip():
    for c in (
        single_blowup(),
        satellite_chain(4),
        germ.build(germ.du_val("E7"), (germ.Free(3), germ.Satellite((3, 7)))),
    ):
        doc = germ.cluster_to_json(c)
        assert germ.cluster_from_json(doc) == c


def test_json_schema_shape():
    doc = germ.cluster_to_json(satellite_chain(3))
    assert doc == {
        "base": "smooth",
        "steps": [
            {"kind": "free", "on": None},
            {"kind": "free", "on": 0},
            {"kind": "satellite", "on": [0, 1]},
        ],
    }
    assert germ.cluster_to_json(germ.build(germ.du_val("A1"), ()))["base"] == {"du_val": "A1"}


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"base": "plane", "steps": []},
        {"base": "smooth"},
        {"base": "smooth", "steps": [{"kind": "free", "on": "x"}]},
        {"base": "smooth", "steps": [{"kind": "satellite", "on": [0]}]},
        {"base": "smooth", "steps": [{"kind": "pinch", "on": 0}]},
        {"base": {"du_val": "Q5"}, "steps": []},
        {"base": "smooth", "steps": [{"kind": "free", "on": None}, {"kind": "free", "on": False}]},
        {"base": "smooth", "steps": [{"kind": "free", "on": None}, {"kind": "satellite", "on": [False, True]}]},
    ],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        germ.cluster_from_json(doc)
    assert outcome(lambda: germ.cluster_from_json(doc)) == outcome(lambda: cluster_doc_stepwise(doc))


def test_prune_keeps_full_ancestry_of_chain():
    c = satellite_chain(6)
    pruned, mapping = prune_to_ancestors(c, 5)
    assert pruned == c
    assert mapping == {i: i for i in range(6)}


def test_prune_drops_sibling():
    c = germ.build(germ.SMOOTH, (germ.Free(None), germ.Free(0), germ.Free(0)))
    pruned, mapping = prune_to_ancestors(c, 1)
    assert pruned == chain2()
    assert mapping == {0: 0, 1: 1}
    assert germ.ancestor_curves(c, 1) == frozenset({0, 1})


def test_prune_minimal_resolution_curve():
    c = germ.build(germ.du_val("A2"), (germ.Free(0), germ.Free(2)))
    pruned, mapping = prune_to_ancestors(c, 1)
    assert pruned == germ.build(germ.du_val("A2"), ())
    assert mapping == {0: 0, 1: 1}
    # pruning to the last curve keeps its whole chain
    pruned2, _ = prune_to_ancestors(c, 3)
    assert pruned2 == c


@pytest.mark.parametrize(
    "bases, max_steps",
    [((germ.SMOOTH,), 5), (tuple(map(germ.du_val, ("A3", "D4", "E6"))), 3)],
    ids=["smooth5", "A3-D4-E6x3"],
)
def test_extend_equals_build_of_the_longer_step_list(bases, max_steps):
    # every legal step of every cluster, and three kinds of illegal step,
    # applied to the cluster's dual graph or simulated from the base, give
    # the graph or the error of the step-by-step simulation that makes every
    # check for every kind of step
    from germval.explorer import EnumBudget, enumerate_clusters

    for c in enumerate_clusters(EnumBudget(max_steps=max_steps, bases=bases)):
        n = c.curve_count()
        apart = [(i, j) for i in range(n) for j in range(i + 1, n) if j not in c._nbrs[i]]
        illegal = [germ.Free(n), germ.Satellite((0, n))] + [germ.Satellite(pair) for pair in apart[:1]]
        if c.steps:
            illegal.append(germ.Free(None))
        for step in germ.legal_steps(c) + illegal:
            steps = c.steps + (step,)
            got = outcome(lambda: germ.extend(c, step))
            assert got == outcome(lambda: germ.build(c.base, steps)) == outcome(lambda: simulate_stepwise(c.base, steps))
            assert got[0] == ("InvalidStep" if step in illegal else "ok")
            assert step not in illegal or got[1] == len(c.steps)


STEP_BASES = [germ.SMOOTH, *map(germ.du_val, ("A1", "A4", "D5", "E8"))]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_hypothesis_step_lists_build_as_simulated(data):
    # a step list that follows the model most of the time, so that it grows
    # long, and otherwise takes any small curve ids, legal or not
    base = data.draw(st.sampled_from(STEP_BASES))
    nbrs = () if base.is_smooth else germ.build(base, ())._nbrs
    steps: list = []
    for _ in range(data.draw(st.integers(0, 12))):
        n = len(nbrs)
        meeting = [(i, j) for i in range(n) for j in nbrs[i] if i < j]
        kind = data.draw(st.sampled_from(("free", "satellite", "any free", "any satellite")))
        if kind == "free" and n:
            step = germ.Free(data.draw(st.integers(0, n - 1)))
        elif kind == "satellite" and meeting:
            step = germ.Satellite(data.draw(st.sampled_from(meeting)))
        elif kind == "any satellite":
            step = germ.Satellite((data.draw(st.integers(-2, n + 2)), data.draw(st.integers(-2, n + 2))))
        else:
            step = germ.Free(data.draw(st.none() | st.integers(-2, n + 2)))
        steps.append(step)
        want = outcome(lambda: simulate_stepwise(base, steps))
        assert outcome(lambda: germ.build(base, steps)) == want
        if want[0] != "ok":
            break
        nbrs = want[1][2]


CURVE_IDS = st.integers(-1, 5) | st.none() | st.booleans() | st.floats(0, 3) | st.text(max_size=2)
GOOD_STEP_DOCS = st.fixed_dictionaries({"kind": st.just("free"), "on": st.integers(0, 5)}) | st.fixed_dictionaries(
    {"kind": st.just("satellite"), "on": st.lists(st.integers(0, 5), min_size=2, max_size=2)}
)
BAD_STEP_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(("free", "satellite", "pinch", 1, None))},
    optional={"on": CURVE_IDS | st.lists(CURVE_IDS, max_size=3)},
) | st.fixed_dictionaries({}, optional={"on": st.integers(0, 3)}) | st.lists(st.integers(0, 3), max_size=2) | st.none()
# mostly well formed, so that a document reaches its later steps
STEP_DOCS = st.integers(0, 6).flatmap(lambda i: BAD_STEP_DOCS if i >= 5 else GOOD_STEP_DOCS)


@given(st.sampled_from(["smooth", {"du_val": "A2"}, {"du_val": "D4"}]), st.lists(STEP_DOCS, max_size=8))
@settings(max_examples=400, deadline=None)
def test_hypothesis_step_documents_load_as_read_stepwise(base, steps):
    # steps drawn from well-formed and malformed ones, after the base
    # point's blowup over a smooth base
    doc = {"base": base, "steps": [{"kind": "free", "on": None}] * (base == "smooth") + steps}
    assert outcome(lambda: germ.cluster_from_json(doc)) == outcome(lambda: cluster_doc_stepwise(doc))
