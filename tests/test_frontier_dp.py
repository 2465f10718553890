"""Differential tests of the two hitting-set engines behind
min_weight_hitting_set: the frontier DP and the branch-and-bound, called
through their private functions, against each other and brute force; the
race that picks one per family; and the boundary checks of the entry
point."""

import random
from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab import domset
from fdomlab.enumerate_graphs import all_graphs
from fdomlab.generators import coxeter, cycle, girth6_family, kneser
from fdomlab.graphs import mask_to_list


def transpose(n, sets):
    return [sum(1 << j for j, s in enumerate(sets) if s >> u & 1) for u in range(n)]


def engines(sets, hits, ws):
    """(branch-and-bound answer, DP answer) on one family."""
    fam = domset._Family(tuple(sets), tuple(hits))
    free = sum(1 << u for u, w in enumerate(ws) if w == 0)
    bb = domset._branch_and_bound(fam, ws, domset._doms(fam.sets, ws), free, inf)
    return bb, domset._frontier_dp(fam, ws, free)


def weight(ws, s):
    return sum((F(ws[u]) for u in mask_to_list(s)), F(0))


@st.composite
def families(draw, max_n=12):
    """Nonempty masks over n <= max_n elements, with weights that are all
    ints or all Fractions, zeros included."""
    n = draw(st.integers(1, max_n))
    masks = st.one_of(st.integers(1, (1 << n) - 1),
                      st.integers(0, n - 1).map(lambda u: 1 << u))
    sets = draw(st.lists(masks, max_size=12))
    ws = draw(st.one_of(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.fractions(min_value=0, max_value=3, max_denominator=5),
                 min_size=n, max_size=n)))
    return n, sets, ws


@given(families())
@settings(max_examples=200, deadline=None)
def test_engines_match_brute_force(family):
    n, sets, ws = family
    bb, dp = engines(sets, transpose(n, sets), ws)
    assert bb == dp
    zeros = sum(1 << u for u in range(n) if ws[u] == 0)
    ok = [t for t in range(1 << n) if t & zeros == zeros and all(t & m for m in sets)]
    low = min(weight(ws, t) for t in ok)
    assert dp == (min(t for t in ok if weight(ws, t) == low), low)


def test_engines_agree_on_every_graph_up_to_7_vertices():
    rng = random.Random(16)
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    assert len(graphs) == 1252
    for g in graphs:
        ws = [rng.choice([0, 1, 2, 3, 5, 8]) for _ in range(g.n)]
        bb, dp = engines(g.closed_mask, g.closed_mask, ws)
        assert bb == dp and type(bb[1]) is type(dp[1]), (g.edges(), ws)


def test_race_moves_low_width_families_to_the_dp_only():
    # twenty pricing calls per graph under random weights in 1..10
    domset._family.cache_clear()
    for g, on_dp in [(girth6_family(3), True), (cycle(48), True), (coxeter(), False)]:
        rng = random.Random(0)
        for _ in range(20):
            domset.min_weight_dominating_set(g, [rng.randint(1, 10) for _ in range(g.n)])
        fam = domset._family(g.closed_mask, g.closed_mask)
        assert (fam.budget is None) == on_dp
    # every Coxeter call fits in 1024 nodes, so its largest probe cap was
    # 16 * 512, far below its 56299 states: no full layer was ever built
    assert domset._family(coxeter().closed_mask, coxeter().closed_mask).budget <= 1024


def test_frontier_order_keeps_the_dp_small():
    # the summed state counts the greedy order gives; a worse order still
    # answers exactly, but slower, and may move these families off the DP
    for g, states in [(girth6_family(3), 1377), (girth6_family(5), 35004),
                      (cycle(48), 407)]:
        fam = domset._Family(g.closed_mask, g.closed_mask)
        assert domset._frontier_dp(fam, [1] * g.n, 0, states) is not None
        assert domset._frontier_dp(fam, [1] * g.n, 0, states - 1) is None


# (graph, seeds): per seed, the nodes the search visits and its answer,
# under the weights random.Random(seed).choice([0, 1, 2, 3, 5, 8]) per
# element; the largest searches of seeds 0..29
BB_RUNS = [
    (cycle(20), {9: (135, 152725, 14), 28: (268, 149833, 12)}),
    (cycle(31), {14: (727, 306858277, 25), 28: (1597, 724116629, 16)}),
    (coxeter(), {12: (333, 235218690, 14), 18: (509, 88884306, 11)}),
    (girth6_family(3), {27: (459, 377835762, 16), 14: (558, 23603253, 22)}),
    (kneser(7, 2), {28: (65, 133, 2), 17: (70, 7172, 4)}),
]


def test_branch_and_bound_visits_the_same_nodes():
    # the node count and the tie-break pin the search order: a budget of
    # `nodes` finishes with the answer, one less stops with None
    for g, runs in BB_RUNS:
        fam = domset._Family(g.closed_mask, g.closed_mask)
        for seed, (nodes, mask, w) in runs.items():
            rng = random.Random(seed)
            ws = [rng.choice([0, 1, 2, 3, 5, 8]) for _ in range(g.n)]
            free = sum(1 << u for u, x in enumerate(ws) if x == 0)
            doms = domset._doms(fam.sets, ws)
            assert domset._branch_and_bound(fam, ws, doms, free, nodes) == (mask, w)
            assert domset._branch_and_bound(fam, ws, doms, free, nodes - 1) is None


def test_deep_branch_and_bound_needs_no_recursion(monkeypatch):
    # 1000 disjoint pairs, kept off the DP: an optimal leaf lies 1000
    # choices deep, past the interpreter's default recursion limit
    monkeypatch.setattr(domset, "DP_MAX_STATES", 0)
    k = 1000
    sets = [0b11 << 2 * i for i in range(k)]
    hits = [1 << u // 2 for u in range(2 * k)]
    s, w = domset.min_weight_hitting_set(sets, hits, [1, 2] * k)
    assert (s, w) == (int("01" * k, 2), k)
    assert domset._family(tuple(sets), tuple(hits)).budget is not None


def test_hitting_set_boundary_checks():
    with pytest.raises(ValueError, match="2 weights for 3 elements"):
        domset.min_weight_hitting_set([0b1], [1, 0, 0], [1, 1])
    with pytest.raises(ValueError, match="outside 0..1"):
        domset.min_weight_hitting_set([0b100], [1, 1], [1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        domset.min_weight_hitting_set([0b11], [1, 1], [-1, 5])
