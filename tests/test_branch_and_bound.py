"""Differential tests of the two exact weighted branch-and-bounds and the
certificate checks built on them, against brute force over all subsets in
Fraction arithmetic."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.chromatic import (_check_chi_f, fractional_chromatic,
                               max_weight_independent_set)
from fdomlab.domset import (is_dominating, min_weight_dominating_set,
                            verify_bottleneck)
from fdomlab.graphs import Graph, mask_to_list


@st.composite
def graphs(draw, max_n=10):
    """A seeded random graph on 1..max_n vertices."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 10**6))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.8]))
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def weight_vectors(n):
    """Nonnegative weights, all ints or all Fractions, zeros included."""
    ints = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    fracs = st.lists(st.fractions(min_value=0, max_value=4, max_denominator=7),
                     min_size=n, max_size=n)
    return st.one_of(ints, fracs)


def weight(ws, s):
    return sum((F(ws[v]) for v in mask_to_list(s)), F(0))


def brute_min_dominating(g, ws):
    return min(weight(ws, s) for s in range(1 << g.n) if is_dominating(g, s))


def brute_max_independent(g, ws):
    return max(weight(ws, s) for s in range(1 << g.n)
               if all(not (g.nbr_mask[v] & s) for v in mask_to_list(s)))


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_min_weight_dominating_set_matches_brute_force(g, data):
    ws = data.draw(weight_vectors(g.n))
    s, w = min_weight_dominating_set(g, ws)
    assert is_dominating(g, s)
    zeros = sum(1 << v for v in range(g.n) if ws[v] == 0)
    assert s & zeros == zeros
    assert w == weight(ws, s) == brute_min_dominating(g, ws)


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_max_weight_independent_set_matches_brute_force(g, data):
    ws = data.draw(weight_vectors(g.n))
    s, w = max_weight_independent_set(g, ws)
    assert all(not (g.nbr_mask[v] & s) for v in mask_to_list(s))
    assert w == weight(ws, s) == brute_max_independent(g, ws)


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_verify_bottleneck_matches_brute_force(g, data):
    ws = [F(x) for x in data.draw(weight_vectors(g.n))]
    cases = [ws]
    low = brute_min_dominating(g, ws)
    if low > 0:
        cases.append([x / low for x in ws])  # minimum exactly 1: valid
    for case in cases:
        low = brute_min_dominating(g, case)
        assert verify_bottleneck(g, case) == (low >= 1, sum(case, F(0)), low)


@given(graphs(max_n=8), st.data())
@settings(max_examples=60, deadline=None)
def test_check_chi_f_dual_matches_brute_force(g, data):
    # optimal duals moved by e from vertex b to vertex a: the total, hence
    # the value, is kept, so only the independent-set test decides
    res = fractional_chromatic(g)
    sets, xs = [s for s, _ in res.classes], [x for _, x in res.classes]
    ys = list(res.clique_weights)
    a = data.draw(st.integers(0, g.n - 1))
    b = data.draw(st.integers(0, g.n - 1))
    e = data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=6))
    ys[a] += e
    ys[b] -= e
    accept = brute_max_independent(g, ys) <= 1
    try:
        _check_chi_f(g, sets, res.value, xs, ys)
        accepted = True
    except RuntimeError:
        accepted = False
    assert accepted == accept
    if e == 0:
        assert accepted and brute_max_independent(g, ys) == 1
