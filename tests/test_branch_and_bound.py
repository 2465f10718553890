"""Differential tests of the exact weighted branch-and-bound
(min_weight_hitting_set, and the dominating-set and independent-set searches
built on it) and the certificate checks built on them, against brute force
over all subsets in Fraction arithmetic."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.chromatic import (_check_chi_f, fractional_chromatic,
                               max_weight_independent_set)
from fdomlab.domset import (is_dominating, min_weight_dominating_set,
                            min_weight_hitting_set)
from fdomlab.fdom import DualCertificate, verify_dual
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
        ok, why = verify_dual(g, DualCertificate(case))
        assert (ok, why) == ((True, "ok") if low >= 1
                             else (False, f"a dominating set has weight {low} < 1"))


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


@st.composite
def families(draw, max_n=9):
    """Nonempty masks over n <= max_n elements: singletons, repeated sets,
    elements in no set and the empty family all occur."""
    n = draw(st.integers(1, max_n))
    masks = st.one_of(st.integers(1, (1 << n) - 1),
                      st.integers(0, n - 1).map(lambda u: 1 << u))
    sets = draw(st.lists(masks, max_size=8))
    if sets and draw(st.booleans()):
        sets.append(draw(st.sampled_from(sets)))
    return n, sets


def transpose(n, sets):
    return [sum(1 << j for j, s in enumerate(sets) if s >> u & 1) for u in range(n)]


@given(families(), st.data())
@settings(max_examples=150, deadline=None)
def test_min_weight_hitting_set_matches_brute_force(family, data):
    n, sets = family
    ws = data.draw(weight_vectors(n))
    s, w = min_weight_hitting_set(sets, transpose(n, sets), ws)
    zeros = sum(1 << u for u in range(n) if ws[u] == 0)
    hitting = [t for t in range(1 << n) if all(t & m for m in sets)]
    low = min(weight(ws, t) for t in hitting)
    assert all(s & m for m in sets) and s & zeros == zeros
    assert w == weight(ws, s) == low
    assert s == min(t for t in hitting if t & zeros == zeros and weight(ws, t) == low)


def test_min_weight_hitting_set_branches_on_sets_larger_than_the_family():
    # set 0 has more elements than there are sets
    sets = [0b11110, 0b1]
    ws = [3, 2, 1, 1, 1, F(4, 3), F(3, 4)]
    assert min_weight_hitting_set(sets, transpose(7, sets), ws) == (0b101, 4)
    with pytest.raises(ValueError, match="empty set"):
        min_weight_hitting_set([0b1, 0], [0b1], [1])


def test_max_weight_independent_set_edge_cases():
    # negative weights are never taken
    assert max_weight_independent_set(Graph(3, [(0, 1), (1, 2)]), [-1, 2, -3]) == (0b010, 2)
    s, w = max_weight_independent_set(Graph(3, [(0, 1)]), [F(-1, 2), F(1, 3), F(-1, 5)])
    assert (s, w) == (0b010, F(1, 3))
    assert max_weight_independent_set(Graph(4, []), [1, 0, 2, -1]) == (0b0101, 3)
    assert max_weight_independent_set(Graph(0, []), []) == (0, 0)
