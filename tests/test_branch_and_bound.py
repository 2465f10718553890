"""Differential tests of the exact weighted branch-and-bound
(min_weight_hitting_set, and the dominating-set and independent-set searches
built on it) and the certificate checks of both LPs, against brute force
over all subsets in Fraction arithmetic."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.chromatic import fractional_chromatic
from fdomlab.domset import (is_dominating, max_weight_independent_set,
                            min_weight_dominating_set, min_weight_hitting_set)
from fdomlab.fdom import DualCertificate, PrimalCertificate, verify_dual, verify_primal
from fdomlab.graphs import Graph, mask_to_list
from fdomlab.iso import automorphism_generators


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
    # the value, is kept, so only the sign and the independent-set test decide
    res = fractional_chromatic(g)
    ys = list(res.dual.weights)
    a = data.draw(st.integers(0, g.n - 1))
    b = data.draw(st.integers(0, g.n - 1))
    e = data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=6))
    ys[a] += e
    ys[b] -= e
    accept = min(ys) >= 0 and brute_max_independent(g, ys) <= 1
    ok, _ = verify_dual(g, DualCertificate(ys, res.value), -1)
    assert ok == accept
    if e == 0:
        assert ok and brute_max_independent(g, ys) == 1


def brute_covering_primal_ok(g, columns, objective, generators):
    """A covering primal's validity from first principles: each generator
    a permutation keeping every edge, each column an in-range independent
    set of weight >= 0, each orbit O (its closure under the generators)
    covered >= |O| times, and the objective the weights' total."""
    edges = {frozenset(e) for e in g.edges()}
    for p in generators:
        if sorted(p) != list(range(g.n)) or any(
                frozenset((p[u], p[v])) not in edges for u, v in edges):
            return False
    for s, x in columns:
        if s >> g.n or x < 0 or any(frozenset((u, v)) in edges for u in mask_to_list(s)
                                    for v in mask_to_list(s)):
            return False
    for v in range(g.n):
        orbit, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for w in (p[u] for p in generators):
                if w not in orbit:
                    orbit.add(w)
                    todo.append(w)
        cover = sum((x * sum(1 for u in orbit if s >> u & 1) for s, x in columns), F(0))
        if cover < len(orbit):
            return False
    return sum((x for _, x in columns), F(0)) == objective


@given(graphs(max_n=6), st.data())
@settings(max_examples=150, deadline=None)
def test_verify_covering_primal_matches_brute_force(g, data):
    # a valid covering primal, per vertex or under Aut(G), mutated at random:
    # verify_primal never raises and accepts exactly what the brute force does
    res = fractional_chromatic(g)
    columns = list(res.primal.columns)
    gens = data.draw(st.sampled_from([[], automorphism_generators(g)]))
    gens = [list(p) for p in gens]
    objective = res.value
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(
            ["weight", "toggle", "drop", "copy", "objective", "restate", "generator"]))
        if kind == "weight" and columns:
            j = data.draw(st.integers(0, len(columns) - 1))
            columns[j] = (columns[j][0], data.draw(
                st.fractions(min_value=-2, max_value=2, max_denominator=4)))
        elif kind == "toggle" and columns:
            j = data.draw(st.integers(0, len(columns) - 1))
            columns[j] = (columns[j][0] ^ 1 << data.draw(st.integers(0, g.n)), columns[j][1])
        elif kind == "drop" and columns:
            columns.pop(data.draw(st.integers(0, len(columns) - 1)))
        elif kind == "copy" and columns:
            columns.append(data.draw(st.sampled_from(columns)))
        elif kind == "objective":
            objective += data.draw(st.sampled_from([F(-1), F(1, 2), F(1)]))
        elif kind == "restate":
            objective = sum((x for _, x in columns), F(0))
        elif kind == "generator":
            p = data.draw(st.permutations(range(g.n)))
            if data.draw(st.booleans()):
                p[0] = p[-1]  # no longer a permutation unless n = 1
            gens.append(p)
    cert = PrimalCertificate(columns, objective, [tuple(p) for p in gens])
    ok, _ = verify_primal(g, cert, -1)
    assert ok == brute_covering_primal_ok(g, columns, objective, gens)


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
