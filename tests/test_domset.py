import hashlib
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from fdomlab import domset
from fdomlab.domset import (CapExceeded, domatic_number, dominating_colouring,
                            domination_number, enumerate_minimal_dominating_sets,
                            is_dominating, min_weight_dominating_set)
from fdomlab.enumerate_graphs import all_graphs
from fdomlab.fdom import DualCertificate, pq_colouring_exists, verify_dual
from fdomlab.generators import (complete, complete_bipartite, coxeter, cycle,
                                kneser, theta_graph)
from fdomlab.graphs import Graph, mask_of, mask_to_list


def brute_minimal_dominating_sets(g: Graph) -> list[int]:
    doms = [s for s in range(1, 1 << g.n) if is_dominating(g, s)]
    return sorted(s for s in doms
                  if all(not is_dominating(g, s & ~(1 << v)) for v in mask_to_list(s)))


def test_is_dominating_examples():
    c5 = cycle(5)
    assert is_dominating(c5, mask_of([0, 2]))
    assert not is_dominating(c5, mask_of([0, 1]))
    assert is_dominating(c5, (1 << 5) - 1)


def test_minimal_sets_c5_frozen_oracle():
    # brute force over all 2^5 subsets gives exactly the five distance-2 pairs
    c5 = cycle(5)
    expected = sorted(mask_of(p) for p in [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
    assert brute_minimal_dominating_sets(c5) == expected
    assert sorted(enumerate_minimal_dominating_sets(c5)) == expected


def test_minimal_sets_k3_and_k22():
    assert sorted(enumerate_minimal_dominating_sets(complete(3))) == [1, 2, 4]
    k22 = complete_bipartite(2, 2)
    assert sorted(enumerate_minimal_dominating_sets(k22)) == \
        brute_minimal_dominating_sets(k22)


def test_minimal_sets_match_brute_force_on_corpus(corpus7):
    rng = random.Random(0)
    sample = rng.sample(corpus7, 60)
    for g in sample:
        assert sorted(enumerate_minimal_dominating_sets(g)) == \
            brute_minimal_dominating_sets(g)


def test_minimality_of_emitted_sets(corpus7):
    rng = random.Random(1)
    for g in rng.sample(corpus7, 40):
        for s in enumerate_minimal_dominating_sets(g):
            assert is_dominating(g, s)
            for v in mask_to_list(s):
                assert not is_dominating(g, s & ~(1 << v))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_minimal_dominating_sets(cycle(21), cap=20))


def test_domination_number_examples():
    assert domination_number(cycle(6))[0] == 2
    assert domination_number(coxeter())[0] == 7
    assert domination_number(kneser(7, 3))[0] == 7


def test_domination_number_matches_enumeration(corpus7):
    rng = random.Random(2)
    for g in rng.sample(corpus7, 60):
        gamma, witness = domination_number(g)
        assert is_dominating(g, witness) and witness.bit_count() == gamma
        assert gamma == min(s.bit_count() for s in enumerate_minimal_dominating_sets(g))


def test_domination_number_keeps_its_search_order():
    # the witnesses depend on the order the search visits its nodes; a
    # digest of (gamma, witness) on every graph on 1..7 vertices pins it
    res = [domination_number(g) for n in range(1, 8) for g in all_graphs(n)]
    assert len(res) == 1252
    assert hashlib.sha256(repr(res).encode()).hexdigest()[:16] == "c0ee5c660b8df982"


def test_min_weight_examples():
    c5 = cycle(5)
    s, w = min_weight_dominating_set(c5, [F(1, 2)] * 5)
    assert w == 1 and is_dominating(c5, s)
    s, w = min_weight_dominating_set(c5, [F(0)] * 5)
    assert w == 0
    with pytest.raises(ValueError):
        min_weight_dominating_set(c5, [F(-1)] * 5)


def test_min_weight_unit_weights_equals_gamma(corpus7):
    rng = random.Random(3)
    for g in rng.sample(corpus7, 40):
        _, w = min_weight_dominating_set(g, [F(1)] * g.n)
        assert w == domination_number(g)[0]


def test_min_weight_on_scaled_int_weights(corpus7):
    # pricing passes integer dual numerators: the same set, k times the weight
    rng = random.Random(4)
    for g in rng.sample(corpus7, 40):
        w = [F(rng.randint(0, 6), rng.choice((1, 2, 3, 4))) for _ in range(g.n)]
        k = 12 * rng.randint(1, 5)
        s, wf = min_weight_dominating_set(g, w)
        si, wi = min_weight_dominating_set(g, [int(k * x) for x in w])
        assert isinstance(wi, int)
        assert si == s and wi == k * wf


def test_hammock_weights_bottleneck():
    g = theta_graph((2, 3, 3))  # contains a hammock on {0,1} plus 3 cycle vertices
    from fdomlab.structure import hammocks
    h = hammocks(g)[0]
    w = [F(0)] * g.n
    for v in h.cycle_vertices():
        w[v] = F(1, 2)
    _, minw = min_weight_dominating_set(g, w)
    assert minw >= 1


def test_the_empty_graph_is_dominated_by_the_empty_set():
    assert list(enumerate_minimal_dominating_sets(Graph(0, []))) == [0]
    assert domination_number(Graph(0, [])) == (0, 0)


def test_domatic_examples():
    assert domatic_number(cycle(4))[0] == 2
    assert domatic_number(complete(4))[0] == 4
    assert domatic_number(coxeter())[0] == 3


def test_domatic_at_most_min_degree_plus_one(corpus7):
    rng = random.Random(4)
    for g in rng.sample(corpus7, 30):
        k, parts = domatic_number(g)
        assert k <= g.min_degree() + 1
        assert len(parts) == k
        covered = 0
        for p in parts:
            assert is_dominating(g, p)
            assert covered & p == 0
            covered |= p
        assert covered == (1 << g.n) - 1


def test_verify_bottleneck():
    c5 = cycle(5)
    cert = DualCertificate([F(1, 2)] * 5)
    assert verify_dual(c5, cert) == (True, "ok") and cert.total == F(5, 2)
    assert verify_dual(c5, DualCertificate([F(1, 3)] * 5)) == (
        False, "a dominating set has weight 2/3 < 1")


def test_neighbourhood_bottleneck_always_valid(corpus7):
    # weight 1 on a minimum-degree closed neighbourhood: valid, total delta+1
    rng = random.Random(5)
    for g in rng.sample(corpus7, 30):
        v = min(range(g.n), key=g.degree)
        w = [F(0)] * g.n
        for u in mask_to_list(g.closed_mask[v]):
            w[u] = F(1)
        cert = DualCertificate(w)
        assert verify_dual(g, cert) == (True, "ok") and cert.total == g.degree(v) + 1


def spans_palette(g: Graph, colour, p: int) -> bool:
    """Every closed neighbourhood sees all p colours."""
    for v in range(g.n):
        seen = 0
        for u in mask_to_list(g.closed_mask[v]):
            seen |= colour[u]
        if seen != (1 << p) - 1:
            return False
    return True


@pytest.mark.parametrize("p, q, n_max", [(1, 1, 5), (2, 1, 5), (3, 1, 5), (4, 1, 5),
                                         (3, 2, 4), (5, 2, 4)])
def test_dominating_colouring_matches_brute_force(p, q, n_max):
    masks = [mask_of(c) for c in combinations(range(p), q)]
    assert dominating_colouring(Graph(0, []), p, q) == []  # vacuously dominating
    for n in range(1, n_max + 1):
        for g in all_graphs(n):
            colour = dominating_colouring(g, p, q)
            exists = any(spans_palette(g, c, p) for c in product(masks, repeat=n))
            assert (colour is not None) == exists, (g.edges(), p, q)
            if colour is not None:
                assert all(c in masks for c in colour) and spans_palette(g, colour, p)


def test_counting_refutes_a_colouring_before_any_search():
    # each of the 3 classes would need ceil(5/4) = 2 of K2,3's 5 vertices
    assert domset.domatic_partition(complete_bipartite(2, 3), 3, cap=0) is None


def test_colouring_search_stops_at_its_node_cap(monkeypatch):
    monkeypatch.setattr(domset, "COLOURING_NODE_CAP", 100)
    with pytest.raises(CapExceeded):
        pq_colouring_exists(cycle(11), 11, 4)
    with pytest.raises(CapExceeded):
        domatic_number(coxeter())
