import random
from itertools import permutations

import pytest

from fdomlab import enumerate_graphs
from fdomlab.badfamily import bad_family_check, bad_family_members
from fdomlab.enumerate_graphs import all_graphs, connected_graphs
from fdomlab.graphs import Graph
from fdomlab.iso import (automorphism_generators, automorphisms, canonical_form,
                         group_closure, vertex_signature)

ALL_GRAPHS = (1, 2, 4, 11, 34, 156, 1044, 12346)      # OEIS A000088, n = 1..8
MIN_DEGREE_2 = (1, 3, 11, 61, 507, 7442)              # connected, n = 3..8


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    # every permutation that maps the edge set onto itself: an oracle that
    # shares nothing with the mapping search
    edges = set(g.edges())
    return {p for p in permutations(range(g.n))
            if {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} == edges}


def test_all_graphs_counts():
    assert tuple(len(all_graphs(n)) for n in range(1, 9)) == ALL_GRAPHS


def test_connected_min_degree_2_counts():
    assert tuple(len(connected_graphs(n, 2)) for n in range(3, 9)) == MIN_DEGREE_2


def test_no_two_graphs_isomorphic_by_canonical_form():
    # canonical_form is an independent check: the enumeration dedupes by
    # explicit isomorphism tests, never by canonical forms
    for n in range(1, 8):
        graphs = all_graphs(n)
        assert len({canonical_form(g) for g in graphs}) == len(graphs)
        assert all(g.n == n for g in graphs)


def test_cache_clear_regenerates_the_same_classes():
    before = {n: {canonical_form(g) for g in all_graphs(n)} for n in range(1, 7)}
    enumerate_graphs.all_graphs.cache_clear()
    assert {n: {canonical_form(g) for g in all_graphs(n)} for n in range(1, 7)} == before


def test_bad_family_check_agrees_with_canonical_forms():
    members = {canonical_form(g): idx for idx, g in bad_family_members().items()}
    hits = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            assert bad_family_check(g) == members.get(canonical_form(g))
            hits += bad_family_check(g) is not None
    assert hits == 8
    rng = random.Random(11)
    for idx, g in bad_family_members().items():
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            assert members[canonical_form(h)] == idx
            assert bad_family_check(h) == idx


def test_automorphism_generators_generate_the_full_group():
    for n in range(1, 8):
        for g in all_graphs(n):
            gens = automorphism_generators(g)
            auts = automorphisms(g)
            assert set(gens) <= set(auts)
            assert len(group_closure(n, gens)) == len(auts)
            if n <= 6:
                assert set(group_closure(n, gens)) == set(auts) == brute_automorphisms(g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_subset_orbit_representatives(n):
    # one smallest mask per orbit of the full automorphism group
    for g in all_graphs(n):
        auts = automorphisms(g)
        assert set(auts) == brute_automorphisms(g)
        want = sorted({min(sum(1 << p[v] for v in range(n) if s >> v & 1) for p in auts)
                       for s in range(1 << n)})
        assert list(enumerate_graphs._subset_orbit_representatives(g)) == want


def test_vertex_signature_is_invariant_under_relabelling():
    rng = random.Random(3)
    for g in rng.sample(all_graphs(7), 60):
        perm = list(range(g.n))
        rng.shuffle(perm)
        sig = vertex_signature(g.nbr_mask)
        sig_h = vertex_signature(permuted(g, perm).nbr_mask)
        assert all(sig[v] == sig_h[perm[v]] for v in range(g.n))


def test_signature_ties_are_kept_apart_by_isomorphism_tests():
    # 1-WL cannot split C6 from two triangles: equal signatures, so the
    # enumeration must keep both through an explicit isomorphism test
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_k3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert sorted(vertex_signature(c6.nbr_mask)) == sorted(vertex_signature(two_k3.nbr_mask))
    forms = {canonical_form(g) for g in all_graphs(6) if g.m == 6
             and all(d == 2 for d in g.degrees())}
    assert forms == {canonical_form(c6), canonical_form(two_k3)}
