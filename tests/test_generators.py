import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.generators import (complete, complete_bipartite, coxeter, cycle,
                                generate_named, girth6_family, graph_square,
                                hammock_expand, hypercube, incidence_graph,
                                join_with_clique, kneser, split_construction,
                                subdivide, theta_graph)
from fdomlab.graphs import Graph, GraphError, iter_mask
from fdomlab.iso import is_isomorphic
from fdomlab.structure import hammocks


def test_cycle_c4():
    g = cycle(4)
    assert g.n == 4 and g.m == 4 and set(g.degrees()) == {2}


def test_coxeter_shape():
    g = coxeter()
    assert g.n == 28 and set(g.degrees()) == {3} and g.girth() == 7


def test_kneser_73():
    g = kneser(7, 3)
    assert g.n == 35 and set(g.degrees()) == {4}


def test_generate_named_dispatch():
    assert generate_named("cycle", (5,)).n == 5
    assert generate_named("petersen").n == 10
    assert is_isomorphic(generate_named("petersen"), kneser(5, 2))
    with pytest.raises(GraphError):
        generate_named("moebius", (3,))
    with pytest.raises(GraphError):
        generate_named("cycle", (2,))
    with pytest.raises(GraphError):
        generate_named("kneser", (3, 2))


def test_incidence_h42_is_subdivided_k4():
    assert is_isomorphic(incidence_graph(4, 2), subdivide(complete(4), 2))
    assert incidence_graph(4, 2).n == 10


def test_incidence_h31_is_perfect_matching():
    g = incidence_graph(3, 1)
    assert g.n == 6 and g.m == 3 and set(g.degrees()) == {1}


def test_incidence_degrees():
    for n, d in [(5, 2), (6, 3), (5, 4)]:
        g = incidence_graph(n, d)
        assert g.min_degree() == d
        assert g.degrees()[:n] == [math.comb(n - 1, d - 1)] * n
        assert g.degrees()[n:] == [d] * math.comb(n, d)
    with pytest.raises(GraphError):
        incidence_graph(3, 3)


def test_girth6_family_partition_sizes():
    g = girth6_family(2)
    assert g.n == 14  # 4 hubs + 2 + 8
    g = girth6_family(4)
    assert g.n == 2 * 4 + 4 * 3 + 2 * 16
    hub_degrees = g.degrees()[:8]
    assert hub_degrees == [7] * 8
    assert all(d == 2 for d in g.degrees()[8:])
    assert girth6_family(3).girth() == 6
    with pytest.raises(GraphError):
        girth6_family(1)


def test_subdivide():
    k3 = complete(3)
    assert subdivide(k3, 1) == k3
    assert is_isomorphic(subdivide(k3, 2), cycle(6))
    assert is_isomorphic(subdivide(cycle(4), 3), cycle(12))
    with pytest.raises(GraphError):
        subdivide(k3, 0)


@given(st.integers(3, 6), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_subdivision_vertex_count(n, k):
    g = cycle(n)
    assert subdivide(g, k).n == g.n + (k - 1) * g.m


def test_split_construction():
    s = split_construction(cycle(5))
    assert s.n == 10 and s.min_degree() == 2
    assert is_isomorphic(split_construction(complete(2)), complete(3))
    with pytest.raises(GraphError):
        split_construction(Graph(3, []))
    # split graph: original vertices form a clique, edge-vertices a stable set
    g = cycle(6)
    s = split_construction(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert s.has_edge(u, v)
    for i in range(g.n, s.n):
        for j in range(i + 1, s.n):
            assert not s.has_edge(i, j)


def test_graph_square():
    assert is_isomorphic(graph_square(cycle(5)), complete(5))
    assert set(graph_square(cycle(6)).degrees()) == {4}
    # brute-force distance oracle: squares join exactly distance <= 2 pairs
    g = subdivide(complete(4), 2)
    sq = graph_square(g)
    for u in range(g.n):
        ball = 0  # the vertices at distance <= 2 from u
        for w in iter_mask(g.closed_mask[u]):
            ball |= g.closed_mask[w]
        for v in range(u + 1, g.n):
            assert sq.has_edge(u, v) == bool(ball >> v & 1)
    # a triangle in the square of the subdivided K4
    tri = [(u, v, w) for u in range(sq.n) for v in range(u + 1, sq.n)
           for w in range(v + 1, sq.n)
           if sq.has_edge(u, v) and sq.has_edge(v, w) and sq.has_edge(u, w)]
    assert tri


def test_join_with_clique():
    j = join_with_clique(cycle(5), 2)
    assert j.n == 7 and j.m == 5 + 1 + 10
    for v in range(5):
        assert j.has_edge(v, 5) and j.has_edge(v, 6)


def test_hammock_expand_simple_only():
    g, classes = hammock_expand(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert is_isomorphic(g, subdivide(complete(4), 2))
    assert classes["A1"] == [] and classes["B1"] == []
    assert len(classes["A0"]) == 6 and classes["B0"] == [0, 1, 2, 3]


def test_hammock_expand_double_edge():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(0, 1)]
    g, classes = hammock_expand(4, pairs)
    assert classes["B1"] == [0, 1]
    assert len(classes["A1"]) == 2
    # degrees of original vertices preserved
    assert g.degrees()[:4] == [4, 4, 3, 3]
    hams = hammocks(g)
    assert len(hams) == 1 and set(hams[0].endpoints) == {0, 1}


def test_hammock_expand_figure_multigraph():
    # 5 hubs: a 5-cycle of simple edges, two doubled edges and two chords
    pairs = [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (3, 4), (4, 0), (0, 2), (0, 3)]
    g, classes = hammock_expand(5, pairs)
    assert g.degrees()[:5] == [5, 3, 3, 4, 3]
    assert classes["B1"] == [0, 1, 3, 4]
    assert classes["B0"] == [2]
    assert len(classes["A0"]) == 7 and len(classes["A1"]) == 4


def test_hammock_expand_rejects():
    with pytest.raises(GraphError, match="minimum degree >= 3"):
        hammock_expand(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError, match="multiplicity <= 2"):
        hammock_expand(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0), (2, 1), (0, 2)])
    with pytest.raises(GraphError, match="minimum degree >= 3"):
        hammock_expand(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError, match="loop at vertex 1"):
        hammock_expand(2, [(0, 1), (0, 1), (1, 1), (0, 1)])


def test_theta_and_hypercube():
    t = theta_graph((2, 2, 5))
    assert t.n == 8 and t.degrees()[0] == 3 == t.degrees()[1]
    q3 = hypercube(3)
    assert q3.n == 8 and set(q3.degrees()) == {3}
