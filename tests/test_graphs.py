import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.graphs import (Graph, GraphError, MultiGraph, mask_of,
                            mask_to_list, read_graph_text,
                            read_multigraph_text, write_graph_text)


def test_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.degrees() == [2, 2, 2, 2]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_no_loops_or_out_of_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        MultiGraph(3, [(1, 1)])


def test_parallel_edges_collapse_in_simple_graph():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_multigraph_multiplicity():
    h = MultiGraph(3, [(0, 1), (1, 0), (1, 2)])
    assert h.mult[(0, 1)] == 2
    assert h.max_multiplicity() == 2
    assert h.degree(1) == 3


def test_girth():
    assert Graph(4, [(0, 1), (1, 2), (2, 3)]).girth() is None
    assert Graph(3, [(0, 1), (1, 2), (2, 0)]).girth() == 3
    assert Graph(6, [(i, (i + 1) % 6) for i in range(6)]).girth() == 6


def test_text_roundtrip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert read_graph_text(write_graph_text(g)) == g


def test_text_format_errors():
    with pytest.raises(GraphError):
        read_graph_text("e 0 1\n")
    with pytest.raises(GraphError):
        read_graph_text("p 3 2\ne 0 1\n")
    with pytest.raises(GraphError):
        read_graph_text("p 3 1\nq 0 1\n")


def test_text_comments_and_multigraph():
    text = "# a triangle with one doubled edge\np 3 4\ne 0 1\ne 0 1\ne 1 2\ne 2 0\n"
    h = read_multigraph_text(text)
    assert h.mult[(0, 1)] == 2
    with pytest.raises(GraphError, match=r"repeated edge \(0,1\)"):
        read_graph_text(text)


def test_simple_graph_loader_rejects_a_repeated_edge_in_either_orientation():
    text = "p 3 2\ne 0 1\ne 1 0\n"
    with pytest.raises(GraphError, match=r"repeated edge \(1,0\)"):
        read_graph_text(text)
    assert read_multigraph_text(text).mult[(0, 1)] == 2
    assert read_graph_text("p 3 2\ne 0 1\ne 2 1\n").m == 2


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert mask_to_list(0b100101) == [0, 2, 5]


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric_after_construction(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=2 * n))
    g = Graph(n, edges)
    for u in range(n):
        for v in g.adj[u]:
            assert u in g.adj[v]
