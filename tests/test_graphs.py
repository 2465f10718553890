import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from fdomlab.enumerate_graphs import all_graphs
from fdomlab.generators import coxeter, girth6_family, theta_graph
from fdomlab.graphs import (Graph, GraphError, mask_of,
                            mask_to_list, read_graph_text, write_graph_text)


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


def test_parallel_edges_collapse_in_simple_graph():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def reference_girth(g):
    """Shortest cycle by a vertex-by-vertex BFS from every vertex."""
    nbrs = [[w for w in range(g.n) if g.has_edge(u, w)] for u in range(g.n)]
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                continue
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def test_girth():
    assert Graph(4, [(0, 1), (1, 2), (2, 3)]).girth() is None
    assert Graph(3, [(0, 1), (1, 2), (2, 0)]).girth() == 3
    assert Graph(6, [(i, (i + 1) % 6) for i in range(6)]).girth() == 6
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    rng = random.Random(18)
    graphs += [random_connected_graph(rng, rng.randint(8, 40), rng.randint(0, 6))
               for _ in range(200)]
    named = [theta_graph((31, 31, 31)), coxeter(), girth6_family(3)]
    assert [g.girth() for g in named] == [62, 7, 6]
    for g in graphs + named:
        assert g.girth() == reference_girth(g), g.edges()


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
    assert read_graph_text(text.replace("p 3 4\ne 0 1\n", "p 3 3\n")).m == 3
    with pytest.raises(GraphError, match=r"repeated edge \(0,1\)"):
        read_graph_text(text)


def test_simple_graph_loader_rejects_a_repeated_edge_in_either_orientation():
    text = "p 3 2\ne 0 1\ne 1 0\n"
    with pytest.raises(GraphError, match=r"repeated edge \(1,0\)"):
        read_graph_text(text)
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
    want = sorted({(min(u, v), max(u, v)) for u, v in edges})
    assert list(g.edges()) == want
    assert g.m == len(g.edges())
    h = Graph(n, reversed(edges))
    assert h == g and hash(h) == hash(g)
    for u in range(n):
        for v in range(n):
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in want)
