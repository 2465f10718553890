import random

import pytest

from fdomlab.enumerate_graphs import all_graphs
from fdomlab.generators import complete, cycle, subdivide, theta_graph
from fdomlab.graphs import Graph, GraphError, iter_mask
from fdomlab.structure import (cut_vertices, find_long_suspended_path,
                               hammocks, remove_suspended_path,
                               suspended_paths, twin_pairs)

TWO_C4 = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (3, 6)])


def test_cycle_report():
    g = cycle(5)
    assert g.is_connected() and cut_vertices(g) == [] and suspended_paths(g) == []


def test_two_c4_blocks():
    assert cut_vertices(TWO_C4) == [3]


def component_count(g):
    seen = count = 0
    for v in range(g.n):
        if not seen >> v & 1:
            count += 1
            reach, grown = 0, 1 << v
            while grown != reach:
                reach = grown
                for u in iter_mask(reach):
                    grown |= g.nbr_mask[u]
            seen |= reach
    return count


def test_cut_vertices_match_the_component_count_oracle():
    # v is a cut vertex iff deleting it leaves more components than g has
    rng = random.Random(28)
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.choice([0.05, 0.1, 0.2, 0.4])
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    assert any(component_count(g) > 1 for g in graphs)
    for g in graphs:
        k = component_count(g)
        expected = [v for v in range(g.n)
                    if component_count(g.remove_vertices([v])[0]) > k]
        assert cut_vertices(g) == expected


def test_hammock_detection():
    g = theta_graph((2, 3, 3))
    paths = suspended_paths(g)
    found = hammocks(g, paths)
    assert len(found) == 2
    for h in found:
        assert set(h.endpoints) == {0, 1}
        assert h.two_path.length == 2 and h.three_path.length == 3
        assert len(h.cycle_vertices()) == 5
    twins = twin_pairs(paths)
    assert len(twins) == 1
    a, b = twins[0]
    assert a.length == b.length == 3 and a.endpoints == b.endpoints


def test_adjacent_endpoints_are_not_a_hammock():
    # 2-path and 3-path between adjacent endpoints: no hammock
    g = Graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert hammocks(g) == []


def test_suspended_paths_partition_degree2_vertices(corpus7_mindeg2):
    for g in corpus7_mindeg2:
        if not g.is_connected() or cut_vertices(g) or g.max_degree() < 3:
            continue
        internal = [v for p in suspended_paths(g) for v in p.internal]
        assert sorted(internal) == sorted(v for v in range(g.n) if g.degree(v) == 2)


def test_cycle_with_single_hub_has_no_suspended_path():
    # a 3-cycle hanging on one hub of a theta graph: endpoints must differ
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 1)])
    for p in suspended_paths(g):
        assert p.vertices[0] != p.vertices[-1]


def test_find_long_suspended_path():
    c12 = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    p = find_long_suspended_path(c12, 5)
    assert p is not None and p.length == 6
    assert find_long_suspended_path(subdivide(complete(4), 2), 2) is None


def test_find_long_suspended_path_planar_girth11():
    # theta graph with three length-6 paths: planar, girth 12 >= 11
    g = theta_graph((6, 6, 6))
    assert g.girth() == 12
    p = find_long_suspended_path(g, 2)
    assert p is not None and p.length >= 3
    # brute-force oracle: longest suspended path
    assert p.length == max(q.length for q in suspended_paths(g))


def test_find_long_path_preconditions():
    with pytest.raises(GraphError):
        find_long_suspended_path(TWO_C4, 1)  # has a cut vertex
    with pytest.raises(GraphError):
        find_long_suspended_path(cycle(5), 1)  # no 3+-vertex


def test_remove_suspended_path():
    g = theta_graph((2, 2, 5))
    p = max(suspended_paths(g), key=lambda q: q.length)
    reduced, keep = remove_suspended_path(g, p)
    assert reduced.n == g.n - (p.length - 1)
    assert reduced.min_degree() >= 2
