import random

import pytest

from fdomlab.enumerate_graphs import connected_graphs
from fdomlab.graphs import Graph


@pytest.fixture(scope="session")
def corpus7():
    """All connected graphs on 2..7 vertices, one per isomorphism class."""
    out = []
    for n in range(2, 8):
        out.extend(connected_graphs(n))
    return out


@pytest.fixture(scope="session")
def corpus7_mindeg2():
    out = []
    for n in range(3, 8):
        out.extend(connected_graphs(n, 2))
    return out


def random_connected_graph(rng: random.Random, n: int, extra_edges: int,
                           min_degree: int = 1) -> Graph:
    """A random connected graph: spanning tree plus extra random edges,
    then extra edges until the minimum degree is met."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(candidates)
    it = iter(candidates)
    for _ in range(extra_edges):
        for u, v in it:
            if (u, v) not in edges:
                edges.add((u, v))
                break
    g = Graph(n, edges)
    while g.min_degree() < min_degree:
        v = min(range(n), key=g.degree)
        u = rng.choice([u for u in range(n) if u != v and not g.has_edge(u, v)])
        edges.add((min(u, v), max(u, v)))
        g = Graph(n, edges)
    return g


def random_cubic(n: int, seed: int) -> Graph:
    """A connected simple cubic graph on n vertices from the pairing model,
    retrying until the pairing is simple and connected (the recipe of
    perfbench/sweep.py)."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            g = Graph(n, edges)
            if g.is_connected():
                return g
