"""Graph generators: named catalog, incidence graphs H(n,d), the girth-6
family, subdivisions, the split construction S(G), hammock expansion of a
multigraph, squares and joins.

Vertex labelling conventions (documented so figures can be cross-checked):
  * complete_bipartite(m, n): part A = 0..m-1, part B = m..m+n-1.
  * incidence_graph(n, d): A = 0..n-1 first, then B in lexicographic
    d-subset order.
  * girth6_family(n): W0 = 0..n-1, W1 = n..2n-1, then U (one vertex per
    same-side pair, W0 pairs first, each in lex order), then V (two
    vertices per cross pair (i, j) in lex order, the W0-side one first).
  * subdivide(g, k): original vertices keep their ids; new path vertices
    follow, edge by edge in sorted edge order.
  * split_construction(g): V(G) keeps its ids, then one vertex per edge in
    sorted edge order.
  * join_with_clique(g, t): clique vertices are appended after V(G).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from importlib import resources

from .graphs import Graph, GraphError, mask_to_list, read_graph_text


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError("complete bipartite needs both parts nonempty")
    return Graph(m + n, [(a, m + b) for a in range(m) for b in range(n)])


def kneser(a: int, b: int) -> Graph:
    """KG(a,b): vertices are the b-subsets of [a], edges join disjoint subsets."""
    if b < 1 or a < 2 * b:
        raise GraphError("Kneser graph needs a >= 2b >= 2")
    subsets = [frozenset(c) for c in combinations(range(a), b)]
    edges = [(i, j) for i, j in combinations(range(len(subsets)), 2)
             if not (subsets[i] & subsets[j])]
    return Graph(len(subsets), edges)


def hypercube(d: int) -> Graph:
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Graph(n, edges)


def theta_graph(lengths: tuple[int, ...]) -> Graph:
    """Two hub vertices joined by internally disjoint paths of the given lengths.

    Hubs are vertices 0 and 1; at most one path may have length 1.
    """
    if len(lengths) < 3 or any(l < 1 for l in lengths):
        raise GraphError("theta graph needs >= 3 paths of length >= 1")
    if sum(1 for l in lengths if l == 1) > 1:
        raise GraphError("parallel edges not allowed")
    edges = []
    nxt = 2
    for l in lengths:
        prev = 0
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def coxeter() -> Graph:
    """The 28-vertex cubic Coxeter graph, from the shipped edge list."""
    g = read_graph_text(
        resources.files("fdomlab.data").joinpath("coxeter_edges.txt").read_text())
    if g.n != 28 or g.m != 42 or g.min_degree() != 3 or g.max_degree() != 3:
        raise GraphError("corrupt Coxeter edge list")
    return g


def incidence_graph(n: int, d: int) -> Graph:
    """Bipartite incidence graph of the complete d-uniform hypergraph on [n]:
    part A = [n], part B = all d-subsets, a~b iff a in b."""
    if not (1 <= d < n):
        raise GraphError("incidence graph needs 1 <= d < n")
    bsets = list(combinations(range(n), d))
    edges = [(a, n + i) for i, b in enumerate(bsets) for a in b]
    return Graph(n + len(bsets), edges)


def girth6_family(n: int) -> Graph:
    """Edge-union of a 3-subdivided K_{n,n} and two 2-subdivided K_n's.

    Bipartite, girth 6, minimum degree 2; the 2n hub vertices have degree
    2n-1 and all subdivision vertices have degree 2.
    """
    if n < 2:
        raise GraphError("girth-6 family needs n >= 2")
    edges = []
    w0 = list(range(n))
    w1 = list(range(n, 2 * n))
    nxt = 2 * n
    for side in (w0, w1):
        for i, j in combinations(side, 2):
            edges += [(i, nxt), (nxt, j)]
            nxt += 1
    for i in w0:
        for j in w1:
            a, b = nxt, nxt + 1
            edges += [(i, a), (a, b), (b, j)]
            nxt += 2
    return Graph(nxt, edges)


def subdivide(g: Graph, k: int) -> Graph:
    """Replace every edge by a path of length k (k=1 is the identity)."""
    if k < 1:
        raise GraphError("subdivision needs k >= 1")
    if k == 1:
        return g
    edges = []
    nxt = g.n
    for u, v in g.edges():
        prev = u
        for _ in range(k - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return Graph(nxt, edges)


def split_construction(g: Graph) -> Graph:
    """S(G): the 1-subdivision of G plus a clique on V(G).

    Vertex set V(G) + E(G); every edge-vertex is adjacent exactly to its two
    endpoints; the result is a split graph with minimum degree 2.
    """
    if g.m == 0:
        raise GraphError("split construction needs at least one edge")
    edges = list(combinations(range(g.n), 2))
    for i, (u, v) in enumerate(g.edges()):
        edges += [(u, g.n + i), (v, g.n + i)]
    return Graph(g.n + g.m, edges)


def graph_square(g: Graph) -> Graph:
    """G^2: join vertices at distance 1 or 2."""
    edges = set(g.edges())
    for v in range(g.n):
        nbrs = mask_to_list(g.nbr_mask[v])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                edges.add((nbrs[i], nbrs[j]))
    return Graph(g.n, edges)


def join_with_clique(g: Graph, t: int) -> Graph:
    """G + K_t: disjoint union plus all edges between V(G) and the new clique."""
    if t < 0:
        raise GraphError("clique size must be >= 0")
    edges = list(g.edges())
    edges += [(g.n + i, g.n + j) for i, j in combinations(range(t), 2)]
    edges += [(v, g.n + i) for v in range(g.n) for i in range(t)]
    return Graph(g.n + t, edges)


def hammock_expand(n: int, pairs: list[tuple[int, int]]
                   ) -> tuple[Graph, dict[str, list[int]]]:
    """Expand the multigraph on hubs 0..n-1 with edges `pairs` (a double edge
    listed twice), in sorted pair order: each simple edge becomes a suspended
    2-path, each double edge a hammock (a 2-path plus a 3-path).

    Returns the expanded simple graph and the A0/A1/B0/B1 vertex classes:
    A0 = 2-path middles, A1 = 3-path internals, B1 = hubs incident to a
    double edge, B0 = the remaining hubs.
    """
    Graph(n, pairs)  # the id and loop checks
    mult = Counter((min(u, v), max(u, v)) for u, v in pairs)
    degree = Counter(v for pair in pairs for v in pair)
    if min((degree[v] for v in range(n)), default=0) < 3:
        raise GraphError("hammock expansion needs minimum degree >= 3")
    if max(mult.values(), default=0) > 2:
        raise GraphError("hammock expansion needs multiplicity <= 2")
    edges = []
    a0, a1, b1 = [], [], set()
    nxt = n
    for (u, v), m in sorted(mult.items()):
        edges += [(u, nxt), (nxt, v)]
        a0.append(nxt)
        nxt += 1
        if m == 2:
            edges += [(u, nxt), (nxt, nxt + 1), (nxt + 1, v)]
            a1 += [nxt, nxt + 1]
            b1 |= {u, v}
            nxt += 2
    classes = {
        "A0": a0,
        "A1": a1,
        "B0": sorted(set(range(n)) - b1),
        "B1": sorted(b1),
    }
    return Graph(nxt, edges), classes


_NAMED = {
    "cycle": (1, lambda p: cycle(p[0])),
    "path": (1, lambda p: path(p[0])),
    "complete": (1, lambda p: complete(p[0])),
    "complete_bipartite": (2, lambda p: complete_bipartite(p[0], p[1])),
    "kneser": (2, lambda p: kneser(p[0], p[1])),
    "hypercube": (1, lambda p: hypercube(p[0])),
    "coxeter": (0, lambda p: coxeter()),
    "petersen": (0, lambda p: kneser(5, 2)),
    "theta": (-1, lambda p: theta_graph(tuple(p))),
    "incidence": (2, lambda p: incidence_graph(p[0], p[1])),
    "girth6": (1, lambda p: girth6_family(p[0])),
}


def generate_named(name: str, params: tuple[int, ...] = ()) -> Graph:
    """Catalog dispatch: cycle n | path n | complete n | complete_bipartite m n
    | kneser a b | hypercube d | coxeter | petersen | theta l1 l2 l3...
    | incidence n d | girth6 n."""
    if name not in _NAMED:
        raise GraphError(f"unknown graph family {name!r}")
    arity, fn = _NAMED[name]
    if arity >= 0 and len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn(list(params))
