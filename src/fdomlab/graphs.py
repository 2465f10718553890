"""Immutable simple graphs and loopless multigraphs on vertices 0..n-1.

Adjacency is stored both as frozensets (for membership tests) and as
closed-neighbourhood bitmasks (for the dominating-set engines, which work
on Python-int bitsets throughout).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, Optional


class GraphError(ValueError):
    pass


class RationalError(ValueError):
    pass


class Graph:
    """Simple undirected graph.  Vertices are 0..n-1; no loops, no parallel edges."""

    __slots__ = ("n", "adj", "nbr_mask", "closed_mask", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("negative vertex count")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self.nbr_mask = tuple(sum(1 << w for w in s) for s in adj)
        self.closed_mask = tuple(m | (1 << v) for v, m in enumerate(self.nbr_mask))
        self._edges = tuple(sorted((min(u, v), max(u, v))
                                   for u in range(n) for v in adj[u] if u < v))

    # -- basic queries -------------------------------------------------

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self.adj]

    def min_degree(self) -> int:
        return min((len(s) for s in self.adj), default=0)

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self._edges == other._edges)

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- traversal -----------------------------------------------------

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = self._component(0)
        return len(seen) == self.n

    def _component(self, start: int) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def bfs_order(self) -> list[int]:
        order, seen = [], set()
        for root in range(self.n):
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                order.append(u)
                for w in sorted(self.adj[u]):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return order

    def distances_from(self, start: int) -> list[Optional[int]]:
        dist: list[Optional[int]] = [None] * self.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None for a forest (BFS from every vertex)."""
        best: Optional[int] = None
        for s in range(self.n):
            dist = {s: 0}
            parent = {s: -1}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if best is not None and 2 * dist[u] >= best:
                    continue
                for w in self.adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        cyc = dist[u] + dist[w] + 1
                        if best is None or cyc < best:
                            best = cyc
        return best

    # -- derived graphs --------------------------------------------------

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u},{v})")
        e = (min(u, v), max(u, v))
        return Graph(self.n, [f for f in self._edges if f != e])

    def remove_vertices(self, drop: Iterable[int]) -> tuple["Graph", list[int]]:
        """Delete vertices; returns (new graph, old-id of each new vertex)."""
        dropset = set(drop)
        keep = [v for v in range(self.n) if v not in dropset]
        new_id = {v: i for i, v in enumerate(keep)}
        edges = [(new_id[u], new_id[v]) for u, v in self._edges
                 if u not in dropset and v not in dropset]
        return Graph(len(keep), edges), keep

    def induced(self, verts: Iterable[int]) -> tuple["Graph", list[int]]:
        keepset = set(verts)
        return self.remove_vertices([v for v in range(self.n) if v not in keepset])


class MultiGraph:
    """Loopless multigraph: unordered vertex pairs with multiplicity >= 1."""

    __slots__ = ("n", "mult")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("negative vertex count")
        mult: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            mult[key] = mult.get(key, 0) + 1
        self.n = n
        self.mult = dict(sorted(mult.items()))

    def degree(self, v: int) -> int:
        return sum(m for (a, b), m in self.mult.items() if v in (a, b))

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def max_multiplicity(self) -> int:
        return max(self.mult.values(), default=0)

    def edge_list(self) -> list[tuple[int, int]]:
        out = []
        for (u, v), m in self.mult.items():
            out.extend([(u, v)] * m)
        return out

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={len(self.edge_list())})"


# -- text format -------------------------------------------------------
#
#   # comment
#   p <n> <m>
#   e <u> <v>        (0-based; repeated edges allowed for multigraphs only)


def write_graph_text(g: Graph | MultiGraph) -> str:
    edges = g.edges() if isinstance(g, Graph) else g.edge_list()
    lines = [f"p {g.n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _parse_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            n, m = int(parts[1]), int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: malformed edge {line!r}")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing 'p' header")
    if m is not None and m != len(edges):
        raise GraphError(f"header promises {m} edges, found {len(edges)}")
    return n, edges


def read_graph_text(text: str) -> Graph:
    """A simple graph: an edge given twice, in either orientation, is an error
    (read_multigraph_text keeps parallel edges)."""
    n, edges = _parse_edges(text)
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        e = (min(u, v), max(u, v))
        if e in seen:
            raise GraphError(f"repeated edge ({u},{v})")
        seen.add(e)
    return Graph(n, seen)


def read_multigraph_text(text: str) -> MultiGraph:
    n, edges = _parse_edges(text)
    return MultiGraph(n, edges)


def fraction_from_pair(pair) -> Fraction:
    """The rational of a JSON ["num", "den"] pair; den must be nonzero."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(x) in (str, int) for x in pair)):
        raise RationalError(f"expected a [num, den] pair, got {pair!r}")
    num, den = int(pair[0]), int(pair[1])
    if den == 0:
        raise RationalError(f"zero denominator in {pair!r}")
    return Fraction(num, den)


def json_list(obj, key: str) -> list:
    """obj[key], where obj must be a JSON object and obj[key] a list."""
    if not isinstance(obj, dict) or not isinstance(obj.get(key), list):
        raise GraphError(f"expected a JSON object whose {key!r} is a list")
    return obj[key]


def vertex_list(ids) -> list[int]:
    """A JSON list of distinct non-negative integer ids (vertices or colours)."""
    if (not isinstance(ids, list) or any(type(v) is not int or v < 0 for v in ids)
            or len(set(ids)) != len(ids)):
        raise GraphError(f"expected a list of distinct non-negative integer ids, got {ids!r}")
    return ids


# -- bitset helpers ----------------------------------------------------


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_list(mask: int) -> list[int]:
    return list(iter_mask(mask))
