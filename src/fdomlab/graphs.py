"""Immutable simple graphs on vertices 0..n-1.

A simple graph stores its adjacency once, as open and closed
neighbourhood bitmasks (Python ints; the dominating-set engines work on
these bitsets throughout).  The edge list, the degrees and the traversals
are derived from the masks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    pass


class RationalError(ValueError):
    pass


class Graph:
    """Simple undirected graph.  Vertices are 0..n-1; no loops, no parallel edges."""

    __slots__ = ("n", "nbr_mask", "closed_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("negative vertex count")
        nbr = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.n = n
        self.nbr_mask = tuple(nbr)
        self.closed_mask = tuple(m | (1 << v) for v, m in enumerate(nbr))

    # -- basic queries -------------------------------------------------

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v) with u < v, in increasing order."""
        out = []
        for u, m in enumerate(self.nbr_mask):
            m >>= u + 1  # the neighbours above u, as offsets from u + 1
            while m:
                low = m & -m
                out.append((u, u + low.bit_length()))
                m ^= low
        return tuple(out)

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.nbr_mask)) // 2

    def degree(self, v: int) -> int:
        return self.nbr_mask[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.nbr_mask]

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.nbr_mask[u] >> v & 1 == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.nbr_mask == other.nbr_mask)

    def __hash__(self) -> int:
        return hash((self.n, self.nbr_mask))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- traversal -----------------------------------------------------

    def is_connected(self) -> bool:
        """A BFS from vertex 0, one level mask at a time, reaches every vertex."""
        seen = level = 1 if self.n else 0
        while level:
            reach = 0
            for u in iter_mask(level):
                reach |= self.nbr_mask[u]
            level = reach & ~seen
            seen |= level
        return seen == (1 << self.n) - 1

    def bfs_order(self) -> list[int]:
        order, seen, i = [], 0, 0
        for root in range(self.n):
            if not seen >> root & 1:
                seen |= 1 << root
                order.append(root)
            while i < len(order):  # order doubles as the queue
                new = self.nbr_mask[order[i]] & ~seen
                seen |= new
                order.extend(iter_mask(new))
                i += 1
        return order

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None for a forest.

        A BFS from every vertex s, one level mask at a time: an edge inside
        level d closes a cycle of length at most 2d+1, and a vertex of level
        d+1 reached from two vertices of level d one of length at most 2d+2.
        A shortest cycle through s is found this way at its own length.
        """
        best: Optional[int] = None
        for s in range(self.n):
            seen = level = 1 << s
            d = 0
            while level and (best is None or 2 * d + 1 < best):
                reach = twice = inside = 0
                for u in iter_mask(level):
                    nb = self.nbr_mask[u]
                    inside |= nb & level
                    twice |= reach & nb
                    reach |= nb
                if inside:
                    best = 2 * d + 1
                elif twice & ~seen:
                    best = 2 * d + 2
                level = reach & ~seen
                seen |= level
                d += 1
        return best

    # -- derived graphs --------------------------------------------------

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u},{v})")
        e = (min(u, v), max(u, v))
        return Graph(self.n, [f for f in self.edges() if f != e])

    def remove_vertices(self, drop: Iterable[int]) -> tuple["Graph", list[int]]:
        """Delete vertices; returns (new graph, old-id of each new vertex)."""
        dropset = set(drop)
        keep = [v for v in range(self.n) if v not in dropset]
        new_id = {v: i for i, v in enumerate(keep)}
        edges = [(new_id[u], new_id[v]) for u, v in self.edges() if u in new_id and v in new_id]
        return Graph(len(keep), edges), keep

    def induced(self, verts: Iterable[int]) -> tuple["Graph", list[int]]:
        keepset = set(verts)
        return self.remove_vertices([v for v in range(self.n) if v not in keepset])


# -- text format -------------------------------------------------------
#
#   # comment
#   p <n> <m>
#   e <u> <v>        (0-based)


def write_graph_text(g: Graph) -> str:
    edges = g.edges()
    lines = [f"p {g.n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


# The most vertices a graph file may declare: a Graph's masks take about
# n^2 / 16 bytes (256 MiB here), so a larger header could exhaust memory.
MAX_VERTICES = 1 << 16


def read_graph_text(text: str) -> Graph:
    """A simple graph: an edge given twice, in either orientation, is an error."""
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
            n, m = read_int(parts[1]), read_int(parts[2])
            if n > MAX_VERTICES:
                raise GraphError(f"line {lineno}: {n} vertices exceed the cap {MAX_VERTICES}")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: malformed edge {line!r}")
            edges.append((read_int(parts[1]), read_int(parts[2])))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing 'p' header")
    if m is not None and m != len(edges):
        raise GraphError(f"header promises {m} edges, found {len(edges)}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        e = (min(u, v), max(u, v))
        if e in seen:
            raise GraphError(f"repeated edge ({u},{v})")
        seen.add(e)
    return Graph(n, seen)


def read_int(x) -> int:
    """The one reader of outside integers: a JSON int (not a bool) or a
    string matching -?[0-9]+; ' 1', '1_0', '+1' and non-ASCII digits are not."""
    if type(x) is int:
        return x
    if type(x) is str and re.fullmatch("-?[0-9]+", x):
        return int(x)
    raise RationalError(f"expected an integer, got {x!r}")


def fraction_from_pair(pair) -> Fraction:
    """The rational of a JSON ["num", "den"] pair; den must be nonzero."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise RationalError(f"expected a [num, den] pair, got {pair!r}")
    num, den = read_int(pair[0]), read_int(pair[1])
    if den == 0:
        raise RationalError(f"zero denominator in {pair!r}")
    return Fraction(num, den)


def fraction_to_pair(x: Fraction) -> list[str]:
    """The JSON ["num", "den"] pair of x, in lowest terms."""
    return [str(x.numerator), str(x.denominator)]


def scale_to_integers(weights: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """(numerators, den) with weights[i] == numerators[i] / den, where den
    is the lcm of the denominators."""
    den = lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def json_field(obj, key: str):
    """obj[key], where obj must be a JSON object holding key."""
    if not isinstance(obj, dict) or key not in obj:
        raise GraphError(f"missing key {key!r}")
    return obj[key]


def json_list(obj, key: str) -> list:
    """obj[key], where obj must be a JSON object and obj[key] a list."""
    if not isinstance(json_field(obj, key), list):
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
    out = []  # iter_mask's loop without the generator, which costs a resume per bit
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
