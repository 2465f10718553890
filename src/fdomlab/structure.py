"""Structural queries: cut vertices, suspended paths, twins, hammocks,
and extraction of long suspended paths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, GraphError, iter_mask


@dataclass(frozen=True)
class SuspendedPath:
    """Path u_0..u_l whose endpoints have degree >= 3 in the host graph and
    whose internal vertices have degree exactly 2; endpoints are distinct."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def internal(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def canonical(self) -> "SuspendedPath":
        if self.vertices[0] > self.vertices[-1] or (
                self.vertices[0] == self.vertices[-1]
                and self.vertices[1] > self.vertices[-2]):
            return SuspendedPath(tuple(reversed(self.vertices)))
        return self


@dataclass(frozen=True)
class Hammock:
    """A suspended 2-path and a suspended 3-path between the same pair of
    non-adjacent endpoints."""

    endpoints: tuple[int, int]
    two_path: SuspendedPath
    three_path: SuspendedPath

    def cycle_vertices(self) -> tuple[int, ...]:
        """The five vertices of the induced C5."""
        return tuple(sorted(set(self.two_path.vertices) | set(self.three_path.vertices)))


def cut_vertices(g: Graph) -> list[int]:
    """The cut vertices of g in increasing order: an iterative lowpoint DFS
    (Hopcroft-Tarjan) over each component."""
    depth = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    cuts: set[int] = set()
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [(root, iter_mask(g.nbr_mask[root]))]
        root_children = 0
        while stack:
            v, it = stack[-1]
            for w in it:
                if depth[w] < 0:
                    depth[w] = low[w] = depth[v] + 1
                    parent[w] = v
                    root_children += v == root
                    stack.append((w, iter_mask(g.nbr_mask[w])))
                    break
                if w != parent[v]:
                    low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= depth[u] and u != root:
                        cuts.add(u)
        if root_children > 1:
            cuts.add(root)
    return sorted(cuts)


def suspended_paths(g: Graph) -> list[SuspendedPath]:
    """All maximal suspended paths. A cycle hanging on a single 3+-vertex is
    not a suspended path (its endpoints would coincide)."""
    out = []
    seen = set()
    for u in range(g.n):
        if g.degree(u) < 3:
            continue
        for first in iter_mask(g.nbr_mask[u]):
            walk = [u, first]
            while g.degree(walk[-1]) == 2:  # step to the neighbour we did not come from
                walk.append((g.nbr_mask[walk[-1]] & ~(1 << walk[-2])).bit_length() - 1)
            v = walk[-1]
            if g.degree(v) < 3 or v == u:
                continue
            p = SuspendedPath(tuple(walk)).canonical()
            if p.vertices not in seen:
                seen.add(p.vertices)
                out.append(p)
    return sorted(out, key=lambda p: p.vertices)


def twin_pairs(paths: list[SuspendedPath]) -> list[tuple[SuspendedPath, SuspendedPath]]:
    groups: dict[tuple[int, int, int], list[SuspendedPath]] = {}
    for p in paths:
        a, b = p.endpoints
        groups.setdefault((min(a, b), max(a, b), p.length), []).append(p)
    out = []
    for grp in groups.values():
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                out.append((grp[i], grp[j]))
    return out


def hammocks(g: Graph, paths: Optional[list[SuspendedPath]] = None) -> list[Hammock]:
    if paths is None:
        paths = suspended_paths(g)
    by_ends: dict[tuple[int, int], dict[int, list[SuspendedPath]]] = {}
    for p in paths:
        a, b = p.endpoints
        key = (min(a, b), max(a, b))
        by_ends.setdefault(key, {}).setdefault(p.length, []).append(p)
    out = []
    for (a, b), by_len in sorted(by_ends.items()):
        if g.has_edge(a, b):
            continue
        for p2 in by_len.get(2, []):
            for p3 in by_len.get(3, []):
                out.append(Hammock((a, b), p2, p3))
    return out


def find_long_suspended_path(g: Graph, l: int) -> Optional[SuspendedPath]:
    """A longest suspended path, provided its length is >= l+1; None otherwise.

    For 2-connected planar graphs of girth >= 5l+1 with a 3+-vertex, a
    suitable path always exists; the search itself works on any graph
    meeting the stated degree preconditions.
    """
    if not g.is_connected() or cut_vertices(g):
        raise GraphError("long-path extraction expects a 2-connected graph")
    if g.min_degree() < 2 or g.max_degree() < 3:
        raise GraphError("long-path extraction expects min degree 2 and a 3+-vertex")
    # a 3+-vertex whose walks all came back to it would be a cut vertex
    best = max(suspended_paths(g), key=lambda p: p.length)
    return best if best.length >= l + 1 else None


def remove_suspended_path(g: Graph, p: SuspendedPath) -> tuple[Graph, list[int]]:
    """G \\ P: delete the internal vertices and edges of P.

    Returns the reduced graph and the old-id map. When P has no internal
    vertex (length 1), the single edge is removed instead.
    """
    if p.length == 1:
        u, v = p.endpoints
        return g.remove_edge(u, v), list(range(g.n))
    return g.remove_vertices(p.internal)
