"""Small-graph isomorphism machinery: backtracking isomorphism with
degree/neighbour-degree pruning, full automorphism enumeration, canonical
forms, and spanning-subgraph embeddings.

Everything here is exponential in the worst case and intended for the
small references it is used against (bad-family members, figure graphs,
the exhaustive test corpora).
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graphs import Graph


def _refine_colours(g: Graph, colours: list[int]) -> list[int]:
    """Iterated neighbourhood-colour refinement (1-WL), to a fixed point."""
    for _ in range(g.n):
        sig = [(colours[v], tuple(sorted(colours[w] for w in g.adj[v]))) for v in range(g.n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colours:
            break
        colours = new
    return colours


def _initial_colours(g: Graph) -> list[int]:
    return _refine_colours(g, [g.degree(v) for v in range(g.n)])


def _iso_search(g: Graph, h: Graph) -> Iterator[tuple[int, ...]]:
    """Yield isomorphisms g -> h as tuples phi with phi[u] in V(h)."""
    if g.n != h.n or g.m != h.m:
        return
    if sorted(g.degrees()) != sorted(h.degrees()):
        return
    cg = _initial_colours(g)
    ch = _initial_colours(h)
    if sorted(cg) != sorted(ch):
        return
    # map vertices of g in most-constrained order: rare colour class first
    from collections import Counter
    freq = Counter(cg)
    order = sorted(range(g.n), key=lambda v: (freq[cg[v]], -g.degree(v), v))
    # interleave to keep mapped vertices adjacent where possible
    ordered = []
    seen: set[int] = set()
    stack = list(reversed(order))
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        ordered.append(v)
        seen.add(v)
        for w in sorted(g.adj[v], key=lambda x: (freq[cg[x]], x)):
            if w not in seen:
                stack.append(w)
    phi: dict[int, int] = {}
    used = [False] * h.n

    def backtrack(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(ordered):
            yield tuple(phi[v] for v in range(g.n))
            return
        v = ordered[i]
        mapped_nbrs = [phi[w] for w in g.adj[v] if w in phi]
        for t in range(h.n):
            if used[t] or ch[t] != cg[v] or h.degree(t) != g.degree(v):
                continue
            if any(not h.has_edge(t, x) for x in mapped_nbrs):
                continue
            # mapped non-neighbours of v must stay non-neighbours of t
            ok = True
            for w, tw in phi.items():
                if g.has_edge(v, w) != h.has_edge(t, tw):
                    ok = False
                    break
            if not ok:
                continue
            phi[v] = t
            used[t] = True
            yield from backtrack(i + 1)
            used[t] = False
            del phi[v]

    yield from backtrack(0)


def isomorphism(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """An isomorphism g -> h (phi[u] = image of u), or None."""
    for phi in _iso_search(g, h):
        return phi
    return None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return isomorphism(g, h) is not None


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of g (small graphs only)."""
    return list(_iso_search(g, g))


def orbits(n: int, perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Orbits of 0..n-1 under the group generated by the given permutations."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for v in range(n):
            a, b = find(v), find(p[v])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def group_closure(n: int, gens: list[tuple[int, ...]], cap: int = 100000) -> list[tuple[int, ...]]:
    """All elements of the permutation group generated by gens (BFS closure)."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for gperm in gens:
                q = tuple(gperm[p[i]] for i in range(n))
                if q not in seen:
                    if len(seen) >= cap:
                        raise ValueError("group closure exceeds cap")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def canonical_form(g: Graph) -> tuple:
    """A canonical invariant: (n, lexicographically smallest upper-triangle
    edge bitstring over refinement-consistent orderings).  Two graphs are
    isomorphic iff their canonical forms coincide."""
    n = g.n
    if n == 0:
        return (0, 0)
    colours = _initial_colours(g)
    best: Optional[int] = None
    order: list[int] = []
    pos = [0] * n

    def adj_bits_prefix(v: int) -> int:
        bits = 0
        for i, u in enumerate(order):
            bits = (bits << 1) | (1 if g.has_edge(v, u) else 0)
        return bits

    def backtrack(prefix_bits: int, used: set[int]) -> None:
        nonlocal best
        i = len(order)
        if i == n:
            if best is None or prefix_bits < best:
                best = prefix_bits
            return
        # candidates: minimal colour among unused, all vertices of that colour
        cands = [v for v in range(n) if v not in used]
        mincol = min(colours[v] for v in cands)
        for v in cands:
            if colours[v] != mincol:
                continue
            bits = (prefix_bits << i) | adj_bits_prefix(v)
            if best is not None and i < n - 1:
                # prune: compare against best's prefix at the same depth
                shift = (n * (n - 1)) // 2 - ((i * (i + 1)) // 2)
                if bits > (best >> shift):
                    continue
            order.append(v)
            used.add(v)
            backtrack(bits, used)
            used.discard(v)
            order.pop()

    backtrack(0, set())
    assert best is not None
    return (n, g.m, best)


def spanning_subgraph_embedding(pattern: Graph, host: Graph) -> Optional[tuple[int, ...]]:
    """A bijection sigma: V(pattern) -> V(host) with sigma(E(pattern)) a subset
    of E(host); None if no such embedding exists."""
    if pattern.n != host.n or pattern.m > host.m:
        return None
    order = sorted(range(pattern.n), key=lambda v: -pattern.degree(v))
    # keep connectivity in the mapping order where possible
    ordered: list[int] = []
    seen: set[int] = set()
    stack = list(reversed(order))
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        ordered.append(v)
        seen.add(v)
        for w in sorted(pattern.adj[v]):
            if w not in seen:
                stack.append(w)
    phi: dict[int, int] = {}
    used = [False] * host.n

    def backtrack(i: int) -> Optional[tuple[int, ...]]:
        if i == len(ordered):
            return tuple(phi[v] for v in range(pattern.n))
        v = ordered[i]
        mapped_nbrs = [phi[w] for w in pattern.adj[v] if w in phi]
        for t in range(host.n):
            if used[t] or host.degree(t) < pattern.degree(v):
                continue
            if any(not host.has_edge(t, x) for x in mapped_nbrs):
                continue
            phi[v] = t
            used[t] = True
            res = backtrack(i + 1)
            if res is not None:
                return res
            used[t] = False
            del phi[v]
        return None

    return backtrack(0)
