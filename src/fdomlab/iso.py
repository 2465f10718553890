"""Small-graph isomorphism machinery: one isomorphism-invariant vertex
signature (colour refinement), backtracking isomorphism with colour
pruning, automorphism groups (in full, or by a generating set), canonical
forms, and spanning-subgraph embeddings.

Everything here is exponential in the worst case and intended for the
small references it is used against (bad-family members, figure graphs,
the exhaustive test corpora).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional, Sequence

from .graphs import Graph, iter_mask, mask_to_list


def vertex_signature(nbr_mask: Sequence[int]) -> list[int]:
    """Colour refinement (1-WL) from the degrees, to a stable partition.

    `nbr_mask[v]` is the neighbourhood mask of v.  A colour is the hash of
    the vertex's previous colour and the sorted colours of its neighbours, so
    it is a function of the refinement history alone and means the same
    in every graph: an isomorphism maps each vertex to one of equal
    signature, and isomorphic graphs have equal signature multisets.
    Refinement stops at the first round that splits no class.  A hash
    collision can only merge classes, which weakens the signature as a
    pruning device but never makes it depend on the labelling.
    """
    colours = [m.bit_count() for m in nbr_mask]
    nbrs = [mask_to_list(m) for m in nbr_mask]
    classes = len(set(colours))
    while True:
        new = [hash((c, tuple(sorted([colours[w] for w in a]))))
               for c, a in zip(colours, nbrs)]
        k = len(set(new))
        if k <= classes:
            return new
        colours, classes = new, k


def _search_order(g: Graph, colours: list[int]) -> list[int]:
    """The order in which the backtracking maps the vertices of g: rare
    colour class first, then depth-first so mapped vertices stay adjacent."""
    freq = Counter(colours)
    order = sorted(range(g.n), key=lambda v: (freq[colours[v]], -g.degree(v), v))
    ordered = []
    seen: set[int] = set()
    stack = list(reversed(order))
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        ordered.append(v)
        seen.add(v)
        for w in sorted(iter_mask(g.nbr_mask[v]), key=lambda x: (freq[colours[x]], x)):
            if w not in seen:
                stack.append(w)
    return ordered


def _extensions(g: Graph, h: Graph, cg: list[int], ch: list[int], ordered: list[int],
                fixed: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """Yield isomorphisms g -> h that respect the colours and send each
    key of `fixed` to its value, mapping g's vertices in `ordered` order."""
    nbrs = [mask_to_list(m) for m in g.nbr_mask]
    phi: dict[int, int] = {}
    used = [False] * h.n

    def backtrack(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(ordered):
            yield tuple(phi[v] for v in range(g.n))
            return
        v = ordered[i]
        mapped_nbrs = [phi[w] for w in nbrs[v] if w in phi]
        for t in ((fixed[v],) if v in fixed else range(h.n)):
            if used[t] or ch[t] != cg[v]:
                continue
            if any(not h.has_edge(t, x) for x in mapped_nbrs):
                continue
            # mapped non-neighbours of v must stay non-neighbours of t
            if any(g.has_edge(v, w) != h.has_edge(t, tw) for w, tw in phi.items()):
                continue
            phi[v] = t
            used[t] = True
            yield from backtrack(i + 1)
            used[t] = False
            del phi[v]

    yield from backtrack(0)


def _iso_search(g: Graph, h: Graph) -> Iterator[tuple[int, ...]]:
    """Yield isomorphisms g -> h as tuples phi with phi[u] in V(h)."""
    if g.n != h.n or g.m != h.m:
        return
    cg = vertex_signature(g.nbr_mask)
    ch = cg if h is g else vertex_signature(h.nbr_mask)
    if sorted(cg) != sorted(ch):
        return
    yield from _extensions(g, h, cg, ch, _search_order(g, cg), {})


def isomorphism(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """An isomorphism g -> h (phi[u] = image of u), or None."""
    return next(_iso_search(g, h), None)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return isomorphism(g, h) is not None


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of g (small graphs only)."""
    return list(_iso_search(g, g))


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """A generating set of Aut(g); empty when g has no other automorphism.

    Along the search order v_0, v_1, ..., level i (taken from the last
    level up) adds, for each vertex t of v_i's signature outside the orbit
    of v_i under the generators found so far, one automorphism that fixes
    v_0..v_{i-1} and sends v_i to t, if there is one.  The generators
    found at levels i..n-1 then reach the whole orbit of v_i under the
    stabiliser of v_0..v_{i-1} and contain generators of the stabiliser of
    v_0..v_i, so they generate the stabiliser of v_0..v_{i-1}; at level 0
    that is Aut(g).  A graph whose signature separates every vertex needs
    no search at all.
    """
    cg = vertex_signature(g.nbr_mask)
    ordered = _search_order(g, cg)
    gens: list[tuple[int, ...]] = []
    for i in reversed(range(g.n)):
        v = ordered[i]
        fixed = {u: u for u in ordered[:i]}
        orbit = {v}
        for t in ordered[i + 1:]:
            if t in orbit or cg[t] != cg[v]:
                continue
            fixed[v] = t
            phi = next(_extensions(g, g, cg, cg, ordered, fixed), None)
            if phi is not None:
                gens.append(phi)
                orbit = next(o for o in orbits(g.n, gens) if v in o)
    return gens


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


GROUP_CAP = 100_000  # elements group_closure may list


def group_closure(n: int, gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
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
                    if len(seen) >= GROUP_CAP:
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
    colours = vertex_signature(g.nbr_mask)
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
    if best is None:
        raise RuntimeError("canonical_form found no vertex ordering")
    return (n, g.m, best)


def spanning_subgraph_embedding(pattern: Graph, host: Graph,
                                fixed: Optional[dict[int, int]] = None
                                ) -> Optional[tuple[int, ...]]:
    """A bijection sigma: V(pattern) -> V(host) with sigma(E(pattern)) a subset
    of E(host) and sigma(u) = fixed[u] for each key u of fixed; None if no
    such embedding exists."""
    fixed = fixed or {}
    if pattern.n != host.n or pattern.m > host.m:
        return None
    # one colour class: highest degree first, then depth-first
    ordered = _search_order(pattern, [0] * pattern.n)
    nbrs = [mask_to_list(m) for m in pattern.nbr_mask]
    phi: dict[int, int] = {}
    used = [False] * host.n

    def backtrack(i: int) -> Optional[tuple[int, ...]]:
        if i == len(ordered):
            return tuple(phi[v] for v in range(pattern.n))
        v = ordered[i]
        mapped_nbrs = [phi[w] for w in nbrs[v] if w in phi]
        for t in ((fixed[v],) if v in fixed else range(host.n)):
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
