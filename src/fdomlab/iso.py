"""Isomorphism machinery: one isomorphism-invariant vertex signature
(colour refinement, from the degrees or a given colouring), backtracking
isomorphism with colour pruning, automorphism groups (in full, or by a
generating set from an individualise-and-refine search), canonical
forms, and spanning-subgraph embeddings.

Everything here is exponential in the worst case.  The generator search
refines after each individualisation, so it also serves column
generation's large graphs; the rest is meant for the small references
it is checked against (bad-family members, figures, the test corpora).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional, Sequence

from .graphs import Graph, iter_mask, mask_of, mask_to_list


def vertex_signature(nbr_mask: Sequence[int],
                     colours: Optional[Sequence[int]] = None) -> list[int]:
    """Colour refinement (1-WL) from the degrees, or from the given starting
    colouring, to a stable partition.

    `nbr_mask[v]` is the neighbourhood mask of v.  A colour is the hash of
    the vertex's previous colour and the sorted colours of its neighbours, so
    it is a function of the refinement history alone and means the same
    in every graph: an isomorphism that maps the starting colours onto each
    other maps each vertex to one of equal signature, and isomorphic graphs
    have equal signature multisets.  Refinement stops at the first round
    that splits no class.  A hash collision can only merge classes, which
    weakens the signature as a pruning device but never makes it depend on
    the labelling.
    """
    if colours is None:
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


def _extensions(g: Graph, h: Graph, cg: list[int], ch: list[int],
                ordered: list[int]) -> Iterator[tuple[int, ...]]:
    """Yield isomorphisms g -> h that respect the colours, mapping g's
    vertices in `ordered` order."""
    nbrs = [mask_to_list(m) for m in g.nbr_mask]
    phi: dict[int, int] = {}
    used = [False] * h.n

    def backtrack(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(ordered):
            yield tuple(phi[v] for v in range(g.n))
            return
        v = ordered[i]
        mapped_nbrs = [phi[w] for w in nbrs[v] if w in phi]
        for t in range(h.n):
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
    yield from _extensions(g, h, cg, ch, _search_order(g, cg))


def isomorphism(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """An isomorphism g -> h (phi[u] = image of u), or None."""
    return next(_iso_search(g, h), None)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return isomorphism(g, h) is not None


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of g (small graphs only)."""
    return list(_iso_search(g, g))


def _individualised(g: Graph, colours: list[int], v: int) -> list[int]:
    """colours with v alone in a new cell, refined to a stable partition."""
    start = list(colours)
    start[v] = hash((colours[v], -1))
    return vertex_signature(g.nbr_mask, start)


def _target_cell(colours: list[int]) -> Optional[int]:
    """The colour of the smallest non-singleton cell (the least colour among
    equal sizes), or None when the colouring is discrete."""
    cells = ((k, c) for c, k in Counter(colours).items() if k > 1)
    return min(cells, default=(0, None))[1]


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """A generating set of Aut(g); empty when g has no other automorphism.

    Individualise and refine (McKay & Piperno, J. Symb. Comput. 2014): the
    first path individualises the lowest vertex v_i of the smallest
    non-singleton cell of its colouring pi_i and refines, until the leaf
    is discrete.  Level i (from the last up) adds, for each t of v_i's cell
    outside v_i's orbit under the generators so far, one automorphism
    fixing v_0..v_{i-1} with v_i -> t, if any: t is individualised in pi_i
    instead, and the search below follows the path's cells, keeping a
    child only if its colour multiset equals the path's.  A matching leaf
    maps colour to vertex and is kept only after an edge-by-edge check, so
    a hash collision can only lose a generator.  The generators of levels
    i..k-1 reach v_i's orbit under the stabiliser of v_0..v_{i-1} and
    generate the stabiliser of v_0..v_i, so they generate the former; at
    level 0 that is Aut(g).
    """
    path = [vertex_signature(g.nbr_mask)]
    cells = [_target_cell(path[0])]
    while cells[-1] is not None:
        path.append(_individualised(g, path[-1], path[-1].index(cells[-1])))
        cells.append(_target_cell(path[-1]))
    depth, shapes = len(path) - 1, [sorted(p) for p in path]

    def below(colours: list[int], i: int, u: int) -> Optional[tuple[int, ...]]:
        """An automorphism taking the leaf to a leaf below the child of
        `colours` (at depth i) that individualises u, or None."""
        nxt = _individualised(g, colours, u)
        if sorted(nxt) != shapes[i + 1]:
            return None
        if i + 1 < depth:
            return next((phi for w, c in enumerate(nxt)
                         if c == cells[i + 1] and (phi := below(nxt, i + 1, w))), None)
        at = {c: w for w, c in enumerate(nxt)}
        phi = tuple(at[c] for c in path[-1])
        return phi if all(mask_of(phi[w] for w in iter_mask(m)) == g.nbr_mask[phi[v]]
                          for v, m in enumerate(g.nbr_mask)) else None

    gens: list[tuple[int, ...]] = []
    for i in reversed(range(depth)):
        v = path[i].index(cells[i])
        orbit = {v}
        for t, c in enumerate(path[i]):
            if c == cells[i] and t not in orbit and (phi := below(path[i], i, t)):
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
