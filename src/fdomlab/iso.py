"""Isomorphism machinery around one mapping search, `_maps`: a backtrack
on an explicit stack that sends g's vertices into candidate masks of h,
edges onto edges and, when induced, non-edges onto non-edges.
Isomorphisms and automorphisms (classes of `vertex_signature`, the one
colour refinement, as candidates), the individualise-and-refine generator
search and spanning-subgraph embeddings all run through it;
`canonical_form` keeps a search of its own as the tests' oracle.

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
    stack = sorted(range(g.n), key=lambda v: (freq[colours[v]], -g.degree(v), v), reverse=True)
    ordered, seen = [], 0
    while stack:
        v = stack.pop()
        if not seen >> v & 1:
            ordered.append(v)
            seen |= 1 << v
            stack += sorted(iter_mask(g.nbr_mask[v] & ~seen), key=lambda x: (freq[colours[x]], x))
    return ordered


def _maps(g: Graph, h: Graph, order: list[int], cands: list[int],
          induced: bool) -> Iterator[tuple[int, ...]]:
    """Yield the injective maps phi: V(g) -> V(h) (phi[u] = image of u) with
    phi(order[i]) in the mask cands[i], each edge onto an edge and, when
    `induced`, each non-edge onto a non-edge; depth-first in `order`,
    targets in increasing order.  left[i] holds level i's untried targets
    and want[i] the images of order[i]'s mapped neighbours."""
    k = len(order)
    if k == 0:
        yield ()
        return
    phi = [0] * g.n
    left, want = [cands[0]] + [0] * (k - 1), [0] * k
    i = mapped = used = 0
    while i >= 0:
        m = left[i]
        if not m:
            i -= 1
            if i >= 0:
                mapped ^= 1 << order[i]
                used ^= 1 << phi[order[i]]
            continue
        low = m & -m
        left[i] = m ^ low
        t = low.bit_length() - 1
        if h.nbr_mask[t] & (used if induced else want[i]) != want[i]:
            continue
        v = order[i]
        phi[v] = t
        if i + 1 == k:
            yield tuple(phi)
            continue
        mapped |= 1 << v
        used |= low
        i += 1
        left[i] = cands[i] & ~used
        want[i] = mask_of(phi[w] for w in iter_mask(g.nbr_mask[order[i]] & mapped))


def _iso_search(g: Graph, h: Graph, cg: Optional[list[int]] = None,
                ch: Optional[list[int]] = None) -> Iterator[tuple[int, ...]]:
    """Yield the isomorphisms g -> h that map each class of g's colouring cg
    onto the class of equal colour in ch (default: vertex signatures)."""
    if g.n != h.n or g.m != h.m:
        return iter(())
    if cg is None:
        cg = vertex_signature(g.nbr_mask)
        ch = cg if h is g else vertex_signature(h.nbr_mask)
    if sorted(cg) != sorted(ch):
        return iter(())
    cls: dict[int, int] = {}
    for t, c in enumerate(ch):
        cls[c] = cls.get(c, 0) | 1 << t
    order = _search_order(g, cg)
    return _maps(g, h, order, [cls[cg[v]] for v in order], True)


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
    is discrete.  Level i (from the last up) tries each t of v_i's cell
    outside v_i's orbit under the generators so far, and keeps the first
    map the mapping search finds from pi_{i+1} to pi_i refined with t
    individualised instead.  Refinement is equivariant, so one exists
    exactly when an automorphism fixes v_0..v_{i-1} and sends v_i to t;
    the map is kept only after a check of both, so a hash collision can
    only lose a generator.  The generators of levels i..k-1 reach v_i's
    orbit under the stabiliser of v_0..v_{i-1} and generate the stabiliser
    of v_0..v_i, so they generate the former; at level 0 that is Aut(g).
    """
    path, fixed = [vertex_signature(g.nbr_mask)], []
    while (cell := _target_cell(path[-1])) is not None:
        fixed.append(path[-1].index(cell))
        path.append(_individualised(g, path[-1], fixed[-1]))
    gens: list[tuple[int, ...]] = []
    parent = list(range(g.n))  # the orbits of gens, as a union-find forest
    for i in reversed(range(len(fixed))):
        # gens so far fix v (they come from deeper levels), so its orbit
        # starts as {v} and grows only by this level's generators
        v = fixed[i]
        for t, c in enumerate(path[i]):
            if c != path[i][v] or _find(parent, t) == _find(parent, v):
                continue
            phi = next(_iso_search(g, g, path[i + 1], _individualised(g, path[i], t)), None)
            if phi is not None and phi[v] == t and all(phi[u] == u for u in fixed[:i]):
                gens.append(phi)
                _merge(parent, phi)
    return gens


def _find(parent: list[int], x: int) -> int:
    """The root of x's tree in the union-find forest parent (path halving)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merge(parent: list[int], perm: Sequence[int]) -> None:
    """Join the tree of each v with that of perm[v]."""
    for v, w in enumerate(perm):
        a, b = _find(parent, v), _find(parent, w)
        if a != b:
            parent[a] = b


def orbits(n: int, perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Orbits of 0..n-1 under the group generated by the given permutations."""
    parent = list(range(n))
    for p in perms:
        _merge(parent, p)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(_find(parent, v), []).append(v)
    return sorted(groups.values())


def orbit_index(n: int, perms: Sequence[tuple[int, ...]]) -> list[int]:
    """The index in orbits(n, perms) of each vertex's orbit."""
    row = {v: i for i, orbit in enumerate(orbits(n, perms)) for v in orbit}
    return [row[v] for v in range(n)]


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
    order = _search_order(pattern, [0] * pattern.n)
    cands = [mask_of(t for t in ((fixed[v],) if v in fixed else range(host.n))
                     if host.degree(t) >= pattern.degree(v)) for v in order]
    return next(_maps(pattern, host, order, cands, False), None)
