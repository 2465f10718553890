"""Exhaustive enumeration of small graphs up to isomorphism.

Vertex augmentation with the pruning half of McKay's canonical
augmentation (J. Algorithms 1998).  Graphs on n vertices come from the
graphs on n-1 vertices (the bases) by joining a new vertex to a subset S
of a base B:

- one S per orbit of Aut(B) on subsets (the smallest mask of each orbit),
  since subsets in one orbit give isomorphic graphs;
- a canonical-deletion filter: keep the candidate only if the new vertex
  maximises (degree, `vertex_signature`) among its vertices, checked on
  the degrees before any graph is built;
- the survivors are bucketed by a hash of (edges, sorted signatures),
  and an explicit isomorphism test inside the bucket decides the rare
  ties (a hash collision only merges two buckets).

The filter loses no graph: every G has a vertex c where (degree,
signature) is maximal, because the pair is an isomorphism invariant with
a total order.  By induction G - c is isomorphic to some base B, the
orbit representative of the image of N(c) in B is tried, and it yields a
graph isomorphic to G whose new vertex takes c's place, so it has the
maximal pair too and passes.  Signature collisions only add ties, and
the isomorphism test makes the final decision.  Pure Python: the 12346
graphs on 8 vertices take about 2 s and the 274668 on 9 about 35 s and
260 MB (Python 3.11, one core); n = 10 is out of reach.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, iter_mask
from .iso import automorphism_generators, is_isomorphic, orbits, vertex_signature


def _subset_orbit_representatives(g: Graph) -> list[int]:
    """The smallest vertex mask of each orbit of Aut(g) on vertex subsets."""
    size = 1 << g.n
    images = []
    for p in automorphism_generators(g):
        img = [0] * size
        for s in range(1, size):
            low = s & -s
            img[s] = img[s ^ low] | (1 << p[low.bit_length() - 1])
        images.append(img)
    return [orbit[0] for orbit in orbits(size, images)]


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (Graph(1, []),)
    k = n - 1  # the new vertex
    out: list[Graph] = []
    buckets: dict[int, list[Graph]] = {}
    for base in all_graphs(k):
        top = base.max_degree()
        top_mask = sum(1 << v for v in range(k) if base.degree(v) == top)
        base_edges = base.edges()
        for s in _subset_orbit_representatives(base):
            d = s.bit_count()
            if d < top or (d == top and s & top_mask):
                continue  # some base vertex would outrank the new one in degree
            nbr = [m | (s >> v & 1) << k for v, m in enumerate(base.nbr_mask)] + [s]
            sig = vertex_signature(nbr)
            if max((m.bit_count(), c) for m, c in zip(nbr, sig)) != (d, sig[k]):
                continue
            cand = Graph(n, base_edges + tuple((v, k) for v in iter_mask(s)))
            bucket = buckets.setdefault(hash((cand.m, *sorted(sig))), [])
            if not any(is_isomorphic(cand, other) for other in bucket):
                bucket.append(cand)
                out.append(cand)
    return tuple(out)


def connected_graphs(n: int, min_degree: int = 0) -> list[Graph]:
    return [g for g in all_graphs(n)
            if g.is_connected() and g.min_degree() >= min_degree]
