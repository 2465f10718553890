"""The constructive 5/2 machinery and the planar large-girth pipeline.

Both reduce the graph, recurse, then extend the distribution back at a
rate r.  The steps they share are written once and take r: the edge step
(K2), the cycle step, the cut step (glue the two sides of a cut vertex,
each solved by the caller's rule) and the peel step (remove a suspended
path, solve the rest, attach the path back over its endpoints).

construct52 builds, for any connected graph outside the exceptional
family with at least 2 vertices, an explicit random dominating set with
per-vertex membership exactly 2/5 and domination probability 1 at every
vertex of degree >= 2 (4/5 at degree-1 vertices).  The recursion applies
the first applicable rewrite below, each strictly decreasing the edge
count, so it terminates:

  K2 / cycle             -> the edge or cycle step at r = 2/5
  cut vertex             -> the cut step (exceptional sides: quasi tables)
  adjacent 3+-vertices   -> delete the edge, or a catalog table if the
                            residue is exceptional
  twin 2-paths (a C4)    -> delete one middle, mirror it onto its twin
  twin suspended 3-paths -> delete one path, mirror onto its twin
  3-path not in a hammock-> contract it, then explicit mass surgery
  suspended path, len>=4 -> the peel step
  none of the above      -> the hammock base case (independent coins)

The last five rules read one snapshot of the suspended paths.  Every table
is found by one spanning-subgraph embedding, which pins a cut-vertex
table's marked vertex to the cut vertex.

planar_girth_construct is the edge, cycle, cut and peel steps at
r = k/(3k-1), peeling a longest suspended path (length >= 3k-2) from each
non-cycle block; at k = 2 both the rate and the peel rule are construct52's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable, Optional

from .badfamily import bad_family_check
from .distributions import (DistributionError, DominatingDistribution,
                            colouring_to_distribution, complete_to_r,
                            constant_demand, cycle_distribution, relabel,
                            standard_demand, verify_f_dominating)
from .domset import CapExceeded, coverage, is_dominating
from .figures import EDGE_CASE_KEYS, QUASI_BY_MEMBER, exceptional_colouring
from .gluing import attach_suspended_path, glue_at_cutvertex
from .graphs import Graph, iter_mask, mask_of, mask_to_list
from .iso import spanning_subgraph_embedding
from .structure import (SuspendedPath, cut_vertices,
                        find_long_suspended_path, hammocks,
                        remove_suspended_path, suspended_paths, twin_pairs)

R25 = Fraction(2, 5)
#: base_case_hammock enumerates 2^(hammock hubs) coin outcomes
HAMMOCK_COIN_CAP = 16
#: intersecting_family lists its whole ground set
FAMILY_GROUND_CAP = 2_000_000


class BadFamilyInput(ValueError):
    def __init__(self, member: int):
        super().__init__(f"input is exceptional-family member {member}")
        self.member = member


class ConstructionError(RuntimeError):
    pass


def construct52(g: Graph) -> DominatingDistribution:
    """An f-dominating 2/5-distribution for a connected non-exceptional
    graph on >= 2 vertices (demand 4/5 at degree-1 vertices, 1 elsewhere).
    The result is verified against that contract before being returned."""
    if g.n < 2:
        raise ValueError("construction needs at least 2 vertices")
    if not g.is_connected():
        raise ValueError("construction needs a connected graph")
    member = bad_family_check(g)
    if member is not None:
        raise BadFamilyInput(member)
    try:
        d = _construct(g)
    except DistributionError as e:
        raise ConstructionError(f"recursion failed: {e}") from e
    ok, why = verify_f_dominating(g, d, standard_demand(g), R25)
    if not ok:
        raise ConstructionError(f"postcondition violated: {why}")
    return d


def _construct(g: Graph) -> DominatingDistribution:
    """The first rule that applies; every caller has checked that g is not
    exceptional."""
    if g.n == 2:
        return _edge_case(R25)
    degs = g.degrees()
    if all(d == 2 for d in degs):
        return _cycle_case(g, R25)

    cuts = cut_vertices(g)
    if cuts:
        return _cut_vertex_case(g, cuts[0], R25, _side_distribution)

    adj3 = [(u, v) for u, v in g.edges() if degs[u] >= 3 and degs[v] >= 3]
    if adj3:
        return _adjacent_hubs_case(g, adj3)

    # one snapshot of the suspended paths serves the remaining rules
    paths = suspended_paths(g)
    twins = twin_pairs(paths)
    twins2 = [(p, q) for p, q in twins if p.length == 2]
    if twins2:
        # a C4: the pair with the smallest endpoints, its two smallest
        # middles; an exceptional residue means K_{2,4} or theta(2,2,5)
        p, q = min(twins2, key=lambda pq: pq[0].endpoints)
        return _twin_case(g, p, q, ["fig6a-K24", "fig6b-theta225"])
    twins3 = [(p, q) for p, q in twins if p.length == 3]
    if twins3:
        return _twin_case(g, *twins3[0], ["fig6c-theta334"])

    # the hubs are not adjacent, so a 3-path's endpoints share a neighbour
    # exactly when a 2-path joins them: when the 3-path is in a hammock
    in_hammock = {h.three_path for h in hammocks(g, paths)}
    lonely = [p for p in paths if p.length == 3 and p not in in_hammock]
    if lonely:
        return _contract_3path_case(g, lonely[0])

    long_paths = [p for p in paths if p.length >= 4]
    if long_paths:
        return _long_path_case(g, long_paths)

    return base_case_hammock(g, hammock_base_annotations(g, paths))


# -- the shared rate-r steps ----------------------------------------------


def _edge_case(r: Fraction) -> DominatingDistribution:
    """K2: each endpoint present with probability r, never both."""
    a, den = r.numerator, r.denominator
    return DominatingDistribution.from_numerators(den, [(0b01, a), (0b10, a), (0, den - 2 * a)])


def _cycle_case(g: Graph, r: Fraction) -> DominatingDistribution:
    order = [0, mask_to_list(g.nbr_mask[0])[0]]
    while len(order) < g.n:  # step to the neighbour we did not come from
        order.append((g.nbr_mask[order[-1]] & ~(1 << order[-2])).bit_length() - 1)
    return complete_to_r(relabel(cycle_distribution(g.n), order), r, g.n)


def _cut_vertex_case(g: Graph, v0: int, r: Fraction,
                     side: Callable[[Graph, int], DominatingDistribution]
                     ) -> DominatingDistribution:
    """Split at v0 into the component of g - v0 holding the lowest other
    vertex, plus v0, and the rest; glue side(part, local id of v0) of the
    two parts at v0."""
    comp = level = 1 << (1 if v0 == 0 else 0)
    while level:
        level = coverage(g, level) & ~comp & ~(1 << v0)
        comp |= level
    g0, map0 = g.induced(iter_mask(comp | 1 << v0))
    g1, map1 = g.induced(iter_mask((1 << g.n) - 1 & ~comp))
    d0 = side(g0, map0.index(v0))
    d1 = side(g1, map1.index(v0))
    return glue_at_cutvertex(d0, g0, map0, d1, g1, map1, v0, r)


def _peel_case(g: Graph, p: SuspendedPath, reduced: Graph, keep: list[int],
               r: Fraction, solve: Callable[[Graph], DominatingDistribution]
               ) -> DominatingDistribution:
    """Solve the graph left by removing the suspended path p (reduced, with
    old-id map keep), then attach p back over its endpoint pair at rate r."""
    d = relabel(solve(reduced), keep)
    return attach_suspended_path(d, p, r, g.n)


def _side_distribution(g: Graph, v0: int) -> DominatingDistribution:
    """A 2/5-distribution for one side of a cut vertex: the standard
    construction when the side is not exceptional, else a marked-vertex
    table with its marked vertex at v0 (domination 4/5 there, or 3/5 on
    the 4-cycle)."""
    member = bad_family_check(g)
    if member is None:
        return _construct(g)
    return _catalog_case(g, QUASI_BY_MEMBER[member], v0)


# -- edge deletion between adjacent hubs --------------------------------


def _adjacent_hubs_case(g: Graph, adj3: list[tuple[int, int]]) -> DominatingDistribution:
    for u, v in adj3:
        reduced = g.remove_edge(u, v)
        if bad_family_check(reduced) is None:
            # extra edges only help domination
            return _construct(reduced)
    return _catalog_case(g, EDGE_CASE_KEYS)


def _catalog_case(g: Graph, keys: list[str],
                  v0: Optional[int] = None) -> DominatingDistribution:
    """The first catalog table among keys whose graph embeds as a spanning
    subgraph of g (extra edges only help domination), with the table's
    marked vertex sent to v0 when v0 is given."""
    for key in keys:
        entry = exceptional_colouring(key)
        fixed = None if v0 is None else {entry.quasi_vertex: v0}
        sigma = spanning_subgraph_embedding(entry.graph, g, fixed)
        if sigma is not None:
            return relabel(colouring_to_distribution(entry.phi), list(sigma))
    raise ConstructionError(f"no catalog table among {keys} embeds into this graph")


# -- twin suspended paths (2-paths: a C4; 3-paths) ----------------------


def _twin_case(g: Graph, p: SuspendedPath, q: SuspendedPath,
               keys: list[str]) -> DominatingDistribution:
    """Delete p's internal vertices, solve the rest and mirror each onto its
    counterpart on the twin q; a catalog table when the rest is
    exceptional.  Both paths are canonical between the same endpoints, so
    they run in the same direction."""
    copies = dict(zip(p.internal, q.internal))
    reduced, keep = g.remove_vertices(list(copies))
    if bad_family_check(reduced) is not None:
        return _catalog_case(g, keys)
    return _mirror(relabel(_construct(reduced), keep), copies)


def _mirror(d: DominatingDistribution, copies: dict[int, int]) -> DominatingDistribution:
    """Add each new vertex exactly to the atoms containing its twin."""
    pairs = []
    for s, a in d.atoms:
        t = s
        for new, old in copies.items():
            if (s >> old) & 1:
                t |= 1 << new
        pairs.append((t, a))
    return DominatingDistribution.from_numerators(d.den, pairs)


# -- suspended 3-path outside any hammock: contraction -------------------


def _contract_3path_case(g: Graph, p: SuspendedPath) -> DominatingDistribution:
    u, x, y, v = p.vertices
    # contract the path into u: u inherits v's other neighbours
    edges = [(a, b) for a, b in g.edges()
             if a not in (x, y, v) and b not in (x, y, v)]
    edges += [(u, t) for t in iter_mask(g.nbr_mask[v]) if t != y]
    contracted = Graph(g.n, edges)
    reduced, keep = contracted.remove_vertices([x, y, v])
    if bad_family_check(reduced) is not None:
        # the residue has a degree-4 vertex; the host carries theta(3,4,4)
        return _catalog_case(g, ["fig6e-theta344"])
    # w in D' means both u and v in the lifted base set
    d0 = _mirror(relabel(_construct(reduced), keep), {v: u})

    nu, nv = g.closed_mask[u], g.closed_mask[v]
    u_bad = sum(a for s, a in d0.atoms if not (s & nu))
    v_bad = sum(a for s, a in d0.atoms if not (s & nv))

    # numerators over 2 * d0.den, so an atom's halves stay integers
    out: list[tuple[int, int]] = []
    for s, a in d0.atoms:
        u_dom, v_dom = bool(s & nu), bool(s & nv)
        u_in, v_in = bool((s >> u) & 1), bool((s >> v) & 1)
        if not u_dom:
            out.append((s | (1 << x), 2 * a))
        elif not v_dom:
            out.append((s | (1 << y), 2 * a))
        elif not u_in and not v_in:
            if 5 * v_bad >= d0.den:
                out.append((s | (1 << x), 2 * a))
            elif 5 * u_bad >= d0.den:
                out.append((s | (1 << y), 2 * a))
            else:
                out.append((s | (1 << x), a))
                out.append((s | (1 << y), a))
        else:
            out.append((s, 2 * a))
    return complete_to_r(DominatingDistribution.from_numerators(2 * d0.den, out), R25, g.n)


# -- long suspended paths ------------------------------------------------


def _long_path_case(g: Graph, long_paths: list[SuspendedPath]) -> DominatingDistribution:
    for p in long_paths:
        reduced, keep = remove_suspended_path(g, p)
        if bad_family_check(reduced) is None:
            return _peel_case(g, p, reduced, keep, R25, _construct)
    # every removal lands on a 7-cycle: the host is its 5-path extension
    return _catalog_case(g, ["fig6d-C7-plus-5path"])


# -- the hammock base case (independent coins) ---------------------------


@dataclass
class HammockAnnotations:
    a0: list[int]
    b0: list[int]
    b1: list[int]
    three_paths: list[SuspendedPath]


def hammock_base_annotations(g: Graph,
                             paths: Optional[list[SuspendedPath]] = None) -> HammockAnnotations:
    """Recover the expansion classes: hubs are the 3+-vertices, 2-path
    middles form A0, hubs meeting a 3-path B1, the other hubs B0.  Validates
    the base-case shape (paths of length 2 or 3 only, every 3-path inside a
    hammock, non-adjacent hubs)."""
    if paths is None:
        paths = suspended_paths(g)
    degs = g.degrees()
    hubs = [v for v in range(g.n) if degs[v] >= 3]
    if not hubs:
        raise ConstructionError("base case needs a 3+-vertex")
    on_paths: set[int] = set()
    a0, b1 = [], set()
    hams = hammocks(g, paths)
    hammock_3paths = {h.three_path.vertices for h in hams}
    for p in paths:
        on_paths |= set(p.internal)
        if p.length == 2:
            a0.append(p.vertices[1])
        elif p.length == 3:
            if p.vertices not in hammock_3paths:
                raise ConstructionError("a 3-path without its hammock partner")
            b1 |= set(p.endpoints)
        else:
            raise ConstructionError(f"unexpected path length {p.length} in base case")
    if set(range(g.n)) - set(hubs) != on_paths:
        raise ConstructionError("a degree-2 vertex lies on no suspended path")
    for u, v in g.edges():
        if degs[u] >= 3 and degs[v] >= 3:
            raise ConstructionError("adjacent hubs in base case")
    return HammockAnnotations(sorted(a0), sorted(set(hubs) - b1), sorted(b1),
                              [p for p in paths if p.length == 3])


def base_case_hammock(g: Graph, ann: HammockAnnotations) -> DominatingDistribution:
    """The explicit 2/5-distribution for expanded multigraphs: independent
    2/5-coins on the plain hubs, a shared 1/5-skip coin plus fair coins on
    the hammock hubs, then the deterministic and uniform fill-in rules for
    the subdivision vertices.  All coin outcomes are enumerated with exact
    probabilities; memberships end at most 2/5 and are completed to
    exactly 2/5."""
    if len(ann.b0) + len(ann.b1) > HAMMOCK_COIN_CAP:
        raise CapExceeded(f"hammock base coins capped at {HAMMOCK_COIN_CAP} hubs")

    def tosses(coins) -> list[tuple[int, Fraction]]:
        # (mask, probability) per outcome of independent coins, each coin a
        # list of (mask, probability) sides
        return [(sum(m for m, _ in o), prod(p for _, p in o)) for o in product(*coins)]

    two5, three5, half = Fraction(2, 5), Fraction(3, 5), Fraction(1, 2)
    b0_subsets = tosses([(1 << b, two5), (0, three5)] for b in ann.b0)
    b1_branches = [(0, Fraction(1, 5))] + tosses(
        [[(0, Fraction(4, 5))]] + [[(1 << b, half), (0, half)] for b in ann.b1])

    outcomes: list[tuple[int, Fraction]] = []
    for b0set, p0 in b0_subsets:
        for b1set, p1 in b1_branches:
            hubset = b0set | b1set
            pr = p0 * p1
            # deterministic fill of the 2-path middles
            a0set = 0
            for v in ann.a0:
                if not (g.nbr_mask[v] & hubset):
                    a0set |= 1 << v
            # uncovered plain hubs pick a uniformly random 2-path middle
            choice_sets: list[list[int]] = []
            for b in ann.b0:
                if not ((b0set >> b) & 1) and not (g.nbr_mask[b] & a0set):
                    choice_sets.append(mask_to_list(g.nbr_mask[b]))
            # 3-path rules
            base_mask = hubset | a0set
            for p in ann.three_paths:
                u, a, b, x = p.vertices
                u_in, x_in = bool((b1set >> u) & 1), bool((b1set >> x) & 1)
                if not u_in and x_in:
                    base_mask |= 1 << a
                if not x_in and u_in:
                    base_mask |= 1 << b
                if not u_in and not x_in:
                    choice_sets.append([a, b])
            share = pr / prod(map(len, choice_sets))
            outcomes += [(base_mask | mask_of(pick), share) for pick in product(*choice_sets)]

    d = DominatingDistribution.from_pairs(outcomes)
    for s, _ in d.atoms:
        if not is_dominating(g, s):
            raise ConstructionError("a base-case outcome fails to dominate")
    return complete_to_r(d, R25, g.n)


# -- the planar large-girth pipeline --------------------------------------


def planar_girth_construct(g: Graph, k: int) -> DominatingDistribution:
    """A dominating r-distribution with r = k/(3k-1) for graphs of minimum
    degree 2 and girth >= 15k-14 (planarity is assumed, not tested: it is
    only needed to guarantee that the long suspended paths exist).

    Verified to have membership exactly r and domination probability 1
    everywhere before being returned.
    """
    if k < 2:
        raise ValueError("pipeline needs k >= 2")
    if g.min_degree() < 2:
        raise ValueError("pipeline needs minimum degree 2")
    girth = g.girth()
    if girth is None or girth < 15 * k - 14:
        raise ValueError(f"girth {girth} below the required {15 * k - 14}")
    if not g.is_connected():
        raise ValueError("pipeline needs a connected graph")
    r = Fraction(k, 3 * k - 1)
    try:
        d = _planar_recurse(g, k, r)
    except DistributionError as e:
        raise ConstructionError(f"planar recursion failed: {e}") from e
    ok, why = verify_f_dominating(g, d, constant_demand(Fraction(1)), r)
    if not ok:
        raise ConstructionError(f"planar pipeline postcondition violated: {why}")
    return d


def _planar_recurse(g: Graph, k: int, r: Fraction) -> DominatingDistribution:
    if g.n == 2:
        return _edge_case(r)
    if all(d == 2 for d in g.degrees()):
        return _cycle_case(g, r)
    cuts = cut_vertices(g)
    if cuts:
        return _cut_vertex_case(g, cuts[0], r, lambda h, _: _planar_recurse(h, k, r))
    p = find_long_suspended_path(g, 3 * k - 3)
    if p is None:
        raise ConstructionError(
            "no suspended path of length >= 3k-2 in a non-cycle block")
    reduced, keep = remove_suspended_path(g, p)
    return _peel_case(g, p, reduced, keep, r, lambda h: _planar_recurse(h, k, r))


# -- the intersecting set family -----------------------------------------


@dataclass
class IntersectingFamilyReport:
    ground_size: int
    sets: dict[str, frozenset]
    set_size: int
    a_pair_intersection: Optional[int]  # None when no such pair was checked
    b_cross_intersection: Optional[int]


def intersecting_family(a_size: int, b_size: int) -> IntersectingFamilyReport:
    """The explicit set family over the product space [2]^A x [5]^(B+{beta}):
    every set has 2t/5 of the t ground elements, two A-sets share t/5, and
    any pair involving a B-set shares 4t/25.  All three identities are
    verified exactly before returning."""
    if a_size < 0 or b_size < 0:
        raise ValueError("set family sizes must be non-negative")
    t = (2 ** a_size) * (5 ** (b_size + 1))
    if t > FAMILY_GROUND_CAP:
        raise CapExceeded(f"ground set of size {t} exceeds cap {FAMILY_GROUND_CAP}")
    a_names = [f"a{i}" for i in range(a_size)]
    b_names = [f"b{i}" for i in range(b_size)]
    omega = list(product(*([range(1, 3)] * a_size + [range(1, 6)] * (b_size + 1))))
    sets: dict[str, frozenset] = {}
    for i, a in enumerate(a_names):
        sets[a] = frozenset(w for w in omega if w[i] == 1 and w[-1] <= 4)
    for j, b in enumerate(b_names):
        sets[b] = frozenset(w for w in omega if w[a_size + j] <= 2)

    expect_size, expect_aa = 2 * t // 5, t // 5  # t is a multiple of 5
    expect_bx = Fraction(4 * t, 25)
    aa = bx = None
    for name, s in sets.items():
        if len(s) != expect_size:
            raise ConstructionError(f"|phi({name})| = {len(s)} != {expect_size}")
    for i in range(a_size):
        for j in range(i + 1, a_size):
            aa = len(sets[a_names[i]] & sets[a_names[j]])
            if aa != expect_aa:
                raise ConstructionError("A-pair intersection mismatch")
    for b in b_names:
        for other in a_names + b_names:
            if other == b:
                continue
            bx = len(sets[b] & sets[other])
            if bx != expect_bx:
                raise ConstructionError("B-cross intersection mismatch")
    return IntersectingFamilyReport(t, sets, expect_size, aa, bx)
