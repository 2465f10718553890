"""Dominating-set engines over bitmask vertex sets: verification, greedy
completion, minimal dominating set enumeration, exact domination number,
minimum-weight hitting sets and dominating (p:q)-colourings.

Vertex sets are Python-int bitmasks throughout.  Weights are exact: ints or
Fractions.  One minimum-weight hitting set, min_weight_hitting_set, prices
and checks both LPs: over closed neighbourhoods it is
min_weight_dominating_set (fdom), over edges a vertex cover, whose
complement is max_weight_independent_set (chi_f).  Two exact engines
give the same answer: a packing-bound branch-and-bound, and a frontier DP
(Telle & Proskurowski, SIAM J. Discrete Math. 1997, in hitting-set form).
Each family is prepared once and races them: a call that overflows the
branch-and-bound's node budget runs the DP under a state cap proportional
to the budget; if the DP finishes, its answer is the call's and the
family moves to the DP for good, else the budget doubles.  Both searches
keep their nodes on an explicit stack, so their depth is not bounded by
the interpreter's recursion limit.  domination_number keeps its own
unit-weight search.  One backtracking search, dominating_colouring, finds
dominating (p:q)-colourings; the domatic number is its q = 1 case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import inf
from typing import Iterator, Optional, Sequence

from .graphs import Graph, iter_mask, mask_to_list, scale_to_integers


class CapExceeded(RuntimeError):
    """An enumeration or search cap was exceeded; caps are explicit, never
    silently truncated."""


def is_dominating(g: Graph, s: int) -> bool:
    """True iff every vertex is in s or adjacent to s (s is a bitmask)."""
    return coverage(g, s) == (1 << g.n) - 1


def coverage(g: Graph, s: int) -> int:
    return _hit_by(g.closed_mask, s)


def _hit_by(hits: Sequence[int], s: int) -> int:
    """The mask of the sets met by the elements of s, where hits[u] is the
    mask of the sets holding u."""
    cov = 0
    for u in iter_mask(s):
        cov |= hits[u]
    return cov


def enumerate_minimal_dominating_sets(g: Graph, cap: int = 20) -> Iterator[int]:
    """All inclusion-minimal dominating sets, each exactly once.

    Recursive cover search over the closed-neighbourhood hypergraph: branch
    on the dominators u of the lowest uncovered vertex, banning those tried
    before u on u's branch (so no cover comes out twice); a final minimality
    filter removes the non-minimal covers the search can still produce.
    """
    if g.n > cap:
        raise CapExceeded(f"minimal dominating set enumeration capped at {cap} vertices")
    full = (1 << g.n) - 1

    def minimal(s: int) -> bool:
        for v in iter_mask(s):
            rest = s & ~(1 << v)
            if coverage(g, rest) == full:
                return False
        return True

    def search(chosen: int, covered: int, banned: int) -> Iterator[int]:
        if covered == full:
            if minimal(chosen):
                yield chosen
            return
        uncovered = full & ~covered
        v = (uncovered & -uncovered).bit_length() - 1
        cands = g.closed_mask[v] & ~banned
        newly_banned = banned
        for u in iter_mask(cands):
            yield from search(chosen | (1 << u), covered | g.closed_mask[u],
                              newly_banned)
            newly_banned |= 1 << u

    yield from search(0, 0, 0)


def complete_to_dominating(g: Graph, s: int) -> int:
    """s grown to a dominating set greedily: the lowest undominated vertex
    takes the dominator that covers most undominated vertices."""
    full = (1 << g.n) - 1
    covered = coverage(g, s)
    while covered != full:
        v = next(iter(mask_to_list(full & ~covered)))
        best = max(mask_to_list(g.closed_mask[v]),
                   key=lambda u: (g.closed_mask[u] & ~covered).bit_count())
        s |= 1 << best
        covered |= g.closed_mask[best]
    return s


def _doms(sets: Sequence[int], weights: Sequence[int | Fraction]) -> list:
    """doms[j], the elements of set j as (bit, weight) in (weight, index)
    order."""
    return [sorted(((1 << u, weights[u]) for u in iter_mask(s)),
                   key=lambda bw: (bw[1], bw[0])) for s in sets]


def _packing_bound(uncovered: int, excluded: int, near: list, doms: list
                   ) -> Optional[int | Fraction]:
    """Weight still needed to hit the `uncovered` sets without `excluded`
    elements, or None when such a set has no element left.

    Packs the lowest uncovered set and drops every set sharing an element
    with it, so the packed sets are disjoint and each needs its own
    element, charged at its cheapest weight.  Under any valid bound no node
    above an optimal (for domination_number, improving) leaf is pruned, so
    the bound changes the node count, not the result.
    """
    bound = 0
    while uncovered:
        j = (uncovered & -uncovered).bit_length() - 1
        for bit, w in doms[j]:
            if not excluded & bit:
                bound += w
                break
        else:
            return None
        uncovered &= ~near[j]
    return bound


def _most_constrained(uncovered: int, excluded: int, sets: Sequence[int]) -> int:
    """The branching set of both searches: the lowest uncovered set with
    the fewest elements outside `excluded`, or the first with at most
    one."""
    j_best, count_best = -1, inf
    while uncovered:
        low = uncovered & -uncovered
        j = low.bit_length() - 1
        k = (sets[j] & ~excluded).bit_count()
        if k < count_best:
            j_best, count_best = j, k
            if k <= 1:
                break
        uncovered ^= low
    return j_best


def domination_number(g: Graph) -> tuple[int, int]:
    """(gamma, witness bitmask): branch-and-bound, branching on the
    dominators of an uncovered vertex with the fewest candidates, most
    covering first, on an explicit stack."""
    full = (1 << g.n) - 1
    closed = g.closed_mask
    near, doms = _family(closed, closed).near, _doms(closed, [1] * g.n)
    best_set = complete_to_dominating(g, 0)
    best = best_set.bit_count()
    stack = [(0, 0, 0)]
    while stack:
        chosen, covered, excluded = stack.pop()
        size = chosen.bit_count()
        if covered == full:
            if size < best:
                best, best_set = size, chosen
            continue
        uncovered = full & ~covered
        lb = _packing_bound(uncovered, excluded, near, doms)
        if lb is None or size + lb >= best:
            continue
        v = _most_constrained(uncovered, excluded, closed)
        # a child bans the candidates before it; pushed last-first, so
        # the first candidate pops first
        banned = excluded | closed[v]
        for u in reversed(sorted(iter_mask(closed[v] & ~excluded),
                                 key=lambda x: -(closed[x] & ~covered).bit_count())):
            banned ^= 1 << u
            stack.append((chosen | 1 << u, covered | closed[u], banned))
    return best, best_set


#: the branch-and-bound's node budget on a family's first call; it doubles
#: whenever a call overflows it and the DP probe fails
BB_NODES = 64
#: a family moves to the DP once a call overflows the node budget b and the
#: DP's state count, summed over its order, is at most DP_STATES_PER_NODE * b
DP_STATES_PER_NODE = 16
#: the largest probe cap, which bounds a probe's memory (a layer holds at
#: most twice the cap); G6's closed-form check needs 452135 states
DP_MAX_STATES = 1 << 19


class _Family:
    """A hitting-set family prepared once: the branch-and-bound's `near`
    table (near[j], the sets sharing an element with set j), the DP's
    element order and closing masks (built at the DP's first call), and
    the engine: a node budget, or None once the DP has won the race."""

    def __init__(self, sets: tuple[int, ...], hits: tuple[int, ...]) -> None:
        if 0 in sets:
            raise ValueError("an empty set cannot be hit")
        if any(s >> len(hits) for s in sets):
            raise ValueError(f"a set names an element outside 0..{len(hits) - 1}")
        self.sets, self.hits = sets, hits
        self.near = [_hit_by(hits, s) for s in sets]
        self.budget: Optional[int] = BB_NODES
        self.order: list[tuple[int, int]] = []

    def solve(self, weights: Sequence[int | Fraction]) -> tuple[int, int | Fraction]:
        """The answer of min_weight_hitting_set, by the race's engine: a
        call past the node budget b runs the DP under the cap
        DP_STATES_PER_NODE * b, and the family stays on the DP if it fits."""
        free = sum(1 << u for u, w in enumerate(weights) if w == 0)
        if self.budget is not None:
            doms = _doms(self.sets, weights)
        while self.budget is not None:
            found = _branch_and_bound(self, weights, doms, free, self.budget)
            if found is not None:
                return found
            cap = DP_STATES_PER_NODE * self.budget
            if cap <= DP_MAX_STATES:
                found = _frontier_dp(self, weights, free, cap)
                if found is not None:
                    self.budget = None
                    return found
            self.budget *= 2
        return _frontier_dp(self, weights, free)


#: the prepared family of (sets, hits), kept while it is among the last
#: few used: pricing and the dual checks of one LP share theirs
_family = lru_cache(maxsize=8)(_Family)


def _frontier_order(sets: Sequence[int], hits: Sequence[int]) -> list[tuple[int, int]]:
    """The elements as (u, the mask of the sets whose last element is u).

    A set is open while it has elements on both sides, and the frontier is
    the processed elements in an open set.  Each next element leaves the
    smallest frontier, then closes the most sets, then leaves the fewest
    open sets; ties go to the lowest index.
    """
    rem = [s.bit_count() for s in sets]
    last = sum((k == 1) << j for j, k in enumerate(rem))  # one element left
    open_ = front = 0

    def step(x: int) -> tuple:
        close = hits[x] & last
        op = (open_ | hits[x]) & ~close
        fr = front | 1 << x
        for v in iter_mask(fr & (_hit_by(sets, close) | 1 << x)):
            if not hits[v] & op:
                fr ^= 1 << v
        return (fr.bit_count(), -close.bit_count(), op.bit_count(), x), close, op, fr

    left, order = set(range(len(hits))), []
    while left:
        key, close, open_, front = min(map(step, left))
        u = key[-1]
        left.discard(u)
        order.append((u, close))
        for j in iter_mask(hits[u]):
            rem[j] -= 1
            last |= (rem[j] == 1) << j
    return order


def _branch_and_bound(fam: _Family, weights: Sequence[int | Fraction], doms: list,
                      free: int, budget: int | float
                      ) -> Optional[tuple[int, int | Fraction]]:
    """The packing-bound search, branching on a most constrained set, on a
    stack of (chosen, covered, excluded, weight) nodes; None past `budget`
    nodes."""
    sets, hits, near = fam.sets, fam.hits, fam.near
    full = (1 << len(sets)) - 1
    best_set = (1 << len(weights)) - 1
    best_w = sum(weights)
    stack = [(free, _hit_by(hits, free), free, 0)]
    # bound to locals: the loop runs once per node
    push, pop, bound, branch = stack.append, stack.pop, _packing_bound, _most_constrained
    nodes = 0
    while stack:
        chosen, covered, excluded, w = pop()
        nodes += 1
        if nodes > budget:
            return None
        if covered == full:
            if w < best_w or (w == best_w and chosen < best_set):
                best_set, best_w = chosen, w
            continue
        uncovered = full & ~covered
        lb = bound(uncovered, excluded, near, doms)
        if lb is None or w + lb > best_w:
            continue
        j = branch(uncovered, excluded, sets)
        # the candidates in (weight, index) order, each child banning those
        # before it; pushed last-first, so the first candidate pops first
        banned = excluded | sets[j]
        for bit, wu in reversed(doms[j]):
            if not excluded & bit:
                banned ^= bit
                push((chosen | bit, covered | hits[bit.bit_length() - 1], banned, w + wu))
    return best_set, best_w


def _frontier_dp(fam: _Family, weights: Sequence[int | Fraction], free: int,
                 cap: int | float = inf) -> Optional[tuple[int, int | Fraction]]:
    """The DP over the frontier order; None once its layers, summed over
    the order, pass `cap` states (no layer grows past twice the cap).  A
    state is the mask of the open sets already hit, and keeps the least
    (weight, chosen mask) reaching it, packed as weight << n | mask on the
    integer-scaled weights; a set is dropped at its last element, and a
    state that left it unhit dies.  Extensions of a state are disjoint from
    its chosen mask, so the least pair composes: the result is the
    branch-and-bound's."""
    if not fam.order:
        fam.order = _frontier_order(fam.sets, fam.hits)
    n, ints = len(weights), scale_to_integers(weights)[0]
    states, total = {0: 0}, 1
    for u, close in fam.order:
        hu, bit = fam.hits[u], 1 << u
        if free & bit:  # forced in at no weight
            nxt, inc = {}, bit
        else:
            nxt, inc = {hm ^ close: v for hm, v in states.items()
                        if hm & close == close}, ints[u] << n | bit
        for hm, v in states.items():
            k = hm | hu
            if k & close == close:
                k ^= close
                v += inc
                old = nxt.get(k)
                if old is None or v < old:
                    nxt[k] = v
        states = nxt
        total += len(states)
        if total > cap:
            return None
    s = states[0] & (1 << n) - 1
    return s, sum(weights[u] for u in iter_mask(s & ~free))


def min_weight_hitting_set(sets: Sequence[int], hits: Sequence[int],
                           weights: Sequence[int | Fraction]
                           ) -> tuple[int, int | Fraction]:
    """An element set meeting every mask in `sets`, of minimum total weight.

    Element u has weight weights[u] >= 0, and hits[u] is the mask of the
    indices of the sets holding u; an empty set, a set naming an element
    past len(hits), a length mismatch or a negative weight raises
    ValueError.  The result is the least (weight, bitmask) over the
    hitting sets holding every weight-0 element, whichever engine finds
    it; it need not be inclusion-minimal.
    """
    if len(weights) != len(hits):
        raise ValueError(f"{len(weights)} weights for {len(hits)} elements")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    return _family(tuple(sets), tuple(hits)).solve(weights)


def min_weight_dominating_set(g: Graph, weights: Sequence[int | Fraction]
                              ) -> tuple[int, int | Fraction]:
    """A dominating set of minimum total weight: the hitting set of the
    closed neighbourhoods, which are their own transpose (u is in N[v]
    iff v is in N[u]).  Ties go to the smallest bitmask."""
    return min_weight_hitting_set(g.closed_mask, g.closed_mask, weights)


def max_weight_independent_set(g: Graph, weights: Sequence[int | Fraction]
                               ) -> tuple[int, int | Fraction]:
    """A maximum-weight independent set: the complement of a minimum-weight
    vertex cover, the hitting set of the edges, under the weights clamped
    at 0.  Vertices of weight <= 0 are never in it."""
    edges = g.edges()
    hits = [0] * g.n
    for i, (u, v) in enumerate(edges):
        hits[u] |= 1 << i
        hits[v] |= 1 << i
    clamped = [max(w, 0) for w in weights]
    cover, w = min_weight_hitting_set([1 << u | 1 << v for u, v in edges], hits, clamped)
    return ((1 << g.n) - 1) & ~cover, sum(clamped) - w


def domatic_number(g: Graph) -> tuple[int, list[int]]:
    """(dom(G), partition as list of colour bitmasks): the largest k <= the
    minimum degree + 1 with a dominating (k:1)-colouring, any graph size;
    CapExceeded when one k's search passes COLOURING_NODE_CAP nodes."""
    if g.n == 0:
        raise ValueError("empty graph")
    for k in range(g.min_degree() + 1, 1, -1):
        part = domatic_partition(g, k)
        if part is not None:
            return k, part
    return 1, [(1 << g.n) - 1]


def domatic_partition(g: Graph, k: int, cap: Optional[int] = None) -> Optional[list[int]]:
    """A partition of V into k dominating sets, or None; the search is
    dominating_colouring(g, k, 1, cap)."""
    colour = dominating_colouring(g, k, 1, cap)
    if colour is None:
        return None
    part = [0] * k
    for v, c in enumerate(colour):
        part[c.bit_length() - 1] |= 1 << v
    if not all(is_dominating(g, p) for p in part):
        raise RuntimeError("domatic partition has a non-dominating class")
    return part


#: search nodes one dominating_colouring call may visit
COLOURING_NODE_CAP = 20_000_000


def dominating_colouring(g: Graph, p: int, q: int,
                         cap: Optional[int] = None) -> Optional[list[int]]:
    """A dominating (p:q)-colouring: per vertex a p-bit colour mask with q
    bits set, such that every closed neighbourhood spans all p colours; or
    None when there is none.

    Backtracking in BFS order.  Each closed neighbourhood keeps the colours
    it has seen and its count of unassigned vertices; a branch is pruned
    once a neighbourhood misses more colours than q per unassigned vertex,
    or the unassigned vertices can no longer open the unused colours.
    Colours are symmetric, so a vertex opens new colours only as the lowest
    unused ones.  Raises CapExceeded past cap nodes (COLOURING_NODE_CAP,
    read at call time, when cap is None).
    """
    if not 1 <= q <= p:
        raise ValueError("needs 1 <= q <= p")
    n = g.n
    # each colour's class dominates, so it holds at least ceil(n/(D+1))
    # vertices (D the maximum degree), and the q*n colour slots must fill
    # p such classes
    if q * n < p * -(-n // (g.max_degree() + 1)):
        return None
    if cap is None:
        cap = COLOURING_NODE_CAP
    order = g.bfs_order()
    closed = [mask_to_list(m) for m in g.closed_mask]
    palette = (1 << p) - 1
    # choices[used]: (mask, used after) for a vertex when colours
    # 0..used-1 are open: j new colours used..used+j-1 and q-j open ones
    choices = [[(((1 << j) - 1) << used | sum(1 << c for c in old), used + j)
                for j in range(min(q, p - used) + 1)
                for old in combinations(range(used), q - j)]
               for used in range(p + 1)]
    colour = [0] * n
    seen = [0] * n
    unassigned = [len(c) for c in closed]
    # the search's stack: level i holds the colours open on reaching it,
    # its next choice, and the (vertex, seen) pairs its last choice changed
    opened_at, tried, undos = [0] * (n + 1), [0] * (n + 1), [[] for _ in range(n + 1)]
    nodes = i = 0
    while 0 <= i < n:
        undo = undos[i]
        while undo:
            w, s = undo.pop()
            seen[w] = s
            unassigned[w] += 1
        options = choices[opened_at[i]]
        if tried[i] == len(options):
            i -= 1
            continue
        c, opened = options[tried[i]]
        tried[i] += 1
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"dominating-colouring search passed {cap} nodes")
        v = order[i]
        colour[v] = c
        for w in closed[v]:
            undo.append((w, seen[w]))
            seen[w] |= c
            unassigned[w] -= 1
            if (palette & ~seen[w]).bit_count() > q * unassigned[w]:
                break
        else:
            # the last assignment in each closed neighbourhood left it
            # missing no colour; below, q colours per vertex must open the rest
            if i + 1 == n or opened + q * (n - i - 1) >= p:
                i += 1
                opened_at[i], tried[i] = opened, 0
    return colour if i == n else None

