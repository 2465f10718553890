"""Chromatic machinery and the hardness-reduction checks.

fractional_chromatic first tries a greedy clique K and the greedy
colouring: with |K| colours, chi_f = |K|, and the dual (weight 1 on K) is
checked by K's edge tests.  Otherwise it solves the covering LP over
independent sets: over every maximal one up to CHI_F_ENUM_CAP vertices,
and beyond that (or on at most n/2 orbits of Aut(G)) by the
column-generation driver fdom.colgen, which also serves the fdom packing
LP (smoothed duals, and a bracket when it runs out of rounds), one master
row per orbit, each class standing for its set orbit, priced by
domset.max_weight_independent_set.  Results are fdom's LPResults, checked
by fdom.certify at sense -1: fdom's checks with the inequalities flipped.
chromatic_number is an exact DSATUR-ordered branch-and-bound with a clique
lower bound and an optional time budget; when the budget runs out it
reports bounds instead of guessing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .distributions import FractionalColouring
from .domset import CapExceeded, max_weight_independent_set
from .fdom import (DualCertificate, LPResult, PrimalCertificate, certify, colgen,
                   fdom_colgen, fdom_exact, result_from_master)
from .generators import graph_square, join_with_clique, split_construction
from .graphs import Graph, iter_mask, mask_to_list
from .iso import automorphism_generators, orbit_index
from .simplex import simplex_exact


@dataclass
class ChromaticResult:
    lower: int
    upper: int
    colouring: Optional[list[int]]  # a proper upper-bound witness

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise CapExceeded(f"chromatic number only bracketed in [{self.lower},{self.upper}]")
        return self.lower


def maximal_independent_sets(g: Graph) -> list[int]:
    """Bron-Kerbosch with pivoting, run on non-adjacency."""
    non_adj = [~(g.nbr_mask[v] | (1 << v)) & ((1 << g.n) - 1) for v in range(g.n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_pool = p | x
        u = max(mask_to_list(pivot_pool), key=lambda w: (non_adj[w] & p).bit_count())
        for v in mask_to_list(p & ~non_adj[u]):
            bk(r | (1 << v), p & non_adj[v], x & non_adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << g.n) - 1, 0)
    return out


def _colour_classes(colours: list[int]) -> list[int]:
    classes = [0] * (max(colours) + 1)
    for v, c in enumerate(colours):
        classes[c] |= 1 << v
    return classes


def _greedy_colouring_classes(g: Graph) -> list[int]:
    """The colour classes of the greedy colouring, each grown to a maximal
    independent set."""
    out = []
    for cls in _colour_classes(_greedy_colour_list(g)):
        for v in range(g.n):
            if not ((cls >> v) & 1) and not (g.nbr_mask[v] & cls):
                cls |= 1 << v
        out.append(cls)
    return out


CHI_F_ENUM_CAP = 25  # above this many vertices chi_f runs column generation
CHI_F_ORBIT_MIN = 9  # from here at most n/2 orbits of Aut(G) take the orbit master


def fractional_chromatic(g: Graph) -> LPResult:
    """Exact chi_f.  A greedy clique K and a greedy colouring with |K|
    colours settle it first, with no LP and no automorphism search: the
    classes at weight 1 and weight 1 on each vertex of K (BENCH_31.json).
    Otherwise it solves the covering LP over independent sets: over every
    maximal independent set up to CHI_F_ENUM_CAP vertices, by fdom.colgen
    from the greedy colouring's classes beyond, or at any size on at most
    n/2 orbits (BENCH_29.json).  From CHI_F_ORBIT_MIN vertices colgen has
    one row per orbit of Aut(G), and the primal carries its generators.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    clique, classes = _greedy_clique(g), _colour_classes(_greedy_colour_list(g))
    if len(classes) == clique.bit_count():
        # chi_f = chi = |K|: each class at weight 1, and weight 1 on each
        # vertex of K, which an independent set meets at most once
        value = Fraction(len(classes))
        dual = DualCertificate([Fraction((clique >> v) & 1) for v in range(g.n)], value)
        return certify(g, PrimalCertificate([(s, Fraction(1)) for s in classes], value), dual, -1)
    return _covering_lp(g, automorphism_generators(g) if g.n >= CHI_F_ORBIT_MIN else [])


def _covering_lp(g: Graph, gens: list[tuple[int, ...]]) -> LPResult:
    row = orbit_index(g.n, gens)
    if g.n > CHI_F_ENUM_CAP or 2 * (max(row) + 1) <= g.n:
        master, sets = colgen(row, -1, _greedy_colouring_classes(g),
                              lambda y: max_weight_independent_set(g, y), "chi_f", Fraction(1))
        return result_from_master(g, master, sets, gens, -1)
    # min sum x, Ax >= 1, x >= 0  ==  max sum(-x), -Ax <= -1
    sets = maximal_independent_sets(g)
    res = simplex_exact([-1] * len(sets),
                        [[-1 if (s >> v) & 1 else 0 for s in sets] for v in range(g.n)],
                        [-1] * g.n)
    return certify(g, PrimalCertificate([(s, x) for s, x in zip(sets, res.x) if x], -res.value),
                   DualCertificate(res.y, -res.value), -1)


def witness_pq_colouring(g: Graph, res: LPResult,
                         ratio_p: int, ratio_q: int) -> FractionalColouring:
    """Turn an LP witness with value <= ratio into a proper (P:Q)-colouring
    with P/Q = ratio_p/ratio_q exactly, by replicating classes Q*x_S times,
    trimming over-covered vertices and padding with unused colours.  A
    result on the orbit master is solved again per vertex first: its set
    orbits can number 2^(n/2), as on a perfect matching."""
    if res.primal.generators:
        res = _covering_lp(g, [])
    q = lcm(ratio_q, *[x.denominator for _, x in res.primal.columns])
    assignment: list[set[int]] = [set() for _ in range(g.n)]
    colour = 0
    for s, x in res.primal.columns:
        copies = x * q
        if copies.denominator != 1:
            raise RuntimeError(f"class weight {x} is not a multiple of 1/{q}")
        for _ in range(copies.numerator):
            colour += 1
            for v in mask_to_list(s):
                assignment[v].add(colour)
    p = ratio_p * q // ratio_q
    if colour > p:
        raise ValueError("LP value exceeds the requested ratio")
    for v in range(g.n):
        if len(assignment[v]) < q:
            raise RuntimeError("covering witness misses a vertex")
        assignment[v] = set(sorted(assignment[v])[:q])
    return FractionalColouring(p, q, tuple(frozenset(a) for a in assignment))


# -- exact integral chromatic number -------------------------------------


def _greedy_clique(g: Graph) -> int:
    """The mask of the largest clique grown greedily from any one vertex."""
    best = 0
    for v in range(g.n):
        clique = 1 << v
        for u in sorted(iter_mask(g.nbr_mask[v]), key=lambda w: -g.degree(w)):
            if (g.nbr_mask[u] & clique) == clique:
                clique |= 1 << u
        best = max(best, clique, key=int.bit_count)
    return best


def chromatic_number(g: Graph, cap: int = 40,
                     time_budget_ms: Optional[int] = None) -> ChromaticResult:
    """Exact chi by iterated k-colourability backtracking (DSATUR order,
    new-colour symmetry breaking).  With a time budget, may return bounds
    only; without one it runs to exactness."""
    if g.n > cap:
        raise CapExceeded(f"chromatic search capped at {cap} vertices")
    if g.n == 0:
        return ChromaticResult(0, 0, [])
    deadline = time.monotonic() + time_budget_ms / 1000 if time_budget_ms is not None else None
    lower = max(_greedy_clique(g).bit_count(), 1)
    colouring = _greedy_colour_list(g)
    upper = max(colouring) + 1
    while lower < upper:
        if deadline and time.monotonic() > deadline:
            return ChromaticResult(lower, upper, colouring)
        k = upper - 1
        found = _k_colouring(g, k, deadline)
        if found == "timeout":
            return ChromaticResult(lower, upper, colouring)
        if found is None:
            lower = upper
            break
        colouring, upper = found, k
    return ChromaticResult(upper, upper, colouring)


def _greedy_colour_list(g: Graph) -> list[int]:
    col = [-1] * g.n
    for v in sorted(range(g.n), key=lambda u: -g.degree(u)):
        used = {col[w] for w in iter_mask(g.nbr_mask[v]) if col[w] >= 0}
        c = 0
        while c in used:
            c += 1
        col[v] = c
    return col


def _k_colouring(g: Graph, k: int, deadline: Optional[float]):
    """A proper k-colouring or None; 'timeout' when the deadline passes."""
    col = [-1] * g.n
    nbrs = [mask_to_list(m) for m in g.nbr_mask]
    nbr_cols = [set() for _ in range(g.n)]
    ticks = 0

    def pick() -> int:
        # most saturated first, ties by degree
        best, key = -1, None
        for v in range(g.n):
            if col[v] >= 0:
                continue
            cand = (len(nbr_cols[v]), g.degree(v))
            if key is None or cand > key:
                best, key = v, cand
        return best

    # the search's stack: per assigned vertex [v, colours in use before it,
    # its colour, the neighbours that colour newly saturated]
    stack: list[list] = []
    used = 0
    while True:
        ticks += 1
        if deadline and ticks % 512 == 0 and time.monotonic() > deadline:
            return "timeout"
        if len(stack) == g.n:
            return list(col)
        v = pick()
        if len(nbr_cols[v]) < k:
            stack.append([v, used, -1, []])
        while stack:  # the next colour of the deepest vertex that has one
            frame = stack[-1]
            v, before, c, touched = frame
            if c >= 0:
                col[v] = -1
                for w in touched:
                    nbr_cols[w].discard(c)
            c = next((d for d in range(c + 1, min(before + 1, k)) if d not in nbr_cols[v]), -1)
            if c < 0:
                stack.pop()
                continue
            col[v] = c
            frame[2], frame[3] = c, [w for w in nbrs[v] if col[w] < 0 and c not in nbr_cols[w]]
            for w in frame[3]:
                nbr_cols[w].add(c)
            used = max(before, c + 1)
            break
        else:
            return None


# -- reduction, fullness and join reports ---------------------------------


@dataclass
class ReductionReport:
    chi_f: Fraction
    fdom_split: Fraction
    equivalence_holds: bool
    extension_checked: bool


def check_reduction(g: Graph) -> ReductionReport:
    """chi_f(G) <= 3  iff  fdom(S(G)) >= 3, checked exactly on both sides;
    when chi_f <= 3, also realises the colouring extension onto S(G) and
    verifies it dominates."""
    if g.min_degree() < 1:
        raise ValueError("reduction needs minimum degree >= 1")
    chi = fractional_chromatic(g)
    s = split_construction(g)
    fr = fdom_colgen(s) if s.n > 20 else fdom_exact(s)
    left = chi.value <= 3
    right = fr.value >= 3
    extension_checked = False
    if left:
        phi = witness_pq_colouring(g, chi, 3, 1)
        palette = frozenset(range(1, phi.p + 1))
        ext = phi.assignment + tuple(
            palette - (phi.assignment[u] | phi.assignment[v]) for u, v in g.edges())
        ok, why = FractionalColouring(phi.p, phi.q, ext).check(s)
        if not ok:
            raise RuntimeError(f"extension recipe failed to dominate: {why}")
        extension_checked = True
    return ReductionReport(chi.value, fr.value, left == right, extension_checked)


@dataclass
class FullnessReport:
    degree: int
    chi_square_lower: int
    chi_square_upper: int
    chi_f_square: Fraction
    dom_full: Optional[bool]
    fdom_full: bool


def fullness_check(g: Graph, time_budget_ms: Optional[int] = None) -> FullnessReport:
    """For regular graphs: domatically full iff chi(G^2) = d+1, and
    fdom-full iff chi_f(G^2) = d+1.  Bounds are reported when the integral
    solver hits its budget; no value is ever guessed."""
    if g.n == 0:
        raise ValueError("empty graph")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("fullness check applies to regular graphs")
    d = degs.pop()
    sq = graph_square(g)
    chi = chromatic_number(sq, cap=64, time_budget_ms=time_budget_ms)
    dom_full = None
    if chi.lower > d + 1:
        dom_full = False
    elif chi.exact:
        dom_full = chi.value == d + 1
    chi_f = fractional_chromatic(sq).value
    return FullnessReport(d, chi.lower, chi.upper, chi_f, dom_full, chi_f == d + 1)


@dataclass
class JoinReport:
    base_value: Fraction
    joined_value: Fraction
    t: int

    @property
    def holds(self) -> bool:
        return self.joined_value == self.base_value + self.t


def join_check(g: Graph, t: int) -> JoinReport:
    base = fdom_exact(g)
    joined = fdom_exact(join_with_clique(g, t))
    return JoinReport(base.value, joined.value, t)
