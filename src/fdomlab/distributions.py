"""Finite-support random vertex sets with exact rational probabilities.

A distribution is one denominator and a list of (vertex bitmask, integer
numerator) atoms whose numerators sum to it.  These are the f-dominating
r-colourings of the constructive machinery: per-vertex membership
probability exactly r, per-vertex domination probability at least the
demand f(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .graphs import (Graph, fraction_from_pair, fraction_to_pair, json_field,
                     json_list, mask_of, mask_to_list, vertex_list)


class DistributionError(ValueError):
    pass


@dataclass(frozen=True)
class DominatingDistribution:
    """Atoms (bitmask, numerator > 0) over den: the masks sorted and
    unique, the numerators summing to den, and gcd(den, *numerators) == 1,
    so den is the least common denominator of the probabilities."""

    den: int
    atoms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_numerators(den: int, pairs: Iterable[tuple[int, int]]) -> "DominatingDistribution":
        """The distribution of (mask, numerator over den) pairs: repeated
        masks summed, zero atoms dropped, and den and the numerators
        divided by their gcd."""
        atom_map: dict[int, int] = {}
        for s, a in pairs:
            atom_map[s] = atom_map.get(s, 0) + a
        if any(a < 0 for a in atom_map.values()):
            raise DistributionError("negative atom probability")
        if sum(atom_map.values()) != den:
            raise DistributionError("probabilities must sum to exactly 1")
        k = gcd(den, *atom_map.values())
        return DominatingDistribution(
            den // k, tuple(sorted((s, a // k) for s, a in atom_map.items() if a)))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Fraction]]) -> "DominatingDistribution":
        """from_numerators over the lcm of the probabilities' denominators."""
        pairs = list(pairs)
        den = lcm(*(p.denominator for _, p in pairs))
        return DominatingDistribution.from_numerators(
            den, ((s, p.numerator * (den // p.denominator)) for s, p in pairs))

    def to_json(self, r: Fraction) -> dict:
        return {"r": fraction_to_pair(r),
                "atoms": [{"set": mask_to_list(s), "p": fraction_to_pair(Fraction(a, self.den))}
                          for s, a in self.atoms]}

    @staticmethod
    def from_json(obj: dict) -> tuple["DominatingDistribution", Fraction]:
        atoms = json_list(obj, "atoms")
        r = fraction_from_pair(json_field(obj, "r"))
        return DominatingDistribution.from_pairs(
            (mask_of(vertex_list(json_list(a, "set"))), fraction_from_pair(json_field(a, "p")))
            for a in atoms), r


def _out_of_range(d: DominatingDistribution, n: int) -> str | None:
    """The message for the lowest vertex >= n in the first atom holding one."""
    for s, _ in d.atoms:
        high = s >> n
        if high:
            return f"vertex {n + (high & -high).bit_length() - 1} out of range for n={n}"
    return None


DemandFunction = Callable[[int], Fraction]


def constant_demand(value: Fraction) -> DemandFunction:
    return lambda v: value


def standard_demand(g: Graph) -> DemandFunction:
    """Demand 4/5 at degree-1 vertices, 1 elsewhere."""
    return lambda v: Fraction(4, 5) if g.degree(v) == 1 else Fraction(1)


def scaled_sums(d: DominatingDistribution, n: int,
                g: Graph | None = None) -> tuple[list[int], list[int]]:
    """(member, dom): the numerators over d.den of the membership and, given
    g, of the domination probability of vertices 0..n-1 (dom is empty
    without g).

    One pass over the atoms: each numerator is added to every vertex of the
    atom, and subtracted from the total at every vertex its closed-
    neighbourhood cover misses, which is no vertex for a dominating atom.
    Vertices >= n are ignored.
    """
    member = [0] * n
    missed = [0] * n if g is not None else []
    closed = g.closed_mask if g is not None else ()
    full = (1 << n) - 1
    total = 0
    for s, num in d.atoms:
        total += num
        cover = 0
        u = s & full
        while u:
            low = u & -u
            v = low.bit_length() - 1
            member[v] += num
            if closed:
                cover |= closed[v]
            u ^= low
        u = full & ~cover if closed else 0
        while u:
            low = u & -u
            missed[low.bit_length() - 1] += num
            u ^= low
    return member, [total - m for m in missed]


def verify_f_dominating(g: Graph, d: DominatingDistribution, f: DemandFunction,
                        r: Fraction) -> tuple[bool, str]:
    """Exact check that every atom lies in the graph, every membership is r
    and every domination probability meets f.  The sums are integer
    numerators over d.den (`scaled_sums`), compared with r and f by cross
    multiplication; a failing value is rebuilt as a Fraction only for its
    message.
    """
    high = _out_of_range(d, g.n)
    if high:
        return False, high
    member, dom = scaled_sums(d, g.n, g)
    for v in range(g.n):
        if member[v] * r.denominator != r.numerator * d.den:
            return False, f"membership {Fraction(member[v], d.den)} != {r} at vertex {v}"
        demand = f(v)
        if dom[v] * demand.denominator < demand.numerator * d.den:
            return False, f"domination {Fraction(dom[v], d.den)} < demand {demand} at vertex {v}"
    return True, "ok"


# -- fractional colourings ---------------------------------------------


@dataclass(frozen=True)
class FractionalColouring:
    """Assignment of a q-subset of [p] to every vertex (colours are the
    integers 1..p)."""

    p: int
    q: int
    assignment: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not (1 <= self.q <= self.p):
            raise DistributionError("needs 1 <= q <= p")
        for s in self.assignment:
            if len(s) != self.q or not all(type(c) is int and 1 <= c <= self.p for c in s):
                raise DistributionError("each vertex needs exactly q colours from [p]")

    def colour_class(self, i: int) -> int:
        return mask_of(v for v, s in enumerate(self.assignment) if i in s)

    def spans(self, g: Graph, v: int) -> int:
        seen: set[int] = set()
        for u in mask_to_list(g.closed_mask[v]):
            seen |= self.assignment[u]
        return len(seen)

    def check(self, g: Graph) -> tuple[bool, str]:
        """Whether this is a dominating colouring of g: one colour set per
        vertex, and every closed neighbourhood spans all p colours.
        Returns (ok, reason)."""
        if len(self.assignment) != g.n:
            return False, f"colouring has {len(self.assignment)} entries for n={g.n}"
        bad = [v for v in range(g.n) if self.spans(g, v) != self.p]
        return not bad, f"neighbourhoods missing colours at {bad}" if bad else "ok"

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q,
                "phi": [sorted(s) for s in self.assignment]}

    @staticmethod
    def from_json(obj: dict) -> "FractionalColouring":
        phi = json_list(obj, "phi")
        p, q = json_field(obj, "p"), json_field(obj, "q")
        if type(p) is not int or type(q) is not int:
            raise DistributionError("colouring needs integer p and q")
        return FractionalColouring(p, q,
                                   tuple(frozenset(vertex_list(s)) for s in phi))


def colouring_to_distribution(phi: FractionalColouring) -> DominatingDistribution:
    """A uniformly random colour class: membership q/p for every vertex."""
    return DominatingDistribution.from_numerators(
        phi.p, ((phi.colour_class(i), 1) for i in range(1, phi.p + 1)))


def distribution_to_colouring(d: DominatingDistribution, n: int) -> FractionalColouring:
    """Replicate each atom into numerator-many of p = d.den colour slots;
    requires a constant membership r, giving q = r*p colours per vertex."""
    high = _out_of_range(d, n)
    if high:
        raise DistributionError(high)
    member, _ = scaled_sums(d, n)
    q = member[0] if n else 0
    if any(m != q for m in member):
        raise DistributionError("membership is not constant across vertices")
    assignment: list[set[int]] = [set() for _ in range(n)]
    slot = 1
    for s, copies in d.atoms:
        for _ in range(copies):
            for v in mask_to_list(s):
                assignment[v].add(slot)
            slot += 1
    if slot != d.den + 1:
        raise DistributionError(f"{slot - 1} colour slots for p = {d.den}")
    return FractionalColouring(d.den, q, tuple(frozenset(a) for a in assignment))


# -- membership completion (derandomised) ------------------------------


def complete_to_r(d: DominatingDistribution, r: Fraction, n: int) -> DominatingDistribution:
    """Raise every membership to exactly r by deterministic event-splitting.

    For each vertex below r, atoms not containing the vertex are split, in
    sorted order, into a piece that gains the vertex and a piece that does
    not, with exact masses.  Each original atom's mass ends up on supersets
    of it, so domination probabilities never decrease; support grows by at
    most one atom per vertex.

    The masses are integer numerators over D = lcm(d.den, r's denominator).
    The memberships are summed once, up front: moving mass from s to
    s | {v} changes the membership of no vertex but v, so each vertex still
    has its starting membership when its turn comes.
    """
    big = lcm(d.den, r.denominator)
    scale = big // d.den
    member = [m * scale for m in scaled_sums(d, n)[0]]
    target = r.numerator * (big // r.denominator)
    atom_map = {s: a * scale for s, a in d.atoms}
    for v in range(n):
        if member[v] > target:
            raise DistributionError(
                f"membership {Fraction(member[v], big)} exceeds target {r} at vertex {v}")
        need = target - member[v]
        if need == 0:
            continue
        for s in sorted(atom_map):
            if (s >> v) & 1:
                continue
            p = atom_map[s]
            take = min(p, need)
            atom_map[s] = p - take
            grown = s | (1 << v)
            atom_map[grown] = atom_map.get(grown, 0) + take
            need -= take
            if need == 0:
                break
        if need != 0:
            raise DistributionError(f"insufficient mass to complete membership at vertex {v}")
        atom_map = {s: p for s, p in atom_map.items() if p != 0}
    return DominatingDistribution.from_numerators(big, atom_map.items())


def cycle_distribution(n: int) -> DominatingDistribution:
    """Uniform over the n rotations of the dominating set {0, 3, 6, ...} of
    the n-cycle: membership ceil(n/3)/n everywhere."""
    if n < 3:
        raise DistributionError("cycle needs n >= 3")
    base = list(range(0, n, 3))  # gaps of 3, final wrap gap <= 3: dominating
    return DominatingDistribution.from_numerators(
        n, ((mask_of((v + shift) % n for v in base), 1) for shift in range(n)))


def relabel(d: DominatingDistribution, mapping: Sequence[int]) -> DominatingDistribution:
    """Relabel atom vertices through mapping (local id -> global id)."""
    if list(mapping) == list(range(len(mapping))):
        return d
    pairs = []
    for s, a in d.atoms:
        t = 0
        u = s
        while u:
            low = u & -u
            t |= 1 << mapping[low.bit_length() - 1]
            u ^= low
        pairs.append((t, a))
    return DominatingDistribution.from_numerators(d.den, pairs)
