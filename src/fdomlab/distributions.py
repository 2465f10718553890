"""Finite-support random vertex sets with exact rational probabilities.

A distribution is a list of (vertex bitmask, probability) atoms summing to
exactly 1.  These are the f-dominating r-colourings of the constructive
machinery: per-vertex membership probability exactly r, per-vertex
domination probability at least the demand f(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .graphs import Graph, fraction_from_pair, mask_of, mask_to_list


class DistributionError(ValueError):
    pass


def common_denominator(probs: Iterable[Fraction], den: int = 1) -> tuple[int, dict[int, int]]:
    """D = lcm(den, the denominators of probs), and D // q for each of them."""
    dens = {p.denominator for p in probs}
    big = lcm(den, *dens)
    return big, {q: big // q for q in dens}


@dataclass(frozen=True)
class DominatingDistribution:
    """Deduplicated support atoms (bitmask -> probability > 0), summing to 1."""

    atoms: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_map(atom_map: dict[int, Fraction]) -> "DominatingDistribution":
        cleaned = {s: p for s, p in atom_map.items() if p != 0}
        if any(p.numerator < 0 for p in cleaned.values()):
            raise DistributionError("negative atom probability")
        big, scale = common_denominator(cleaned.values())
        if sum(p.numerator * scale[p.denominator] for p in cleaned.values()) != big:
            raise DistributionError("probabilities must sum to exactly 1")
        return DominatingDistribution(tuple(sorted(cleaned.items())))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Fraction]]) -> "DominatingDistribution":
        """Like from_map, with the probabilities of repeated bitmasks summed."""
        atom_map: dict[int, Fraction] = {}
        for s, p in pairs:
            atom_map[s] = atom_map[s] + p if s in atom_map else p
        return DominatingDistribution.from_map(atom_map)

    def membership(self, v: int) -> Fraction:
        return sum((p for s, p in self.atoms if (s >> v) & 1), Fraction(0))

    def dominated_prob(self, g: Graph, v: int) -> Fraction:
        nb = g.closed_mask[v]
        return sum((p for s, p in self.atoms if s & nb), Fraction(0))

    def to_json(self, r: Fraction) -> dict:
        return {
            "r": [str(r.numerator), str(r.denominator)],
            "atoms": [{"set": mask_to_list(s), "p": [str(p.numerator), str(p.denominator)]}
                      for s, p in self.atoms],
        }

    @staticmethod
    def from_json(obj: dict) -> tuple["DominatingDistribution", Fraction]:
        r = fraction_from_pair(obj["r"])
        return DominatingDistribution.from_pairs(
            (mask_of(a["set"]), fraction_from_pair(a["p"])) for a in obj["atoms"]), r


DemandFunction = Callable[[int], Fraction]


def constant_demand(value: Fraction) -> DemandFunction:
    return lambda v: value


def standard_demand(g: Graph) -> DemandFunction:
    """Demand 4/5 at degree-1 vertices, 1 elsewhere."""
    return lambda v: Fraction(4, 5) if g.degree(v) == 1 else Fraction(1)


def scaled_sums(d: DominatingDistribution, n: int, den: int = 1,
                g: Graph | None = None) -> tuple[int, list[int], list[int]]:
    """(D, member, dom): D = lcm(den, atom denominators), and the integer
    numerators over D of the membership and, given g, of the domination
    probability of vertices 0..n-1 (dom is empty without g).

    One pass over the atoms: each numerator is added to every vertex of the
    atom, and subtracted from the total at every vertex its closed-
    neighbourhood cover misses, which is no vertex for a dominating atom.
    Vertices >= n are ignored.
    """
    big, scale = common_denominator((p for _, p in d.atoms), den)
    member = [0] * n
    missed = [0] * n if g is not None else []
    closed = g.closed_mask if g is not None else ()
    full = (1 << n) - 1
    total = 0
    for s, p in d.atoms:
        num = p.numerator * scale[p.denominator]
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
    return big, member, [total - m for m in missed]


def verify_f_dominating(g: Graph, d: DominatingDistribution, f: DemandFunction,
                        r: Fraction) -> tuple[bool, str]:
    """Exact check that every atom lies in the graph, every membership is r
    and every domination probability meets f.  The sums are integer
    numerators over D, the lcm of r's and the atoms' denominators
    (`scaled_sums`); a failing value is rebuilt as a Fraction only for its
    message.
    """
    for s, _ in d.atoms:
        high = s >> g.n
        if high:
            v = g.n + (high & -high).bit_length() - 1
            return False, f"vertex {v} out of range for n={g.n}"
    big, member, dom = scaled_sums(d, g.n, r.denominator, g)
    target = r.numerator * (big // r.denominator)
    for v in range(g.n):
        if member[v] != target:
            return False, f"membership {Fraction(member[v], big)} != {r} at vertex {v}"
        demand = f(v)
        if dom[v] * demand.denominator < demand.numerator * big:
            return False, f"domination {Fraction(dom[v], big)} < demand {demand} at vertex {v}"
    return True, "ok"


# -- fractional colourings ---------------------------------------------


@dataclass(frozen=True)
class FractionalColouring:
    """Assignment of a q-subset of [p] to every vertex (colours 1-based)."""

    p: int
    q: int
    assignment: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not (1 <= self.q <= self.p):
            raise DistributionError("needs 1 <= q <= p")
        for s in self.assignment:
            if len(s) != self.q or not s <= set(range(1, self.p + 1)):
                raise DistributionError("each vertex needs exactly q colours from [p]")

    def colour_class(self, i: int) -> int:
        return mask_of(v for v, s in enumerate(self.assignment) if i in s)

    def spans(self, g: Graph, v: int) -> int:
        seen: set[int] = set()
        for u in mask_to_list(g.closed_mask[v]):
            seen |= self.assignment[u]
        return len(seen)

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q,
                "phi": [sorted(s) for s in self.assignment]}

    @staticmethod
    def from_json(obj: dict) -> "FractionalColouring":
        return FractionalColouring(obj["p"], obj["q"],
                                   tuple(frozenset(s) for s in obj["phi"]))


def colouring_to_distribution(phi: FractionalColouring) -> DominatingDistribution:
    """A uniformly random colour class: membership q/p for every vertex."""
    unit = Fraction(1, phi.p)
    return DominatingDistribution.from_pairs(
        (phi.colour_class(i), unit) for i in range(1, phi.p + 1))


def distribution_to_colouring(d: DominatingDistribution, n: int) -> FractionalColouring:
    """Replicate atoms into p = lcm-of-denominators colour slots; requires a
    constant membership r, giving q = r*p colours per vertex."""
    p, member, _ = scaled_sums(d, n)
    q = member[0] if n else 0
    if any(m != q for m in member):
        raise DistributionError("membership is not constant across vertices")
    assignment: list[set[int]] = [set() for _ in range(n)]
    slot = 1
    for s, pr in d.atoms:
        copies = pr * p
        if copies.denominator != 1:
            raise DistributionError(f"atom probability {pr} is not a multiple of 1/{p}")
        for _ in range(int(copies)):
            for v in mask_to_list(s):
                assignment[v].add(slot)
            slot += 1
    if slot != p + 1:
        raise DistributionError(f"{slot - 1} colour slots for p = {p}")
    return FractionalColouring(p, q, tuple(frozenset(a) for a in assignment))


# -- membership completion (derandomised) ------------------------------


def complete_to_r(d: DominatingDistribution, r: Fraction, n: int) -> DominatingDistribution:
    """Raise every membership to exactly r by deterministic event-splitting.

    For each vertex below r, atoms not containing the vertex are split, in
    sorted order, into a piece that gains the vertex and a piece that does
    not, with exact masses.  Each original atom's mass ends up on supersets
    of it, so domination probabilities never decrease; support grows by at
    most one atom per vertex.

    The masses are integer numerators over D, the lcm of r's and the atoms'
    denominators.  The memberships are summed once, up front: moving mass from s to
    s | {v} changes the membership of no vertex but v, so each vertex still
    has its starting membership when its turn comes.
    """
    big, member, _ = scaled_sums(d, n, r.denominator)
    target = r.numerator * (big // r.denominator)
    atom_map = {s: p.numerator * (big // p.denominator) for s, p in d.atoms}
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
    return DominatingDistribution.from_map({s: Fraction(p, big) for s, p in atom_map.items()})


def cycle_distribution(n: int) -> DominatingDistribution:
    """Uniform over the n rotations of the dominating set {0, 3, 6, ...} of
    the n-cycle: membership ceil(n/3)/n everywhere."""
    if n < 3:
        raise DistributionError("cycle needs n >= 3")
    base = list(range(0, n, 3))  # gaps of 3, final wrap gap <= 3: dominating
    unit = Fraction(1, n)
    return DominatingDistribution.from_pairs(
        (mask_of((v + shift) % n for v in base), unit) for shift in range(n))


def point_mass(mask: int) -> DominatingDistribution:
    return DominatingDistribution.from_map({mask: Fraction(1)})


def relabel(d: DominatingDistribution, mapping: Sequence[int]) -> DominatingDistribution:
    """Relabel atom vertices through mapping (local id -> global id)."""
    if list(mapping) == list(range(len(mapping))):
        return d
    pairs = []
    for s, p in d.atoms:
        t = 0
        u = s
        while u:
            low = u & -u
            t |= 1 << mapping[low.bit_length() - 1]
            u ^= low
        pairs.append((t, p))
    return DominatingDistribution.from_pairs(pairs)
