"""Combining partial distributions across small separations.

Both gluing steps partition each input once by an event at the separation
and couple the parts by one plan: each (mass, left event, right event)
entry draws the two sides independently given their events, so each
side's marginal is preserved exactly.  The coupling sums the groups'
integer numerators over one denominator: the lcm of the plan entries'
unit weights.

glue_at_cutvertex is the order-1 case: the event at the shared vertex v is
(v in the set / v out but a neighbour in / closed neighbourhood missed),
and the plan makes the domination probability at v min(1, f0(v) + f1(v) - r).

extend_over_pair is the order-2 case used for suspended paths: the event
is the pair (u in, v in).  The host's four events pick which conditioned
piece of the two path distributions is attached, and the Bernoulli switch
splits the "both endpoints out" mass into exact alpha/beta and
1 - alpha/beta parts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable

from .distributions import (DistributionError, DominatingDistribution,
                            colouring_to_distribution, complete_to_r, relabel)
from .graphs import Graph, iter_mask, mask_of
from .pathtables import path_tables
from .structure import SuspendedPath


@dataclass
class Group:
    """The atoms (numerators over den) of a distribution that share an event, and their mass."""
    den: int
    atoms: dict[int, int] = field(default_factory=dict)
    mass: int = 0

    @property
    def prob(self) -> Fraction:
        return Fraction(self.mass, self.den)


def _by_event(d: DominatingDistribution,
              event: Callable[[int], Hashable]) -> defaultdict[Hashable, Group]:
    """d's atoms grouped by event(atom) in one pass; an event no atom has
    reads as an empty group of mass 0."""
    groups: defaultdict[Hashable, Group] = defaultdict(lambda: Group(d.den))
    for s, a in d.atoms:
        group = groups[event(s)]
        group.atoms[s] = a
        group.mass += a
    return groups


def _at_pair(u: int, v: int) -> Callable[[int], tuple[int, int]]:
    """The event (u in the set, v in the set)."""
    return lambda s: ((s >> u) & 1, (s >> v) & 1)


def _couple(plan: list[tuple[Fraction, Group, Group]]) -> DominatingDistribution:
    """The sum over the plan's (mass, left, right) triples of
    mass * (left conditional x right conditional): a product of two atoms
    weighs mass / (left.mass * right.mass) per unit of their numerators'
    product, summed over the lcm of those unit weights' denominators."""
    terms = []
    for mass, left, right in plan:
        if mass == 0:
            continue
        if left.mass == 0 or right.mass == 0:
            raise DistributionError("internal: coupling against a null event")
        terms.append((mass / (left.mass * right.mass), left.atoms, right.atoms))
    den = lcm(*(unit.denominator for unit, _, _ in terms))
    out: dict[int, int] = {}
    for unit, atoms0, atoms1 in terms:
        weight = unit.numerator * (den // unit.denominator)
        for s0, a0 in atoms0.items():
            w0 = weight * a0
            for s1, a1 in atoms1.items():
                key = s0 | s1
                out[key] = out.get(key, 0) + w0 * a1
    return DominatingDistribution.from_numerators(den, out.items())


def glue_at_cutvertex(d0: DominatingDistribution, g0: Graph, map0: list[int],
                      d1: DominatingDistribution, g1: Graph, map1: list[int],
                      v: int, r: Fraction) -> DominatingDistribution:
    """Glue two r-distributions across a cut vertex.

    map0/map1 send each side's local vertex ids into the combined graph's
    ids; v is the shared vertex in combined ids.  Both inputs must have
    membership exactly r at v.  The result preserves each side's marginal
    distribution and dominates v with probability at least
    min(1, f0(v) + f1(v) - r).
    """
    def at_v(g: Graph, mapping: list[int]) -> Callable[[int], str]:
        nbrs = mask_of(mapping[u] for u in iter_mask(g.nbr_mask[mapping.index(v)]))
        return lambda s: "in" if (s >> v) & 1 else "seen" if s & nbrs else "missed"

    side0 = _by_event(relabel(d0, map0), at_v(g0, map0))
    side1 = _by_event(relabel(d1, map1), at_v(g1, map1))
    a0, b0, c0 = side0["in"], side0["seen"], side0["missed"]
    a1, b1, c1 = side1["in"], side1["seen"], side1["missed"]
    if a0.prob != r or a1.prob != r:
        raise DistributionError("membership at the cut vertex must equal r on both sides")
    if b0.prob + b1.prob >= 1 - r:
        # rich neighbourhood coverage: a side that misses v meets a side
        # whose neighbourhood sees it
        plan = [(r, a0, a1), (c0.prob, c0, b1), (c1.prob, b0, c1),
                (1 - r - c0.prob - c1.prob, b0, b1)]
    else:
        # thin coverage: a side that sees v meets a side that misses it
        plan = [(r, a0, a1), (b0.prob, b0, c1), (b1.prob, c0, b1),
                (1 - r - b0.prob - b1.prob, c0, c1)]
    return _couple(plan)


def extend_over_pair(d_host: DominatingDistribution, u: int, v: int,
                     d0: DominatingDistribution, d1: DominatingDistribution,
                     r: Fraction) -> DominatingDistribution:
    """Extend a host r-distribution over an attached piece H meeting it
    exactly at {u, v}.

    Requirements (checked): r < 1/2; the host has membership r at u and v;
    u and v never co-occur in d0 and always co-occur in d1; all four of
    P(u in d0), P(v in d0), P(u in d1), P(u out of d1) are positive where
    the corresponding branch mass is positive.

    The endpoint memberships of the output equal the host's; internal
    memberships of the attached piece become an (alpha, 1-alpha) mixture of
    reweighted d1/d0 and are returned as-is for the caller to complete.
    """
    if not (0 < r < Fraction(1, 2)):
        raise DistributionError("pair extension needs 0 < r < 1/2")
    host, piece0, piece1 = (_by_event(d, _at_pair(u, v)) for d in (d_host, d0, d1))
    if host[1, 1].prob + host[1, 0].prob != r or host[1, 1].prob + host[0, 1].prob != r:
        raise DistributionError("host membership at the pair must equal r")
    if (1, 1) in piece0:
        raise DistributionError("d0 must keep the endpoints exclusive")
    if piece1.keys() - {(1, 1), (0, 0)}:
        raise DistributionError("d1 must keep the endpoints identified")
    # alpha = P(u in | v in), beta = P(u out | v out); the memberships at u
    # and v make P(both out) = 1 - 2r + P(both in) > 0, so beta > 0, and
    # beta >= alpha whenever r < 1/2, so alpha/beta is a probability
    neither = host[0, 0]
    alpha, beta = host[1, 1].prob / r, neither.prob / (1 - r)
    switch = alpha / beta
    plan = [(host[1, 1].prob, host[1, 1], piece1[1, 1]),
            (host[1, 0].prob, host[1, 0], piece0[1, 0]),
            (host[0, 1].prob, host[0, 1], piece0[0, 1]),
            (neither.prob * switch, neither, piece1[0, 0]),
            (neither.prob * (1 - switch), neither, piece0[0, 0])]
    return _couple(plan)


def attach_suspended_path(d_host: DominatingDistribution, p: SuspendedPath,
                          r: Fraction, n_total: int) -> DominatingDistribution:
    """Attach a suspended path to a host distribution over G minus the path.

    The path tables provide the two endpoint-patterned colourings; their
    random colour classes are extended over the endpoint pair and every
    membership is then completed to exactly r.  Requires
    k/(3k-1) <= r < 1/2 for k = ceil(len/3): the path's own colouring rate
    must not exceed the target, or the reweighted internal memberships
    could overshoot and completion (which only adds mass) would fail.
    """
    k = -(-p.length // 3)
    if not (Fraction(k, 3 * k - 1) <= r < Fraction(1, 2)):
        raise DistributionError(
            f"attachment of a length-{p.length} path needs k/(3k-1) <= r < 1/2")
    table = path_tables(p.length)
    u, v = p.endpoints
    d0 = relabel(colouring_to_distribution(table.phi0), list(p.vertices))
    d1 = relabel(colouring_to_distribution(table.phi1), list(p.vertices))
    combined = extend_over_pair(d_host, u, v, d0, d1, r)
    return complete_to_r(combined, r, n_total)
