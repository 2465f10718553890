"""Combining partial distributions across small separations.

glue_at_cutvertex implements the order-1 case: each side's atoms are
partitioned by what happens at the shared vertex v (v in the set / v out
but a neighbour in / closed neighbourhood missed) and the two sides are
coupled case-by-case so that each side's marginal is preserved exactly and
the domination probability at v becomes min(1, f0(v) + f1(v) - r).

extend_over_pair implements the order-2 case used for suspended paths:
the host distribution's four endpoint events drive which conditioned piece
of the two path distributions is attached; the Bernoulli switch is
realised by splitting the "both endpoints out" mass into exact alpha/beta
and 1 - alpha/beta parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import (DistributionError, DominatingDistribution,
                            colouring_to_distribution, complete_to_r, relabel)
from .graphs import Graph, mask_of
from .pathtables import path_tables
from .structure import SuspendedPath


def _split3(d: DominatingDistribution, v: int, nbr_mask: int):
    """Atoms of d partitioned by the events (v in S), (v out, neighbour in),
    (closed neighbourhood missed); returned with their total masses."""
    return (_condition(d, lambda s: (s >> v) & 1),
            _condition(d, lambda s: not (s >> v) & 1 and s & nbr_mask),
            _condition(d, lambda s: not (s >> v) & 1 and not s & nbr_mask))


def _couple(out: dict[int, Fraction], mass: Fraction,
            left: tuple[dict[int, Fraction], Fraction],
            right: tuple[dict[int, Fraction], Fraction]) -> None:
    """Add mass * (left conditional x right conditional) to out."""
    if mass == 0:
        return
    (la, lm), (ra, rm) = left, right
    if lm == 0 or rm == 0:
        raise DistributionError("internal: coupling against a null event")
    for s0, p0 in la.items():
        for s1, p1 in ra.items():
            w = mass * p0 * p1 / (lm * rm)
            key = s0 | s1
            out[key] = out.get(key, Fraction(0)) + w


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
    v0, v1 = map0.index(v), map1.index(v)
    lifted0 = relabel(d0, map0)
    lifted1 = relabel(d1, map1)
    n0 = mask_of(map0[u] for u in g0.adj[v0])
    n1 = mask_of(map1[u] for u in g1.adj[v1])
    if lifted0.membership(v) != r or lifted1.membership(v) != r:
        raise DistributionError("membership at the cut vertex must equal r on both sides")

    (a0, pa0), (b0, pb0), (c0, pc0) = _split3(lifted0, v, n0)
    (a1, pa1), (b1, pb1), (c1, pc1) = _split3(lifted1, v, n1)
    if pa0 != r or pa1 != r:
        raise DistributionError("internal: event masses disagree with membership")

    out: dict[int, Fraction] = {}
    if pb0 + pb1 >= 1 - r:
        # case 1: rich neighbourhood coverage
        _couple(out, r, (a0, pa0), (a1, pa1))
        _couple(out, pc0, (c0, pc0), (b1, pb1))
        _couple(out, pc1, (b0, pb0), (c1, pc1))
        _couple(out, 1 - r - pc0 - pc1, (b0, pb0), (b1, pb1))
    else:
        # case 2: thin coverage
        _couple(out, r, (a0, pa0), (a1, pa1))
        _couple(out, pb0, (b0, pb0), (c1, pc1))
        _couple(out, pb1, (c0, pc0), (b1, pb1))
        _couple(out, 1 - r - pb0 - pb1, (c0, pc0), (c1, pc1))
    return DominatingDistribution.from_map(out)


@dataclass(frozen=True)
class CornerStats:
    """alpha = P(u in D' | v in D'), beta = P(u out | v out) for the host
    distribution at the separation pair; beta >= alpha whenever r < 1/2."""

    alpha: Fraction
    beta: Fraction


def corner_stats(d: DominatingDistribution, u: int, v: int, r: Fraction) -> CornerStats:
    both = sum((p for s, p in d.atoms if (s >> u) & 1 and (s >> v) & 1), Fraction(0))
    neither = sum((p for s, p in d.atoms if not ((s >> u) & 1) and not ((s >> v) & 1)),
                  Fraction(0))
    alpha = both / r
    beta = neither / (1 - r)
    return CornerStats(alpha, beta)


def _condition(d: DominatingDistribution, pred) -> tuple[dict[int, Fraction], Fraction]:
    atoms = {s: p for s, p in d.atoms if pred(s)}
    return atoms, sum(atoms.values(), Fraction(0))


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
    if d_host.membership(u) != r or d_host.membership(v) != r:
        raise DistributionError("host membership at the pair must equal r")
    if any((s >> u) & 1 and (s >> v) & 1 for s, _ in d0.atoms):
        raise DistributionError("d0 must keep the endpoints exclusive")
    if any(((s >> u) & 1) != ((s >> v) & 1) for s, _ in d1.atoms):
        raise DistributionError("d1 must keep the endpoints identified")

    stats = corner_stats(d_host, u, v, r)
    alpha, beta = stats.alpha, stats.beta

    host_uv, m_uv = _condition(d_host, lambda s: (s >> u) & 1 and (s >> v) & 1)
    host_u, m_u = _condition(d_host, lambda s: (s >> u) & 1 and not (s >> v) & 1)
    host_v, m_v = _condition(d_host, lambda s: not (s >> u) & 1 and (s >> v) & 1)
    host_n, m_n = _condition(d_host, lambda s: not (s >> u) & 1 and not (s >> v) & 1)

    d1_u, p1u = _condition(d1, lambda s: (s >> u) & 1)
    d1_nu, p1nu = _condition(d1, lambda s: not (s >> u) & 1)
    d0_u, p0u = _condition(d0, lambda s: (s >> u) & 1)
    d0_v, p0v = _condition(d0, lambda s: (s >> v) & 1)
    d0_n, p0n = _condition(d0, lambda s: not (s >> u) & 1 and not (s >> v) & 1)

    out: dict[int, Fraction] = {}
    _couple(out, m_uv, (host_uv, m_uv), (d1_u, p1u))
    _couple(out, m_u, (host_u, m_u), (d0_u, p0u))
    _couple(out, m_v, (host_v, m_v), (d0_v, p0v))
    if m_n:
        if beta == 0:
            raise DistributionError("internal: positive both-out mass with beta = 0")
        _couple(out, m_n * alpha / beta, (host_n, m_n), (d1_nu, p1nu))
        _couple(out, m_n * (1 - alpha / beta), (host_n, m_n), (d0_n, p0n))
    return DominatingDistribution.from_map(out)


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
    for w in p.internal:
        if combined.membership(w) > r:
            raise DistributionError("internal: path membership overshoot")
    return complete_to_r(combined, r, n_total)
