import random
from fractions import Fraction as F

import pytest

from fdomlab.distributions import (DistributionError, DominatingDistribution,
                                   constant_demand, relabel, verify_f_dominating)
from fdomlab.generators import cycle, theta_graph
from fdomlab.gluing import attach_suspended_path, extend_over_pair, glue_at_cutvertex
from fdomlab.graphs import Graph, mask_of
from fdomlab.structure import SuspendedPath

from distview import dominated_prob, fractions, membership


def corner_stats(d, u, v, r):
    """alpha = P(u in | v in) and beta = P(u out | v out) for a distribution
    with membership r at u and v."""
    both = sum(p for s, p in fractions(d) if s >> u & s >> v & 1)
    neither = sum(p for s, p in fractions(d) if not (s >> u | s >> v) & 1)
    return both / r, neither / (1 - r)


def c5_pairs():
    return DominatingDistribution.from_pairs(
        {mask_of([i, (i + 2) % 5]): F(1, 5) for i in range(5)}.items())


def test_glue_two_c5_at_a_vertex():
    # vertices 0..4 and 4..8; shared vertex 4
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    g0, map0 = g.induced([0, 1, 2, 3, 4])
    g1, map1 = g.induced([4, 5, 6, 7, 8])
    d0, d1 = c5_pairs(), c5_pairs()
    out = glue_at_cutvertex(d0, g0, map0, d1, g1, map1, 4, F(2, 5))
    ok, why = verify_f_dominating(g, out, constant_demand(F(1)), F(2, 5))
    assert ok, why


def test_glue_preserves_side_marginals():
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    g0, map0 = g.induced([0, 1, 2, 3, 4])
    g1, map1 = g.induced([4, 5, 6, 7, 8])
    out = glue_at_cutvertex(c5_pairs(), g0, map0, c5_pairs(), g1, map1, 4, F(2, 5))
    side0_membership = {v: F(0) for v in range(5)}
    for s, p in fractions(out):
        for v in range(5):
            if (s >> v) & 1:
                side0_membership[v] += p
    assert all(m == F(2, 5) for m in side0_membership.values())


def test_glue_point_masses():
    k2a = Graph(2, [(0, 1)])
    both = DominatingDistribution(1, ((0b11, 1),))
    out = glue_at_cutvertex(both, k2a, [0, 1], both, k2a, [1, 2], 1, F(1))
    assert fractions(out) == ((0b111, F(1)),)


def test_glue_quasi_demand_arithmetic():
    # a side dominating the cut vertex with prob 3/5 glued with a 4/5 side
    # must reach min(1, 3/5 + 4/5 - 2/5) = 1
    from fdomlab.figures import exceptional_colouring
    from fdomlab.distributions import colouring_to_distribution
    entry = exceptional_colouring("fig4a-C4-quasi")   # marked vertex 0 sees 3/5
    c4 = entry.graph
    d0 = colouring_to_distribution(entry.phi)
    # other side: a 5-cycle with full domination (f = 1 >= 4/5) at the joint
    d1 = c5_pairs()
    g = Graph(8, list(c4.edges()) + [(0, 4), (4, 5), (5, 6), (6, 7), (7, 0)])
    g1, map1 = g.induced([0, 4, 5, 6, 7])
    d1 = relabel(c5_pairs(), [0, 1, 2, 3, 4])
    out = glue_at_cutvertex(d0, c4, [0, 1, 2, 3], d1, g1, map1, 0, F(2, 5))
    assert dominated_prob(out, g, 0) == 1
    ok, why = verify_f_dominating(g, out, constant_demand(F(1)), F(2, 5))
    assert ok, why


def test_corner_stats():
    d = c5_pairs()
    alpha, beta = corner_stats(d, 0, 2, F(2, 5))
    assert alpha == F(1, 2)  # {0,2} is one of the two atoms containing 2
    assert beta == F(2, 3)
    assert beta >= alpha


def test_extend_requires_structure():
    d = c5_pairs()
    bad_d0 = DominatingDistribution(1, ((0b11, 1),))  # endpoints co-occur
    with pytest.raises(DistributionError):
        extend_over_pair(d, 0, 1, bad_d0, bad_d0, F(2, 5))
    # the host's membership is checked at each endpoint
    for host in (d, DominatingDistribution.from_pairs([(0b01, F(1, 3)), (0, F(2, 3))]),
                 DominatingDistribution.from_pairs([(0b10, F(1, 3)), (0, F(2, 3))])):
        with pytest.raises(DistributionError, match="host membership at the pair"):
            extend_over_pair(host, 0, 1, bad_d0, bad_d0, F(1, 3))


def test_extend_alpha_zero_branch():
    # host: 6-cycle pairs-distribution where u,v = antipodal vertices are
    # never co-selected
    g6 = cycle(6)
    atoms = {mask_of([i, i + 2, (i + 4) % 6]): F(1, 3) for i in range(2)}
    atoms[mask_of([2, 4, 0])] = atoms.pop(mask_of([2, 4, 0]))  # dedupe no-op
    d = DominatingDistribution.from_pairs(
        {mask_of([0, 2]): F(1, 6), mask_of([2, 4]): F(1, 6), mask_of([4, 0]): F(1, 6),
         mask_of([1, 3]): F(1, 6), mask_of([3, 5]): F(1, 6), mask_of([5, 1]): F(1, 6)}.items())
    # u=0, v=3 never co-occur: alpha = 0
    alpha, _ = corner_stats(d, 0, 3, F(1, 3))
    assert alpha == 0
    d0 = DominatingDistribution.from_pairs(
        {mask_of([0, 7]): F(1, 3), mask_of([3, 8]): F(1, 3), mask_of([7, 8]): F(1, 3)}.items())
    d1 = DominatingDistribution.from_pairs(
        {mask_of([0, 3, 7]): F(1, 3), mask_of([7, 8]): F(2, 3)}.items())
    out = extend_over_pair(d, 0, 3, d0, d1, F(1, 3))
    assert membership(out, 0) == F(1, 3) and membership(out, 3) == F(1, 3)
    # the identified-endpoints piece never fires with alpha = 0
    for s, _ in out.atoms:
        assert not ((s >> 0) & 1 and (s >> 3) & 1)


def host_c5_with_path(length: int):
    """C5 on 0..4 plus a suspended path of the given length from 0 to 2."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    prev = 0
    nxt = 5
    for _ in range(length - 1):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    edges.append((prev, 2))
    g = Graph(nxt, edges)
    verts = [0] + list(range(5, nxt)) + [2]
    return g, SuspendedPath(tuple(verts))


def test_attach_suspended_path_lengths():
    for length in (4, 5, 6, 7, 9):
        g, p = host_c5_with_path(length)
        out = attach_suspended_path(c5_pairs(), p, F(2, 5), g.n)
        ok, why = verify_f_dominating(g, out, constant_demand(F(1)), F(2, 5))
        assert ok, (length, why)


def test_attach_boundary_rates():
    g, p = host_c5_with_path(6)
    # k = 2: k/(3k-1) = 2/5 <= r is the exact boundary
    out = attach_suspended_path(c5_pairs(), p, F(2, 5), g.n)
    assert membership(out, 5) == F(2, 5)
    g, p = host_c5_with_path(3)
    # k = 1 would need r >= 1/2, impossible below 1/2: rejected
    with pytest.raises(DistributionError):
        attach_suspended_path(c5_pairs(), p, F(2, 5), g.n)


def test_attach_preserves_host_values():
    g, p = host_c5_with_path(5)
    host = c5_pairs()
    out = attach_suspended_path(host, p, F(2, 5), g.n)
    for v in range(5):
        assert membership(out, v) == F(2, 5)
        assert dominated_prob(out, g, v) >= dominated_prob(host, cycle(5), v)


# -- reference: the per-event gluing, one filter pass per event ----------


def _condition(d, pred):
    atoms = {s: p for s, p in fractions(d) if pred(s)}
    return atoms, sum(atoms.values(), F(0))


def _split3(d, v, nbr_mask):
    return (_condition(d, lambda s: (s >> v) & 1),
            _condition(d, lambda s: not (s >> v) & 1 and s & nbr_mask),
            _condition(d, lambda s: not (s >> v) & 1 and not s & nbr_mask))


def _couple_into(out, mass, left, right):
    if mass == 0:
        return
    (la, lm), (ra, rm) = left, right
    for s0, p0 in la.items():
        for s1, p1 in ra.items():
            key = s0 | s1
            out[key] = out.get(key, F(0)) + mass * p0 * p1 / (lm * rm)


def reference_glue(d0, g0, map0, d1, g1, map1, v, r):
    lifted0, lifted1 = relabel(d0, map0), relabel(d1, map1)
    n0 = mask_of(map0[u] for u in range(g0.n) if g0.has_edge(map0.index(v), u))
    n1 = mask_of(map1[u] for u in range(g1.n) if g1.has_edge(map1.index(v), u))
    a0, b0, c0 = _split3(lifted0, v, n0)
    a1, b1, c1 = _split3(lifted1, v, n1)
    pb0, pc0, pb1, pc1 = b0[1], c0[1], b1[1], c1[1]
    out = {}
    if pb0 + pb1 >= 1 - r:
        _couple_into(out, r, a0, a1)
        _couple_into(out, pc0, c0, b1)
        _couple_into(out, pc1, b0, c1)
        _couple_into(out, 1 - r - pc0 - pc1, b0, b1)
    else:
        _couple_into(out, r, a0, a1)
        _couple_into(out, pb0, b0, c1)
        _couple_into(out, pb1, c0, b1)
        _couple_into(out, 1 - r - pb0 - pb1, c0, c1)
    return DominatingDistribution.from_pairs(out.items())


def reference_extend(d_host, u, v, d0, d1, r):
    host_uv = _condition(d_host, lambda s: (s >> u) & 1 and (s >> v) & 1)
    host_u = _condition(d_host, lambda s: (s >> u) & 1 and not (s >> v) & 1)
    host_v = _condition(d_host, lambda s: not (s >> u) & 1 and (s >> v) & 1)
    host_n = _condition(d_host, lambda s: not (s >> u) & 1 and not (s >> v) & 1)
    out = {}
    _couple_into(out, host_uv[1], host_uv, _condition(d1, lambda s: (s >> u) & 1))
    _couple_into(out, host_u[1], host_u, _condition(d0, lambda s: (s >> u) & 1))
    _couple_into(out, host_v[1], host_v, _condition(d0, lambda s: (s >> v) & 1))
    if host_n[1]:
        alpha, beta = host_uv[1] / r, host_n[1] / (1 - r)
        nu = _condition(d1, lambda s: not (s >> u) & 1)
        nn = _condition(d0, lambda s: not (s >> u) & 1 and not (s >> v) & 1)
        _couple_into(out, host_n[1] * alpha / beta, host_n, nu)
        _couple_into(out, host_n[1] * (1 - alpha / beta), host_n, nn)
    return DominatingDistribution.from_pairs(out.items())


def random_groups(rng, groups):
    """A distribution with the given total mass on each group, spread over
    random atoms drawn by each group's sampler."""
    out = {}
    for mass, draw in groups:
        if mass == 0:
            continue
        weights = {}
        for _ in range(rng.randint(1, 4)):
            s = draw()
            weights[s] = weights.get(s, 0) + rng.randint(1, 5)
        total = sum(weights.values())
        for s, w in weights.items():
            out[s] = out.get(s, F(0)) + mass * F(w, total)
    return DominatingDistribution.from_pairs(out.items())


def random_side(rng, k, r, groups=random_groups):
    """A connected graph on k vertices with local vertex 0 the cut vertex,
    and a distribution with membership r at 0."""
    edges = {(rng.randrange(w), w) for w in range(1, k)}
    edges |= {(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.3}
    d = groups(rng, [(r, lambda: rng.randrange(1 << k) | 1),
                     (1 - r, lambda: rng.randrange(1 << k) & ~1)])
    return Graph(k, edges), d


def project(d, vertices):
    mask = mask_of(vertices)
    return DominatingDistribution.from_pairs((s & mask, p) for s, p in fractions(d))


def test_glue_matches_the_per_event_reference():
    rng = random.Random(5)
    rich = thin = 0
    for _ in range(300):
        r = rng.choice([F(1, 5), F(1, 4), F(1, 3), F(2, 5)])
        k0, k1 = rng.randint(2, 5), rng.randint(2, 5)
        g0, d0 = random_side(rng, k0, r)
        g1, d1 = random_side(rng, k1, r)
        n = k0 + k1 - 1
        v = rng.randrange(n)
        others = [w for w in range(n) if w != v]
        rng.shuffle(others)
        map0 = [v] + others[:k0 - 1]
        map1 = [v] + others[k0 - 1:]
        g = Graph(n, [(map0[a], map0[b]) for a, b in g0.edges()] +
                  [(map1[a], map1[b]) for a, b in g1.edges()])
        out = glue_at_cutvertex(d0, g0, map0, d1, g1, map1, v, r)
        assert fractions(out) == fractions(reference_glue(d0, g0, map0, d1, g1, map1, v, r))
        lifted0, lifted1 = relabel(d0, map0), relabel(d1, map1)
        assert project(out, map0) == lifted0
        assert project(out, map1) == lifted1
        f0, f1 = dominated_prob(d0, g0, 0), dominated_prob(d1, g1, 0)
        assert dominated_prob(out, g, v) >= min(1, f0 + f1 - r)
        # f = r + P(v out, a neighbour in): the rich plan runs iff f0 + f1 - r >= 1
        if f0 + f1 - r >= 1:
            rich += 1
        else:
            thin += 1
    assert rich > 20 and thin > 20


def test_glue_thin_coverage_on_two_edges():
    # P3 as two K2 sides at the middle: P(a neighbour in, v out) = r on
    # each side, so 2r < 1 - r at r = 1/4 takes the thin-coverage plan
    k2 = Graph(2, [(0, 1)])
    r = F(1, 4)
    side = DominatingDistribution.from_pairs({0b01: r, 0b10: r, 0: 1 - 2 * r}.items())
    out = glue_at_cutvertex(side, k2, [1, 0], side, k2, [1, 2], 1, r)
    assert fractions(out) == fractions(reference_glue(side, k2, [1, 0], side, k2, [1, 2], 1, r))
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert dominated_prob(out, p3, 1) == 3 * r  # f0 + f1 - r, below 1
    assert all(membership(out, w) == r for w in range(3))


def random_pair_inputs(rng, r, m_uv, groups=random_groups):
    """A host on 0..5 with membership r at u = 0 and v = 1 and P(both in)
    = m_uv, and path pieces on 0, 1 and internal vertices 6..8."""
    host_rest = lambda: rng.randrange(1 << 6) & ~0b11
    host = groups(rng, [(m_uv, lambda: host_rest() | 0b11),
                        (r - m_uv, lambda: host_rest() | 0b01),
                        (r - m_uv, lambda: host_rest() | 0b10),
                        (1 - 2 * r + m_uv, host_rest)])
    inner = lambda: rng.randrange(1 << 3) << 6
    third = F(1, 3)
    d0 = groups(rng, [(third, lambda: inner() | 0b01),
                      (third, lambda: inner() | 0b10), (third, inner)])
    d1 = groups(rng, [(F(1, 2), lambda: inner() | 0b11), (F(1, 2), inner)])
    return host, d0, d1


def test_extend_over_pair_matches_the_per_event_reference():
    rng = random.Random(8)
    for trial in range(200):
        r = rng.choice([F(1, 5), F(1, 4), F(1, 3), F(2, 5)])
        m_uv = F(0) if trial % 2 else r * F(rng.randint(1, 4), 5)
        host, d0, d1 = random_pair_inputs(rng, r, m_uv)
        out = extend_over_pair(host, 0, 1, d0, d1, r)
        assert fractions(out) == fractions(reference_extend(host, 0, 1, d0, d1, r))
        assert project(out, range(6)) == host
        assert membership(out, 0) == r and membership(out, 1) == r


LARGE_PRIMES = [2 ** 31 - 1, 10 ** 9 + 7, 10 ** 9 + 9, 10 ** 9 + 21, 10 ** 9 + 33,
                10 ** 9 + 87, 10 ** 9 + 93, 10 ** 9 + 97, 10 ** 9 + 103]


def prime_groups(rng, groups):
    """Like random_groups, but each group's mass is split over its own large
    prime, so every group has a different common denominator."""
    out = {}
    for (mass, draw), prime in zip(groups, rng.sample(LARGE_PRIMES, len(groups))):
        if mass == 0:
            continue
        cuts = sorted(rng.sample(range(1, prime), rng.randint(0, 3)))
        for lo, hi in zip([0] + cuts, cuts + [prime]):
            s = draw()
            out[s] = out.get(s, F(0)) + mass * F(hi - lo, prime)
    return DominatingDistribution.from_pairs(out.items())


def test_coupling_over_large_mixed_denominators_matches_the_references():
    rng = random.Random(13)
    rates = [F(1, 5), F(2, 5), F(333333331, 10 ** 9 + 7)]
    widest = 0
    for _ in range(60):
        r = rng.choice(rates)
        k0, k1 = rng.randint(2, 5), rng.randint(2, 5)
        g0, d0 = random_side(rng, k0, r, prime_groups)
        g1, d1 = random_side(rng, k1, r, prime_groups)
        map0, map1 = list(range(k0)), [0] + list(range(k0, k0 + k1 - 1))
        out = glue_at_cutvertex(d0, g0, map0, d1, g1, map1, 0, r)
        assert fractions(out) == fractions(reference_glue(d0, g0, map0, d1, g1, map1, 0, r))
        widest = max(widest, *(p.denominator for _, p in fractions(out)))
    for trial in range(60):
        r = rng.choice(rates)
        m_uv = F(0) if trial % 2 else r * F(rng.randint(1, 10 ** 9 + 8), 10 ** 9 + 9)
        host, d0, d1 = random_pair_inputs(rng, r, m_uv, prime_groups)
        out = extend_over_pair(host, 0, 1, d0, d1, r)
        assert fractions(out) == fractions(reference_extend(host, 0, 1, d0, d1, r))
        widest = max(widest, *(p.denominator for _, p in fractions(out)))
    assert widest > 10 ** 27  # some atom lies over a product of three large primes


def test_extend_over_pair_has_both_out_mass():
    # with membership r < 1/2 at u and v, P(both out) = 1 - 2r + P(both in)
    # > 0; a host without it is rejected at the entry checks
    d0 = DominatingDistribution.from_pairs({0b001: F(1, 2), 0b010: F(1, 2)}.items())
    d1 = DominatingDistribution.from_pairs({0b011: F(1, 2), 0b100: F(1, 2)}.items())
    host = DominatingDistribution.from_pairs({0b01: F(1, 2), 0b10: F(1, 2)}.items())
    for r in (F(1, 2), F(2, 5)):
        with pytest.raises(DistributionError):
            extend_over_pair(host, 0, 1, d0, d1, r)
