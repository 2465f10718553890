import json
from fractions import Fraction as F

import pytest

from fdomlab.distributions import (DistributionError, DominatingDistribution,
                                   FractionalColouring,
                                   colouring_to_distribution, complete_to_r,
                                   constant_demand, cycle_distribution,
                                   distribution_to_colouring, point_mass,
                                   relabel, standard_demand,
                                   verify_f_dominating)
from fdomlab.generators import complete_bipartite, cycle
from fdomlab.graphs import Graph, mask_of


def c5_pairs():
    return DominatingDistribution.from_map(
        {mask_of([i, (i + 2) % 5]): F(1, 5) for i in range(5)})


def test_membership_and_dominated_eval():
    d = c5_pairs()
    g = cycle(5)
    # independent check: each vertex lies in exactly 2 of the 5 pairs
    for v in range(5):
        assert d.membership(v) == F(2, 5)
        assert d.dominated_prob(g, v) == 1


def test_point_mass():
    g = cycle(4)
    d = point_mass((1 << 4) - 1)
    for v in range(4):
        assert d.membership(v) == 1
        assert d.dominated_prob(g, v) == 1


def test_probabilities_must_sum_to_one():
    with pytest.raises(DistributionError):
        DominatingDistribution.from_map({0b1: F(1, 2)})
    with pytest.raises(DistributionError):
        DominatingDistribution.from_map({0b1: F(3, 2), 0b10: F(-1, 2)})


def test_from_pairs_sums_repeated_masks():
    d = DominatingDistribution.from_pairs(
        [(0b01, F(1, 5)), (0b10, F(2, 5)), (0b01, F(1, 5)), (0b11, F(0)), (0, F(1, 5))])
    assert d.atoms == ((0, F(1, 5)), (0b01, F(2, 5)), (0b10, F(2, 5)))
    with pytest.raises(DistributionError):
        DominatingDistribution.from_pairs([(0b01, F(3, 2)), (0b10, F(-1, 2))])
    with pytest.raises(DistributionError):
        DominatingDistribution.from_pairs([(0b01, F(1, 2)), (0b01, F(1, 3))])


def test_verify_f_dominating():
    g = cycle(5)
    d = c5_pairs()
    assert verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))[0]
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(1, 2))
    assert not ok and "membership" in why
    k2 = Graph(2, [(0, 1)])
    d = point_mass(0b01)
    ok, _ = verify_f_dominating(k2, d, constant_demand(F(1)), F(1))
    assert not ok  # vertex 1 never in the set


def test_colouring_to_distribution_fig_7_3():
    shift = [frozenset(((i + 3 * k) % 7) + 1 for k in range(3)) for i in range(7)]
    phi = FractionalColouring(7, 3, tuple(shift))
    d = colouring_to_distribution(phi)
    g = cycle(7)
    assert len(d.atoms) == 7
    for v in range(7):
        assert d.membership(v) == F(3, 7)
        assert d.dominated_prob(g, v) == 1


def test_constant_colouring_gives_point_mass():
    phi = FractionalColouring(1, 1, (frozenset({1}),) * 3)
    d = colouring_to_distribution(phi)
    assert d.atoms == ((0b111, F(1)),)


def test_distribution_to_colouring_roundtrip():
    d = c5_pairs()
    phi = distribution_to_colouring(d, 5)
    assert (phi.p, phi.q) == (5, 2)
    back = colouring_to_distribution(phi)
    g = cycle(5)
    for v in range(5):
        assert back.membership(v) == d.membership(v)
        assert back.dominated_prob(g, v) == d.dominated_prob(g, v)


def test_distribution_to_colouring_lcm():
    d = DominatingDistribution.from_map({0b001: F(1, 2), 0b010: F(1, 3), 0b100: F(1, 6)})
    with pytest.raises(DistributionError):
        distribution_to_colouring(d, 3)  # memberships differ
    # lcm replication: probabilities 1/6, 1/3, 1/3, 1/6 become 1,2,2,1 slots
    d2 = DominatingDistribution.from_map(
        {0b11: F(1, 6), 0b01: F(1, 3), 0b10: F(1, 3), 0b00: F(1, 6)})
    phi = distribution_to_colouring(d2, 2)
    assert phi.p == 6 and phi.q == 3
    assert [len(phi.assignment[v]) for v in range(2)] == [3, 3]


def test_complete_to_r_identity_and_k2():
    d = c5_pairs()
    assert complete_to_r(d, F(2, 5), 5) == d
    # vertex 1 is below the target and gets the forced exact masses
    d = DominatingDistribution.from_map({0b01: F(1, 2), 0b00: F(1, 2)})
    out = complete_to_r(d, F(1, 2), 2)
    assert dict(out.atoms) == {0b01: F(1, 2), 0b10: F(1, 2)}
    assert out.membership(0) == out.membership(1) == F(1, 2)
    with pytest.raises(DistributionError):
        complete_to_r(point_mass(0b01), F(1, 2), 2)  # membership 1 > 1/2 at 0


def test_complete_to_r_monotone(corpus7):
    import random
    rng = random.Random(9)
    for g in rng.sample(corpus7, 15):
        full = (1 << g.n) - 1
        atoms = {full: F(1, 3), 0: F(1, 3), 1: F(1, 3)}
        d = DominatingDistribution.from_map(atoms)
        before = [d.dominated_prob(g, v) for v in range(g.n)]
        out = complete_to_r(d, F(3, 4), g.n)
        for v in range(g.n):
            assert out.membership(v) == F(3, 4)
            assert out.dominated_prob(g, v) >= before[v]


def test_cycle_distribution():
    d = cycle_distribution(5)
    assert len(d.atoms) == 5
    assert all(d.membership(v) == F(2, 5) for v in range(5))
    d = cycle_distribution(3)
    assert all(d.membership(v) == F(1, 3) for v in range(3))
    d = cycle_distribution(7)
    assert all(d.membership(v) == F(3, 7) for v in range(7))
    g = cycle(9)
    d = cycle_distribution(9)
    assert all(d.dominated_prob(g, v) == 1 for v in range(9))


def test_distribution_json_roundtrip():
    d = c5_pairs()
    blob = json.dumps(d.to_json(F(2, 5)))
    back, r = DominatingDistribution.from_json(json.loads(blob))
    assert back == d and r == F(2, 5)


def test_colouring_json_roundtrip():
    phi = FractionalColouring(5, 2, (frozenset({1, 2}), frozenset({3, 4})))
    back = FractionalColouring.from_json(json.loads(json.dumps(phi.to_json())))
    assert back == phi


def test_relabel():
    d = point_mass(0b011)
    out = relabel(d, [4, 2, 0])
    assert out.atoms == ((0b10100, F(1)),)
