import json
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.distributions import (DistributionError, DominatingDistribution,
                                   FractionalColouring,
                                   colouring_to_distribution, complete_to_r,
                                   constant_demand, cycle_distribution,
                                   distribution_to_colouring, relabel, standard_demand,
                                   verify_f_dominating)
from fdomlab.generators import complete_bipartite, cycle
from fdomlab.graphs import Graph, mask_of

from distview import dominated_prob, fractions, membership


def c5_pairs():
    return DominatingDistribution.from_pairs(
        {mask_of([i, (i + 2) % 5]): F(1, 5) for i in range(5)}.items())


def test_membership_and_dominated_eval():
    d = c5_pairs()
    g = cycle(5)
    # independent check: each vertex lies in exactly 2 of the 5 pairs
    for v in range(5):
        assert membership(d, v) == F(2, 5)
        assert dominated_prob(d, g, v) == 1


def test_point_mass():
    g = cycle(4)
    d = DominatingDistribution(1, (((1 << 4) - 1, 1),))
    for v in range(4):
        assert membership(d, v) == 1
        assert dominated_prob(d, g, v) == 1


def test_probabilities_must_sum_to_one():
    with pytest.raises(DistributionError):
        DominatingDistribution.from_pairs({0b1: F(1, 2)}.items())
    with pytest.raises(DistributionError):
        DominatingDistribution.from_pairs({0b1: F(3, 2), 0b10: F(-1, 2)}.items())


def test_from_pairs_sums_repeated_masks():
    d = DominatingDistribution.from_pairs(
        [(0b01, F(1, 5)), (0b10, F(2, 5)), (0b01, F(1, 5)), (0b11, F(0)), (0, F(1, 5))])
    assert fractions(d) == ((0, F(1, 5)), (0b01, F(2, 5)), (0b10, F(2, 5)))
    with pytest.raises(DistributionError):
        DominatingDistribution.from_pairs([(0b01, F(3, 2)), (0b10, F(-1, 2))])
    with pytest.raises(DistributionError):
        DominatingDistribution.from_pairs([(0b01, F(1, 2)), (0b01, F(1, 3))])


@given(den=st.integers(1, 60), seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_from_numerators_on_random_pairs(den, seed):
    rng = random.Random(seed)
    # den split into random parts on a few masks, with repeats and zeros
    cuts = sorted(rng.choices(range(den + 1), k=rng.randint(0, 6)))
    pairs = [(rng.randrange(8), hi - lo) for lo, hi in zip([0] + cuts, cuts + [den])]
    pairs.append((rng.randrange(8), 0))
    d = DominatingDistribution.from_numerators(den, pairs)
    want = Counter()
    for s, a in pairs:
        want[s] += F(a, den)
    assert fractions(d) == tuple(sorted((s, p) for s, p in want.items() if p))
    masks = [s for s, _ in d.atoms]
    nums = [a for _, a in d.atoms]
    assert masks == sorted(set(masks)) and min(nums) > 0
    assert sum(nums) == d.den and gcd(d.den, *nums) == 1
    back, r = DominatingDistribution.from_json(json.loads(json.dumps(d.to_json(F(1, 3)))))
    assert back == d and r == F(1, 3)
    # the sign is checked before the total
    with pytest.raises(DistributionError, match="^negative atom probability$"):
        DominatingDistribution.from_numerators(den, pairs + [(16, -1)])
    with pytest.raises(DistributionError, match="^probabilities must sum to exactly 1$"):
        DominatingDistribution.from_numerators(den + 1, pairs)


def test_verify_f_dominating():
    g = cycle(5)
    d = c5_pairs()
    assert verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))[0]
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(1, 2))
    assert not ok and "membership" in why
    k2 = Graph(2, [(0, 1)])
    d = DominatingDistribution(1, ((0b01, 1),))
    ok, _ = verify_f_dominating(k2, d, constant_demand(F(1)), F(1))
    assert not ok  # vertex 1 never in the set


def test_colouring_to_distribution_fig_7_3():
    shift = [frozenset(((i + 3 * k) % 7) + 1 for k in range(3)) for i in range(7)]
    phi = FractionalColouring(7, 3, tuple(shift))
    d = colouring_to_distribution(phi)
    g = cycle(7)
    assert len(d.atoms) == 7
    for v in range(7):
        assert membership(d, v) == F(3, 7)
        assert dominated_prob(d, g, v) == 1


def test_constant_colouring_gives_point_mass():
    phi = FractionalColouring(1, 1, (frozenset({1}),) * 3)
    d = colouring_to_distribution(phi)
    assert fractions(d) == ((0b111, F(1)),)


def test_colouring_colours_must_be_integers():
    # 2.5 and True lie in [1, p]; on the triangle {1}, {2}, {2.5} would span
    # p = 3 colours while colour 3's class is empty
    for bad in (2.5, True):
        with pytest.raises(DistributionError):
            FractionalColouring(3, 1, (frozenset({1}), frozenset({2}), frozenset({bad})))


def test_distribution_to_colouring_roundtrip():
    d = c5_pairs()
    phi = distribution_to_colouring(d, 5)
    assert (phi.p, phi.q) == (5, 2)
    back = colouring_to_distribution(phi)
    g = cycle(5)
    for v in range(5):
        assert membership(back, v) == membership(d, v)
        assert dominated_prob(back, g, v) == dominated_prob(d, g, v)


def test_distribution_to_colouring_lcm():
    d = DominatingDistribution.from_pairs({0b001: F(1, 2), 0b010: F(1, 3), 0b100: F(1, 6)}.items())
    with pytest.raises(DistributionError):
        distribution_to_colouring(d, 3)  # memberships differ
    # lcm replication: probabilities 1/6, 1/3, 1/3, 1/6 become 1,2,2,1 slots
    d2 = DominatingDistribution.from_pairs(
        {0b11: F(1, 6), 0b01: F(1, 3), 0b10: F(1, 3), 0b00: F(1, 6)}.items())
    phi = distribution_to_colouring(d2, 2)
    assert phi.p == 6 and phi.q == 3
    assert [len(phi.assignment[v]) for v in range(2)] == [3, 3]


def test_distribution_to_colouring_rejects_out_of_range_vertex():
    d = c5_pairs()
    with pytest.raises(DistributionError, match="^vertex 4 out of range for n=4$"):
        distribution_to_colouring(d, 4)
    with pytest.raises(DistributionError, match="^vertex 0 out of range for n=0$"):
        distribution_to_colouring(d, 0)


def test_complete_to_r_identity_and_k2():
    d = c5_pairs()
    assert complete_to_r(d, F(2, 5), 5) == d
    # vertex 1 is below the target and gets the forced exact masses
    d = DominatingDistribution.from_pairs({0b01: F(1, 2), 0b00: F(1, 2)}.items())
    out = complete_to_r(d, F(1, 2), 2)
    assert dict(fractions(out)) == {0b01: F(1, 2), 0b10: F(1, 2)}
    assert membership(out, 0) == membership(out, 1) == F(1, 2)
    with pytest.raises(DistributionError):
        # membership 1 > 1/2 at 0
        complete_to_r(DominatingDistribution(1, ((0b01, 1),)), F(1, 2), 2)


def test_complete_to_r_monotone(corpus7):
    import random
    rng = random.Random(9)
    for g in rng.sample(corpus7, 15):
        full = (1 << g.n) - 1
        atoms = {full: F(1, 3), 0: F(1, 3), 1: F(1, 3)}
        d = DominatingDistribution.from_pairs(atoms.items())
        before = [dominated_prob(d, g, v) for v in range(g.n)]
        out = complete_to_r(d, F(3, 4), g.n)
        for v in range(g.n):
            assert membership(out, v) == F(3, 4)
            assert dominated_prob(out, g, v) >= before[v]


def test_cycle_distribution():
    d = cycle_distribution(5)
    assert len(d.atoms) == 5
    assert all(membership(d, v) == F(2, 5) for v in range(5))
    d = cycle_distribution(3)
    assert all(membership(d, v) == F(1, 3) for v in range(3))
    d = cycle_distribution(7)
    assert all(membership(d, v) == F(3, 7) for v in range(7))
    g = cycle(9)
    d = cycle_distribution(9)
    assert all(dominated_prob(d, g, v) == 1 for v in range(9))


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
    d = DominatingDistribution(1, ((0b011, 1),))
    out = relabel(d, [4, 2, 0])
    assert fractions(out) == ((0b10100, F(1)),)


# -- integer accounting against per-vertex Fraction sums --------------------


def closed_neighbourhood(g, v):
    return {v} | {u for u in range(g.n) if g.has_edge(v, u)}


def ref_membership(d, v):
    return sum((p for s, p in fractions(d) if (s >> v) & 1), F(0))


def ref_domination(g, d, v):
    nb = closed_neighbourhood(g, v)
    return sum((p for s, p in fractions(d) if any((s >> u) & 1 for u in nb)), F(0))


def reference_verify(g, d, f, r):
    """verify_f_dominating's contract, one Fraction sum per vertex."""
    for s, _ in d.atoms:
        high = [v for v in range(g.n, s.bit_length()) if (s >> v) & 1]
        if high:
            return False, f"vertex {high[0]} out of range for n={g.n}"
    for v in range(g.n):
        member = ref_membership(d, v)
        if member != r:
            return False, f"membership {member} != {r} at vertex {v}"
        dom = ref_domination(g, d, v)
        if dom < f(v):
            return False, f"domination {dom} < demand {f(v)} at vertex {v}"
    return True, "ok"


def seeded_graph(n, seed):
    rng = random.Random(seed)
    p = rng.choice([0.2, 0.35, 0.5, 0.8])
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def shift_mixture(rng, n):
    """A mixture of the n cyclic shifts of random b-sets, with random
    rational weights: membership exactly b/n at every vertex."""
    b = rng.randint(1, n)
    weights = [F(rng.randint(1, 5), rng.choice([1, 3, 7])) for _ in range(rng.randint(1, 3))]
    total = sum(weights)
    pairs = []
    for w in weights:
        base = rng.sample(range(n), b)
        pairs += [(mask_of((x + t) % n for x in base), w / total / n) for t in range(n)]
    return DominatingDistribution.from_pairs(pairs), F(b, n)


def random_distribution(rng, n):
    raw = [F(rng.randint(1, 9), rng.choice([1, 2, 3, 5, 9])) for _ in range(rng.randint(1, 6))]
    total = sum(raw)
    return DominatingDistribution.from_pairs((rng.randrange(1 << n), p / total) for p in raw)


def scale_of(d, r):
    return lcm(r.denominator, *(p.denominator for _, p in fractions(d)))


@pytest.mark.parametrize("case", ["random", "tight", "above", "r_off", "moved", "high"])
@given(n=st.integers(1, 10), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_verify_f_dominating_matches_fraction_reference(case, n, seed):
    g = seeded_graph(n, seed)
    rng = random.Random(seed)
    if case == "random":
        d = random_distribution(rng, n)
        r = rng.choice([F(2, 5), F(1, 3), F(3, 7), F(2, 9), F(1)])
        f = rng.choice([constant_demand(F(4, 5)), constant_demand(F(1)),
                        constant_demand(F(2, 3)), standard_demand(g)])
        assert verify_f_dominating(g, d, f, r) == reference_verify(g, d, f, r)
        return
    d, r = shift_mixture(rng, n)
    big = scale_of(d, r)
    if case == "r_off":
        r += rng.choice([-1, 1]) * F(1, big)  # every membership off by 1/lcm
    elif case == "moved":
        # 1/lcm of one atom's mass moves to the atom with v toggled: only
        # v's membership changes
        s, _ = rng.choice(d.atoms)
        v = rng.randrange(n)
        d = DominatingDistribution.from_pairs(
            list(fractions(d)) + [(s, -F(1, big)), (s ^ (1 << v), F(1, big))])
    elif case == "high":
        i = rng.randrange(len(d.atoms))
        extra = 1 << (n + rng.randrange(3))
        d = DominatingDistribution(d.den, tuple(
            (s | extra if j == i else s, a) for j, (s, a) in enumerate(d.atoms)))
    low = min(ref_domination(g, d, v) for v in range(n))
    # "tight" meets the lowest domination exactly; "above" misses it by 1/lcm
    f = constant_demand(low + F(1, scale_of(d, r)) if case == "above" else low)
    ok, why = verify_f_dominating(g, d, f, r)
    assert (ok, why) == reference_verify(g, d, f, r)
    expected = {"tight": "ok", "above": "domination", "r_off": "membership",
                "moved": "membership", "high": "vertex"}[case]
    assert why.startswith(expected) and ok == (case == "tight")


def reference_complete_to_r(d, r, n):
    """complete_to_r as a per-vertex re-sum over the growing atom map."""
    atom_map = dict(fractions(d))
    for v in range(n):
        have = sum((p for s, p in atom_map.items() if (s >> v) & 1), F(0))
        if have > r:
            raise DistributionError(f"membership {have} exceeds target {r} at vertex {v}")
        need = r - have
        if need == 0:
            continue
        for s in sorted(atom_map):
            if (s >> v) & 1:
                continue
            p = atom_map[s]
            take = min(p, need)
            atom_map[s] = p - take
            grown = s | (1 << v)
            atom_map[grown] = atom_map.get(grown, F(0)) + take
            need -= take
            if need == 0:
                break
        if need != 0:
            raise DistributionError(f"insufficient mass to complete membership at vertex {v}")
        atom_map = {s: p for s, p in atom_map.items() if p != 0}
    return DominatingDistribution.from_pairs(atom_map.items())


def test_complete_to_r_matches_resumming_reference():
    rng = random.Random(2024)
    outcomes = Counter()
    for _ in range(400):
        n = rng.randint(1, 8)
        # up to `mass` on random nonempty sets, the rest on the empty set
        mass = rng.choice([F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1)])
        raw = [F(rng.randint(1, 9), rng.choice([1, 2, 3, 5, 7])) for _ in range(rng.randint(1, 6))]
        total = sum(raw)
        pairs = [(rng.randrange(1, 1 << n), mass * p / total) for p in raw]
        d = DominatingDistribution.from_pairs(pairs + [(0, 1 - mass)])
        r = rng.choice([F(2, 5), F(1, 3), F(3, 7), F(1, 2), F(2, 3), F(1), F(4, 3)])
        try:
            want = reference_complete_to_r(d, r, n)
        except DistributionError as e:
            with pytest.raises(DistributionError) as got:
                complete_to_r(d, r, n)
            assert str(got.value) == str(e)
            outcomes[str(e).split()[0]] += 1
            continue
        out = complete_to_r(d, r, n)
        assert fractions(out) == fractions(want)
        assert gcd(out.den, *(a for _, a in out.atoms)) == 1
        outcomes["completed"] += 1
    assert outcomes["completed"] and outcomes["membership"] and outcomes["insufficient"]

