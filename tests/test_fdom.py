import json
import random
import tracemalloc
from fractions import Fraction as F
from functools import reduce

import pytest

from fdomlab.chromatic import fractional_chromatic
from fdomlab import fdom
from fdomlab.domset import CapExceeded, domatic_number, domination_number, is_dominating
from fdomlab.enumerate_graphs import all_graphs
from fdomlab.fdom import (SAMPLE_CHUNK, CertificateError, DualCertificate,
                          PrimalCertificate, SampleReport, certificate_from_json,
                          closed_form_certificate, fdom_colgen, fdom_exact,
                          girth6_certificate, neighbourhood_certificate,
                          pq_colouring_exists, sample_lnbound, verify_dual,
                          verify_primal)
from fdomlab.generators import (complete, complete_bipartite, coxeter, cycle,
                                girth6_family, hypercube, incidence_graph,
                                join_with_clique, kneser, theta_graph)
from fdomlab.distributions import DistributionError, FractionalColouring
from fdomlab.graphs import Graph, mask_of
from fdomlab.structure import hammocks
from fdomlab.iso import orbits


def test_fdom_cycles_formula():
    for n in range(3, 13):
        assert fdom_exact(cycle(n)).value == F(n, -(-n // 3))


def test_fdom_c4_is_two():
    assert fdom_exact(cycle(4)).value == 2


def test_fdom_k32():
    assert fdom_exact(complete_bipartite(3, 2)).value == F(7, 3)


def test_fdom_girth6_small():
    assert fdom_exact(girth6_family(2)).value == F(8, 3)


def test_result_carries_matching_certificates():
    res = fdom_exact(cycle(5))
    assert res.value == F(5, 2)
    assert res.primal.objective == res.dual.total == res.value
    assert verify_primal(cycle(5), res.primal) == (True, "ok")
    assert verify_dual(cycle(5), res.dual) == (True, "ok")


def is_domatic_partition(g, res):
    """True iff the primal is delta+1 disjoint classes covering V, each at
    weight 1."""
    sets = [s for s, _ in res.primal.columns]
    return (len(sets) == g.min_degree() + 1
            and all(x == 1 for _, x in res.primal.columns)
            and sum(s.bit_count() for s in sets) == g.n
            and reduce(int.__or__, sets, 0) == (1 << g.n) - 1)


@pytest.mark.parametrize("g", [cycle(6), complete(4)], ids=["C6", "K4"])
def test_domatically_full_graph_gets_the_partition_and_neighbourhood(g):
    res = fdom_exact(g)
    k = g.min_degree() + 1
    assert res.value == res.primal.objective == res.dual.value == k
    assert is_domatic_partition(g, res)
    assert all(is_dominating(g, s) for s, _ in res.primal.columns)
    assert res.dual == neighbourhood_certificate(g)
    assert verify_primal(g, res.primal) == (True, "ok")
    assert verify_dual(g, res.dual) == (True, "ok")


def test_fdom_exact_cap_comes_before_the_partition():
    # C21 is domatically full, but 21 vertices exceed the enumeration cap
    with pytest.raises(CapExceeded, match="capped at 20 vertices"):
        fdom_exact(cycle(21), cap=20)


def test_lp_agrees_with_the_partition_shortcut(corpus7_mindeg2, monkeypatch):
    with_partition = [fdom_exact(g) for g in corpus7_mindeg2]
    monkeypatch.setattr(fdom, "PARTITION_NODES", 0)  # every search overflows at once
    lp = [fdom_exact(g) for g in corpus7_mindeg2]
    assert [r.value for r in lp] == [r.value for r in with_partition]
    # the LP's optima are partitions on fewer graphs, so the search was off
    assert (sum(map(is_domatic_partition, corpus7_mindeg2, lp))
            < sum(map(is_domatic_partition, corpus7_mindeg2, with_partition)))


def test_partition_budget_finds_every_domatic_partition(corpus7_mindeg2):
    # the LP alone returns a partition on 222 of these 583 graphs; a search
    # order or budget that loses partitions shows up here
    full = [domatic_number(g)[0] == g.min_degree() + 1 for g in corpus7_mindeg2]
    found = [is_domatic_partition(g, fdom_exact(g)) for g in corpus7_mindeg2]
    assert sum(found) == sum(full) == 415
    assert found == full


def test_colgen_matches_exact(corpus7_mindeg2):
    rng = random.Random(6)
    for g in rng.sample(corpus7_mindeg2, 25):
        assert fdom_colgen(g).value == fdom_exact(g).value


def test_weak_duality_on_random_certificates(corpus7_mindeg2):
    rng = random.Random(7)
    for g in rng.sample(corpus7_mindeg2, 10):
        res = fdom_exact(g)
        nb = closed_form_certificate("neighbourhood", g=g)
        ok, _, _ = (True, 0, 0)
        assert verify_dual(g, nb)[0]
        assert nb.total >= res.primal.objective


def test_fdom_upper_bounds(corpus7_mindeg2):
    rng = random.Random(8)
    for g in rng.sample(corpus7_mindeg2, 20):
        v = fdom_exact(g).value
        gamma, _ = domination_number(g)
        assert v <= g.min_degree() + 1
        assert v <= F(g.n, gamma)


def test_verify_primal_examples():
    c5 = cycle(5)
    cols = [(mask_of([i, (i + 2) % 5]), F(1, 2)) for i in range(5)]
    cert = PrimalCertificate(cols, F(5, 2))
    assert verify_primal(c5, cert) == (True, "ok")
    bad = PrimalCertificate([(mask_of([0, 2]), F(1)), (mask_of([2, 4]), F(1))], F(2))
    ok, why = verify_primal(c5, bad)
    assert not ok and "load" in why
    ok, why = verify_primal(c5, PrimalCertificate([(mask_of([0, 7]), F(1))], F(1)))
    assert not ok and "out of range" in why


def test_kmn_certificates():
    for m, n in [(3, 2), (4, 3), (5, 5)]:
        g = complete_bipartite(m, n)
        dual = closed_form_certificate("kmn_dual", m=m, n=n)
        assert verify_dual(g, dual)[0]
        assert dual.total == 1 + n * (1 - F(1, m))
        primal = closed_form_certificate("kmn_primal", m=m, n=n)
        assert verify_primal(g, primal)[0]
        assert primal.objective == dual.total
        assert fdom_exact(g).value == dual.total


def test_neighbourhood_certificate():
    c5 = cycle(5)
    cert = closed_form_certificate("neighbourhood", g=c5, v=0)
    assert cert.total == 3
    assert verify_dual(c5, cert)[0]


def test_uniform_certificate():
    cox = coxeter()
    cert = closed_form_certificate("uniform", g=cox)
    assert cert.total == F(28, 7)
    assert verify_dual(cox, cert)[0]


def test_hammock_certificate():
    g = theta_graph((2, 3, 3))
    h = hammocks(g)[0]
    cert = closed_form_certificate("hammock", g=g, hammock=h)
    assert cert.total == F(5, 2)
    assert verify_dual(g, cert)[0]


def test_girth6_certificate():
    for n in (2, 3):
        cert = closed_form_certificate("girth6", n=n)
        assert cert.total == F(5 * n - 2, 2 * n - 1)
        assert verify_dual(girth6_family(n), cert)[0]


def test_girth6_certificate_checked_on_g4_and_g5():
    for n in (4, 5):
        g, cert = girth6_family(n), girth6_certificate(n)
        assert verify_dual(g, cert) == (True, "ok")
        # hub 0 lowered: some minimum dominating set through it drops below 1
        low = list(cert.weights)
        low[0] -= F(1, 4 * n)
        ok, why = verify_dual(g, DualCertificate(low))
        assert not ok and why.startswith("a dominating set has weight")


def test_hnd_certificate_reverified_not_trusted():
    cert = closed_form_certificate("hnd", n=8, d=2)
    g = incidence_graph(8, 2)
    ok, _ = verify_dual(g, cert)
    assert ok
    with pytest.raises(CertificateError):
        closed_form_certificate("hnd", n=7, d=2)  # d must divide n


def test_symmetric_certificate_c5():
    # the orbit master on C5: one orbit under the dihedral group
    res = fdom_colgen(cycle(5))
    cert = res.primal
    assert cert.objective == F(5, 2) and cert.generators
    assert orbits(5, cert.generators) == [[0, 1, 2, 3, 4]]
    assert verify_primal(cycle(5), cert) == (True, "ok")
    blob = json.loads(json.dumps(cert.to_json()))
    assert blob["type"] == "orbit-primal"
    again = certificate_from_json(blob)
    assert (again.columns, again.objective, again.generators) == (
        cert.columns, cert.objective, cert.generators)


ROTATION = (1, 2, 3, 4, 0)


# (generators, columns, objective, why verify_primal refuses them) on C5
BAD_ORBIT_PRIMALS = [
    ([(0, 0, 1, 2, 3)], [([0, 2], F(5, 2))], F(5, 2), "not a permutation of 0..4"),
    ([(1, 2, 3, 4, 5)], [([0, 2], F(5, 2))], F(5, 2), "not a permutation of 0..4"),
    ([(1, 2, 3, 4)], [([0, 2], F(5, 2))], F(5, 2), "not a permutation of 0..4"),
    ([(1, 0, 2, 3, 4)], [([0, 2], F(5, 2))], F(5, 2), "is not an automorphism"),
    ([ROTATION], [([0, 2], F(3))], F(3), "load 6 > 5 at the orbit of vertex"),
    # the reflection fixing 0 leaves {0} an orbit of its own
    ([(0, 4, 3, 2, 1)], [([0, 2], F(5, 2))], F(5, 2), "load 5/2 > 1 at vertex 0"),
    ([ROTATION], [([0, 2], F(5, 2))], F(2), "objective mismatch: 5/2 != 2"),
    ([ROTATION], [([0], F(1))], F(1), "column [0] is not dominating"),
    ([ROTATION], [([0, 5], F(1))], F(1), "column [0, 5] has a vertex out of range"),
]


def test_symmetric_certificate_rejects_bad_inputs():
    c5 = cycle(5)
    good = PrimalCertificate([(mask_of([0, 2]), F(5, 2))], F(5, 2), [ROTATION])
    assert verify_primal(c5, good) == (True, "ok")
    for generators, columns, objective, why in BAD_ORBIT_PRIMALS:
        cert = PrimalCertificate([(mask_of(s), x) for s, x in columns], objective, generators)
        ok, message = verify_primal(c5, cert)
        assert not ok and why in message, (generators, columns, message)


def test_symmetric_certificate_coxeter():
    g = coxeter()
    res = fdom_colgen(g)
    assert orbits(28, res.primal.generators) == [list(range(28))]
    # one column: a minimum dominating set (gamma = 7) at weight 4
    assert [(s.bit_count(), x) for s, x in res.primal.columns] == [(7, 4)]
    assert res.primal.objective == 4 and verify_primal(g, res.primal)[0]
    assert verify_dual(g, res.dual)[0] and res.dual.total == 4
    # delta+1 dual closes the gap: fdom(Coxeter) = 4 exactly
    dual = closed_form_certificate("neighbourhood", g=g)
    assert verify_dual(g, dual)[0] and dual.total == 4


def test_symmetric_certificate_kneser73():
    g = kneser(7, 3)
    res = fdom_colgen(g)
    assert len(orbits(35, res.primal.generators)) == 1
    assert [(s.bit_count(), x) for s, x in res.primal.columns] == [(7, 5)]
    assert res.primal.objective == 5 and verify_primal(g, res.primal)[0]
    assert verify_dual(g, res.dual)[0] and res.dual.total == 5
    dual = closed_form_certificate("neighbourhood", g=g)
    assert verify_dual(g, dual)[0] and dual.total == 5


@pytest.mark.parametrize("g, value", [
    pytest.param(girth6_family(4), F(18, 7), id="G4"),
    pytest.param(girth6_family(5), F(23, 9), id="G5"),
    pytest.param(kneser(10, 2), F(15), id="KG(10,2)"),
])
def test_colgen_certifies_symmetric_families(g, value):
    # (5n-2)/(2n-1) for G_n; KG(10,2) took more than 90 s on the plain master
    res = fdom_colgen(g)
    assert res.value == res.primal.objective == res.dual.total == value
    assert res.primal.generators
    assert verify_primal(g, res.primal) == (True, "ok")
    assert verify_dual(g, res.dual) == (True, "ok")


def test_certificate_json_roundtrip():
    res = fdom_exact(cycle(5))
    for cert in (res.primal, res.dual):
        again = certificate_from_json(json.loads(json.dumps(cert.to_json())))
        if isinstance(cert, PrimalCertificate):
            assert again.columns == cert.columns and again.objective == cert.objective
        else:
            assert again.weights == cert.weights


def test_sampler_p_one_and_p_zero():
    rep = sample_lnbound(cycle(6), F(1), trials=50, seed=1)
    assert rep.all_dominating and rep.max_frequency == 1
    rep = sample_lnbound(complete(5), F(0), trials=50, seed=1)
    assert rep.all_dominating and rep.max_frequency == 1  # nothing dominated: D = V


def test_sampler_determinism_and_bound():
    g = cycle(9)
    p = F(3662, 10000)  # ln(3)/3, rational-approximated
    rep1 = sample_lnbound(g, p, trials=4000, seed=42)
    rep2 = sample_lnbound(g, p, trials=4000, seed=42)
    assert rep1.frequencies == rep2.frequencies
    assert rep1.all_dominating
    assert rep1.analytic_bound == p + (1 - p) ** 3
    assert rep1.max_frequency <= rep1.analytic_bound + F(3, 100)


def reference_sample(g, p, trials, seed):
    """The sampler as one completion and one count per trial."""
    rng = random.Random(seed)
    counts = [0] * g.n
    all_dom = True
    for _ in range(trials):
        x = {v for v in range(g.n) if rng.randrange(p.denominator) < p.numerator}
        covered = x | {u for v in x for u in range(g.n) if g.has_edge(v, u)}
        d = x | (set(range(g.n)) - covered)
        all_dom &= is_dominating(g, mask_of(d))
        for v in d:
            counts[v] += 1
    freqs = [F(c, trials) for c in counts]
    bound = p + (1 - p) ** (g.min_degree() + 1)
    return SampleReport(trials, freqs, max(freqs), bound, all_dom)


@pytest.mark.parametrize("g,p", [(cycle(9), F(3662, 10000)), (hypercube(3), F(1, 4)),
                                 (cycle(6), F(1)), (complete(5), F(0))])
def test_sampler_matches_per_trial_reference(g, p):
    for seed in (0, 7, 42):
        assert sample_lnbound(g, p, 600, seed) == reference_sample(g, p, 600, seed)


@pytest.mark.parametrize("p", [F(0), F(1), F(1, 2), F(2, 2 ** 31 + 1), F(5, 2 ** 32 + 3),
                               F(2 ** 32 + 1, 2 ** 32 + 3), F(1, 12345678901234),
                               F(5, 2 ** 70 + 25), F(255, 256), F(2 ** 24 + 1, 2 ** 25 - 1),
                               F(2 ** 32 - 1, 2 ** 32), F(1, 2 ** 32)])
def test_sampler_draws_match_the_randrange_reference(p):
    # denominators of 1, 2, 32, 33, 44 and 71 bits: getrandbits takes one
    # 32-bit word up to den < 2^32 and several above; the last four put num
    # or den inside a top byte's range, or on the edge of one
    for g in (cycle(7), hypercube(3)):
        for seed in (3, 11):
            assert sample_lnbound(g, p, 300, seed) == reference_sample(g, p, 300, seed)


def test_sampler_matches_the_reference_across_chunks():
    g, p = cycle(9), F(3662, 10000)
    for trials in (SAMPLE_CHUNK, 2 * SAMPLE_CHUNK + 3):
        assert sample_lnbound(g, p, trials, 5) == reference_sample(g, p, trials, 5)


def test_sampler_memory_does_not_grow_with_trials():
    tracemalloc.start()
    try:
        sample_lnbound(cycle(9), F(3662, 10000), 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampler_rejects_a_negative_seed():
    # random.Random(-7) is random.Random(7): a negative seed would alias
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sample_lnbound(cycle(9), F(1, 3), trials=10, seed=-7)


def test_sampler_rejects_the_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        sample_lnbound(Graph(0, []), F(1, 2), trials=10)


def test_sampler_frequencies_pinned():
    # any change to the sequence of random calls moves these counts
    rep = sample_lnbound(cycle(9), F(3662, 10000), trials=4000, seed=42)
    assert rep.frequencies == [F(c, 4000) for c in
                               (2539, 2456, 2457, 2490, 2521, 2451, 2447, 2541, 2480)]


def test_pq_colouring_search():
    phi = pq_colouring_exists(cycle(7), 7, 3)
    assert (phi.p, phi.q) == (7, 3) and phi.check(cycle(7)) == (True, "ok")
    assert pq_colouring_exists(cycle(4), 3, 1) is None
    phi = pq_colouring_exists(cycle(6), 3, 1)
    assert (phi.p, phi.q) == (3, 1) and phi.check(cycle(6)) == (True, "ok")


def test_colouring_check_builds_no_palette_set():
    # a palette of 10^9 colours is never built: the triangle spans only 3
    assert not FractionalColouring(10**9, 1, ({1}, {2}, {3})).check(complete(3))[0]
    assert FractionalColouring(3, 1, ({1}, {2}, {3})).check(complete(3))[0]
    for bad in ({0}, {4}, {2.5}):
        with pytest.raises(DistributionError):
            FractionalColouring(3, 1, ({1}, {2}, bad))


def test_pq_colouring_h42_refutation():
    assert pq_colouring_exists(incidence_graph(4, 2), 3, 1) is None


def test_colgen_coxeter():
    assert fdom_colgen(coxeter()).value == 4


def test_colgen_matches_exact_on_random_graphs():
    from conftest import random_connected_graph
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        assert fdom_colgen(g).value == fdom_exact(g).value


def chorded_cycle(n):
    """C_n with the chords {0, 7} and {20, 33}: only the trivial automorphism."""
    return Graph(n, list(cycle(n).edges()) + [(0, 7), (20, 33)])


# converged: the first cap at which the solve returns (None: beyond 5); the
# orbit master converges in 2 rounds on C12 and Coxeter, 3 on G3 and 1 on
# chi_f's C27 and KG(7,3), while chi_f on the chorded C35 (trivial group)
# keeps the covering LP's bracket
@pytest.mark.parametrize("solve, name, g, value, converged", [
    pytest.param(fdom_colgen, "fdom", cycle(12), 3, 2, id="g0-3"),
    pytest.param(fdom_colgen, "fdom", coxeter(), 4, 2, id="g1-4"),
    pytest.param(fdom_colgen, "fdom", girth6_family(3), F(13, 5), 3, id="g2-value2"),
    pytest.param(fdom_colgen, "fdom", chorded_cycle(34), F(17, 6), None, id="C34-chords"),
    pytest.param(fdom_colgen, "fdom", chorded_cycle(40), F(20, 7), None, id="C40-chords"),
    pytest.param(fractional_chromatic, "chi_f", cycle(27), F(27, 13), 1, id="chi_f-C27"),
    pytest.param(fractional_chromatic, "chi_f", kneser(7, 3), F(7, 3), 1, id="chi_f-KG73"),
    pytest.param(fractional_chromatic, "chi_f", chorded_cycle(35), F(17, 8), None,
                 id="chi_f-C35-chords"),
])
@pytest.mark.parametrize("rounds", range(1, 6))
def test_colgen_cap_reports_bounds(monkeypatch, solve, name, g, value, converged, rounds):
    from fdomlab import fdom
    from fdomlab.domset import CapExceeded
    monkeypatch.setattr(fdom, "COLGEN_ROUNDS", rounds)
    if converged is not None and rounds >= converged:
        assert solve(g).value == value
        return
    with pytest.raises(CapExceeded) as e:
        solve(g)
    text = str(e.value)
    assert f"{name} in [" in text
    lower, upper = (F(b) for b in text[text.index("[") + 1:-1].split(", "))
    assert lower <= value <= upper


def test_colgen_smoothing_cuts_pricing_calls_on_coxeter(monkeypatch):
    from fdomlab import fdom
    calls = []
    price = fdom.min_weight_dominating_set

    def counted(g, weights):
        calls.append(len(weights))
        return price(g, weights)

    monkeypatch.setattr(fdom, "min_weight_dominating_set", counted)
    assert fdom_colgen(coxeter()).value == 4
    assert 0 < len(calls) <= 30  # 91 calls without smoothing


def test_weight_vector_json_roundtrip():
    w = [F(1, 3), F(0), F(12345678901234567890, 7)]
    blob = json.loads(json.dumps(DualCertificate(w).to_json()))
    assert certificate_from_json(blob).weights == w


def test_pq_colouring_exists_iff_fdom_allows():
    for g in (g for n in range(1, 7) for g in all_graphs(n)):
        value = fdom_exact(g).value
        for p, q in ((2, 1), (3, 1), (4, 1), (5, 2), (3, 2)):
            phi = pq_colouring_exists(g, p, q)
            # a colouring found means p/q <= fdom; so p/q > fdom gives None
            if phi is not None:
                assert (phi.p, phi.q) == (p, q) and phi.check(g)[0] and F(p, q) <= value


def test_pq_colouring_refuted_below_a_fractional_ratio():
    # fdom = 5/2 < 8/3; the search must refute (8:3) rather than hit its cap
    g = Graph(5, list(complete_bipartite(2, 3).edges()) + [(2, 4)])
    assert fdom_exact(g).value == F(5, 2)
    assert pq_colouring_exists(g, 8, 3) is None
    phi = pq_colouring_exists(g, 5, 2)
    assert phi is not None and (phi.p, phi.q) == (5, 2) and phi.check(g)[0]
