"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Stated time budgets are asserted as hard bounds.

Criterion 5's corpus is exhaustive over all connected graphs with minimum
degree 2 up to FDOMLAB_ACCEPTANCE_NMAX vertices (default 8).  The stated
n <= 10 target is not reachable in this environment: enumerating the
9808209 isomorphism classes at n = 10 alone exceeds the 30-minute budget
by orders of magnitude in pure Python (measured ~0.6 ms per candidate
graph during augmentation, ~5 ms per graph for the construct+LP check).
The runner itself is exact at any n; set the environment variable to push
the exhaustive bound when more time is available.
"""

import math
import os
import random
import time
from fractions import Fraction as F

import pytest

from conftest import random_connected_graph
from fdomlab.badfamily import bad_family_check, bad_family_members
from fdomlab.chromatic import check_reduction, chromatic_number, fullness_check, join_check
from fdomlab.construct import construct52, intersecting_family, planar_girth_construct
from fdomlab.distributions import constant_demand, verify_f_dominating
from fdomlab.domset import domatic_number, domination_number, domatic_partition
from fdomlab.enumerate_graphs import connected_graphs
from fdomlab.fdom import (closed_form_certificate, fdom_colgen, fdom_exact,
                          pq_colouring_exists, sample_lnbound, verify_dual,
                          verify_primal)
from fdomlab.generators import (complete_bipartite, coxeter, cycle,
                                girth6_family, hypercube, incidence_graph,
                                join_with_clique, kneser, theta_graph)
from fdomlab.graphs import Graph
from fdomlab.structure import hammocks


@pytest.fixture
def report(capsys):
    def _p(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)
    return _p


def test_criterion_01_cycles(report):
    t0 = time.monotonic()
    for n in range(3, 13):
        assert fdom_exact(cycle(n)).value == F(n, math.ceil(n / 3))
    dt = time.monotonic() - t0
    assert dt < 1.0
    report(f"criterion 1 PASS: fdom(C_n) = n/ceil(n/3) for n=3..12 ({dt:.2f}s)")


def test_criterion_02_complete_bipartite(report):
    t0 = time.monotonic()
    for m in range(2, 6):
        for n in range(2, m + 1):
            assert fdom_exact(complete_bipartite(m, n)).value == 1 + n * (1 - F(1, m))
    dt = time.monotonic() - t0
    assert dt < 10.0
    report(f"criterion 2 PASS: fdom(K_mn) = 1+n(1-1/m) for 2<=n<=m<=5 ({dt:.2f}s)")


def test_criterion_03_girth6_family(report):
    t0 = time.monotonic()
    assert fdom_exact(girth6_family(2)).value == F(8, 3)
    t_g3 = time.monotonic()
    assert fdom_colgen(girth6_family(3)).value == F(13, 5)
    dt_g3 = time.monotonic() - t_g3
    assert dt_g3 < 300.0
    report(f"criterion 3 PASS: fdom(G2) = 8/3 by enumeration, fdom(G3) = 13/5 "
           f"by column generation ({dt_g3:.1f}s for G3)")


def test_criterion_04_bad_family_values(report):
    t0 = time.monotonic()
    values = {}
    for idx, g in bad_family_members().items():
        v = fdom_exact(g).value
        assert v < F(5, 2)
        values[idx] = v
    assert set(values.values()) == {F(2), F(7, 3)}
    dt = time.monotonic() - t0
    assert dt < 10.0
    report(f"criterion 4 PASS: all 8 exceptional graphs have fdom in {{2, 7/3}} ({dt:.2f}s)")


def _construct52_corpus_check(n_max: int) -> tuple[int, float]:
    t0 = time.monotonic()
    count = 0
    for n in range(3, n_max + 1):
        for g in connected_graphs(n, 2):
            if bad_family_check(g) is not None:
                continue
            d = construct52(g)  # verifies membership 2/5, domination 1
            assert fdom_exact(g).value >= F(5, 2)
            count += 1
    return count, time.monotonic() - t0


def test_criterion_05_constructive_corpus(report):
    n_max = int(os.environ.get("FDOMLAB_ACCEPTANCE_NMAX", "8"))
    count, dt = _construct52_corpus_check(n_max)
    assert dt < 1800.0
    note = "" if n_max >= 10 else \
        f" [exhaustive to n={n_max}; n<=10 is beyond this environment, see module docstring]"
    report(f"criterion 5 PASS: construct+verify+LP-confirm on all {count} "
           f"connected min-degree-2 graphs with n<={n_max} outside the family "
           f"({dt:.0f}s){note}")


@pytest.mark.skip(reason="n<=10 exhaustive corpus is unattainable here: pure-Python "
                  "enumeration of ~9.8M isomorphism classes plus an exact LP per graph "
                  "needs days, not 30 minutes; run with FDOMLAB_ACCEPTANCE_NMAX to "
                  "push the bound as far as time allows")
def test_criterion_05_full_corpus_n10(report):
    count, dt = _construct52_corpus_check(10)
    assert dt < 1800.0
    report(f"criterion 5 (full) PASS: {count} graphs ({dt:.0f}s)")


def test_criterion_06_hammock_duality(report):
    t0 = time.monotonic()
    rng = random.Random(2024)
    done = 0
    while done < 20:
        base = random_connected_graph(rng, rng.randint(4, 7), rng.randint(1, 4),
                                      min_degree=2)
        nonadj = [(u, v) for u in range(base.n) for v in range(u + 1, base.n)
                  if not base.has_edge(u, v)]
        if not nonadj:
            continue
        u, v = rng.choice(nonadj)
        n0 = base.n
        edges = list(base.edges())
        edges += [(u, n0), (n0, v)]                       # 2-path
        edges += [(u, n0 + 1), (n0 + 1, n0 + 2), (n0 + 2, v)]  # 3-path
        g = Graph(n0 + 3, edges)
        hams = [h for h in hammocks(g) if set(h.endpoints) == {u, v}]
        if not hams:
            continue
        cert = closed_form_certificate("hammock", g=g, hammock=hams[0])
        assert cert.total == F(5, 2)
        assert verify_dual(g, cert)[0]
        assert fdom_exact(g).value <= F(5, 2)
        done += 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    report(f"criterion 6 PASS: hammock bottleneck total 5/2 verified on 20 "
           f"random hosts, fdom <= 5/2 confirmed ({dt:.1f}s)")


def test_criterion_07_no_31_colouring(report):
    t0 = time.monotonic()
    assert pq_colouring_exists(incidence_graph(4, 2), 3, 1) is None
    assert pq_colouring_exists(cycle(6), 3, 1) is not None
    dt = time.monotonic() - t0
    assert dt < 60.0
    report(f"criterion 7 PASS: H(4,2) has no dominating (3:1)-colouring, C6 has one ({dt:.1f}s)")


def test_criterion_08_join_lemma(report):
    t0 = time.monotonic()
    rng = random.Random(99)
    for i in range(10):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 5))
        t = 1 + (i % 2)
        rep = join_check(g, t)
        assert rep.holds, (g.edges(), t, rep)
    dt = time.monotonic() - t0
    assert dt < 300.0
    report(f"criterion 8 PASS: fdom(G+K_t) = fdom(G)+t on 10 random graphs ({dt:.1f}s)")


def test_criterion_09_reduction_biconditional(report):
    t0 = time.monotonic()
    count = 0
    for n in range(3, 7):
        for g in connected_graphs(n, 1):
            assert check_reduction(g).equivalence_holds
            count += 1
    dt = time.monotonic() - t0
    assert dt < 1800.0
    report(f"criterion 9 PASS: chi_f <= 3 iff fdom(S(G)) >= 3 on all {count} "
           f"connected graphs, 3<=n<=6 ({dt:.0f}s)")


def test_criterion_10_counterexamples(report):
    t0 = time.monotonic()
    g = coxeter()
    assert domination_number(g)[0] == 7
    res = fdom_colgen(g)
    assert res.primal.generators  # the orbit master: one orbit, one column
    assert res.value == res.primal.objective == res.dual.total == 4
    assert verify_primal(g, res.primal)[0] and verify_dual(g, res.dual)[0]
    # exhaustive refutation well inside the 30-minute budget (no degradation
    # to the chi(G^2) route needed)
    assert domatic_partition(g, 4) is None
    assert domatic_number(g)[0] == 3

    k = kneser(7, 3)
    assert domination_number(k)[0] == 7
    kres = fdom_colgen(k)
    assert kres.primal.generators
    assert kres.value == kres.primal.objective == kres.dual.total == 5
    assert verify_primal(k, kres.primal)[0] and verify_dual(k, kres.dual)[0]
    dt = time.monotonic() - t0
    assert dt < 1800.0
    report(f"criterion 10 PASS: Coxeter gamma=7, fdom=4, dom=3 (exhaustive); "
           f"KG(7,3) gamma=7, fdom=5 ({dt:.1f}s)")


def test_criterion_11_sampler(report):
    t0 = time.monotonic()
    for g in (cycle(9), hypercube(3)):
        d = g.min_degree()
        p = F(math.log(d + 1) / (d + 1)).limit_denominator(10 ** 6)
        rep = sample_lnbound(g, p, trials=100_000, seed=0)
        assert rep.all_dominating
        assert rep.max_frequency <= rep.analytic_bound + F(1, 100)
    dt = time.monotonic() - t0
    assert dt < 60.0
    report(f"criterion 11 PASS: 10^5 samples on C9 and Q3 all dominate, "
           f"frequencies within the analytic bound ({dt:.1f}s)")


def test_criterion_12_intersecting_family(report):
    t0 = time.monotonic()
    for a, b in [(2, 0), (0, 1), (1, 1), (3, 1)]:
        intersecting_family(a, b)  # raises unless all three identities hold
    dt = time.monotonic() - t0
    assert dt < 1.0
    report(f"criterion 12 PASS: intersecting-family identities exact for "
           f"(|A|,|B|) in {{(2,0),(0,1),(1,1),(3,1)}} ({dt:.2f}s)")


def test_criterion_13_planar_pipeline(report):
    t0 = time.monotonic()
    rng = random.Random(5)
    corpus = [theta_graph((8, 8, 8)), theta_graph((8, 9, 10)),
              theta_graph((9, 9, 9, 9)), cycle(16), cycle(20)]
    for _ in range(5):
        lengths = tuple(rng.randint(8, 12) for _ in range(rng.randint(3, 4)))
        corpus.append(theta_graph(lengths))
    for g in corpus:
        assert g.girth() >= 16
        d = planar_girth_construct(g, 2)
        ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))
        assert ok, why
    dt = time.monotonic() - t0
    assert dt < 60.0
    report(f"criterion 13 PASS: girth>=16 pipeline at rate 2/5 verified on "
           f"{len(corpus)} graphs ({dt:.1f}s)")
