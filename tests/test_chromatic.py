import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from fdomlab import chromatic, fdom
from fdomlab.chromatic import (check_reduction, chromatic_number,
                               fractional_chromatic, fullness_check,
                               join_check, maximal_independent_sets,
                               witness_pq_colouring)
from fdomlab.domset import max_weight_independent_set
from fdomlab.enumerate_graphs import connected_graphs
from fdomlab.fdom import DualCertificate, PrimalCertificate, verify_dual, verify_primal
from fdomlab.generators import (complete, complete_bipartite, cycle,
                                graph_square, hypercube, kneser)
from fdomlab.graphs import Graph, mask_of, mask_to_list
from fdomlab.iso import automorphism_generators


def brute_max_independent(g: Graph) -> int:
    best = 0
    for s in range(1 << g.n):
        if all(not (g.nbr_mask[v] & s) for v in mask_to_list(s)):
            best = max(best, s.bit_count())
    return best


def test_chi_f_classics():
    assert fractional_chromatic(cycle(5)).value == F(5, 2)
    assert fractional_chromatic(complete(4)).value == 4
    assert fractional_chromatic(cycle(7)).value == F(7, 3)
    assert fractional_chromatic(kneser(5, 2)).value == F(5, 2)


def test_chi_f_lower_bounds(corpus7):
    rng = random.Random(13)
    for g in rng.sample(corpus7, 25):
        v = fractional_chromatic(g).value
        alpha = brute_max_independent(g)
        assert v >= F(g.n, alpha)


def test_chi_f_colgen_path_agrees(corpus7, monkeypatch):
    # forced column generation against enumeration, both per vertex and
    # without the clique/colouring shortcut; both pass fdom.certify
    graphs = corpus7 + [cycle(11), cycle(21), kneser(5, 2)]
    full = [chromatic._covering_lp(g, []).value for g in graphs]
    assert full[-3:] == [F(11, 5), F(21, 10), F(5, 2)]
    monkeypatch.setattr(chromatic, "CHI_F_ENUM_CAP", 0)
    assert [chromatic._covering_lp(g, []).value for g in graphs] == full


def test_chi_f_orbit_master_agrees(corpus7, monkeypatch):
    # the orbit master forced at every size against enumeration
    full = [chromatic._covering_lp(g, []).value for g in corpus7]
    monkeypatch.setattr(chromatic, "CHI_F_ENUM_CAP", 0)
    assert [chromatic._covering_lp(g, automorphism_generators(g)).value
            for g in corpus7] == full


def test_chi_f_shortcut_agrees_with_the_covering_lp(corpus7, monkeypatch):
    # an equal greedy clique and colouring settle chi_f without an LP; where
    # they do, the value is the covering LP's
    reduction = [g for n in range(3, 7) for g in connected_graphs(n, 1)]
    assert len(reduction) == 141
    lp_calls = []
    covering_lp = chromatic._covering_lp
    monkeypatch.setattr(chromatic, "_covering_lp",
                        lambda g, gens: lp_calls.append(g) or covering_lp(g, gens))
    assert sum(fractional_chromatic(g).value == covering_lp(g, []).value
               for g in reduction) == 141
    # 137 settle; the 4 left are C5, C5 with a pendant vertex, C5 with a
    # twin of one vertex (each 5/2) and the 5-wheel (7/2)
    assert sorted(covering_lp(g, []).value for g in lp_calls) == [F(5, 2)] * 3 + [F(7, 2)]
    for g in corpus7 + [hypercube(5), complete_bipartite(7, 11), matching(17), friendship(17)]:
        assert fractional_chromatic(g).value == covering_lp(g, []).value


def test_chi_examples():
    assert chromatic_number(graph_square(cycle(5))).value == 5
    assert chromatic_number(complete_bipartite(3, 3)).value == 2
    assert chromatic_number(cycle(7)).value == 3
    assert chromatic_number(complete(6)).value == 6


def mycielski(g: Graph) -> Graph:
    # a twin u' per vertex u, joined to u's neighbours, and one apex on the twins
    n = g.n
    edges = [(u + n, v) for u, v in g.edges()] + [(v + n, u) for u, v in g.edges()]
    return Graph(2 * n + 1, [*g.edges(), *edges, *((2 * n, n + u) for u in range(n))])


def test_chi_returns_bounds_when_the_deadline_passes_inside_the_search(monkeypatch):
    # the Mycielskian of the Groetzsch graph: triangle-free, chi 5; its
    # 4-colouring search runs past 512 steps, where the third clock reading
    # finds the deadline passed
    g = mycielski(mycielski(cycle(5)))
    readings = iter([0, 0, 10 ** 9])
    monkeypatch.setattr(chromatic, "time", SimpleNamespace(monotonic=lambda: next(readings)))
    res = chromatic_number(g, time_budget_ms=1000)
    assert (res.lower, res.upper, res.exact) == (2, 5, False)
    assert max(res.colouring) == 4
    assert all(res.colouring[u] != res.colouring[v] for u, v in g.edges())
    monkeypatch.undo()
    assert chromatic_number(g).value == 5


def test_chi_witness_is_proper(corpus7):
    rng = random.Random(14)
    for g in rng.sample(corpus7, 25):
        res = chromatic_number(g)
        assert res.exact
        col = res.colouring
        assert len(set(col)) == res.value
        for u, v in g.edges():
            assert col[u] != col[v]


def test_chi_improves_on_a_bad_greedy_colouring():
    # the crown graph with a_i = 2i and b_i = 2i+1 adjacent iff i != j:
    # all degrees are equal, so the greedy colouring takes the vertices in
    # index order and spends a colour on each pair; chi is 2
    n = 5
    g = Graph(2 * n, [(2 * i, 2 * j + 1) for i in range(n) for j in range(n) if i != j])
    assert max(chromatic._greedy_colour_list(g)) + 1 == n
    res = chromatic_number(g)
    assert res.exact and res.value == 2 and len(set(res.colouring)) == 2
    assert all(res.colouring[u] != res.colouring[v] for u, v in g.edges())


def test_maximal_independent_sets_oracle(corpus7):
    rng = random.Random(15)
    for g in rng.sample(corpus7, 15):
        sets = maximal_independent_sets(g)
        assert max((s.bit_count() for s in sets), default=0) == brute_max_independent(g)
        assert len(set(sets)) == len(sets)


def test_max_weight_independent_set(corpus7):
    rng = random.Random(16)
    for g in rng.sample(corpus7, 10):
        weights = [F(rng.randint(0, 5)) for _ in range(g.n)]
        mask, w = max_weight_independent_set(g, weights)
        assert all(not (g.nbr_mask[v] & mask) for v in mask_to_list(mask))
        assert w == sum(weights[v] for v in mask_to_list(mask))
        best = max(sum(weights[v] for v in mask_to_list(s))
                   for s in maximal_independent_sets(g))
        assert w == best


def test_witness_pq_colouring_ratio():
    res = fractional_chromatic(cycle(5))
    phi = witness_pq_colouring(cycle(5), res, 3, 1)
    assert phi.p == 3 * phi.q
    g = cycle(5)
    for u, v in g.edges():
        assert not (phi.assignment[u] & phi.assignment[v])
    assert all(len(s) == phi.q for s in phi.assignment)


def test_check_reduction_examples():
    r = check_reduction(cycle(5))
    assert r.chi_f == F(5, 2) and r.fdom_split >= 3 and r.equivalence_holds
    assert r.extension_checked
    r = check_reduction(complete(4))
    assert r.chi_f == 4 and r.fdom_split < 3 and r.equivalence_holds
    r = check_reduction(complete(2))
    assert r.fdom_split == 3 and r.equivalence_holds


@pytest.mark.parametrize("g", [cycle(9), cycle(11), cycle(13), kneser(5, 2)],
                         ids=["C9", "C11", "C13", "Petersen"])
def test_check_reduction_colours_the_split_graph_above_the_orbit_min(g):
    # chi_f runs on the orbit master and the witness solves again per
    # vertex; the extension onto S(G) dominates only if its classes colour G
    assert fractional_chromatic(g).primal.generators
    r = check_reduction(g)
    assert r.chi_f <= 3 and r.fdom_split >= 3 and r.equivalence_holds
    assert r.extension_checked


def matching(m):
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def friendship(m):
    return Graph(2 * m + 1, [e for i in range(m)
                             for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def test_chi_f_orbit_classes_whose_set_orbits_are_exponential():
    # an optimal class takes one end of each edge (one vertex of each
    # triangle): 2^17 images under Aut(G), which the witness never lists
    g = matching(17)
    assert chromatic._covering_lp(g, automorphism_generators(g)).value == 2
    g = friendship(17)
    res = chromatic._covering_lp(g, automorphism_generators(g))
    assert res.value == 3 and res.primal.generators
    phi = witness_pq_colouring(g, res, 3, 1)
    assert phi.p == 3 * phi.q and phi.check(g) == (True, "ok")
    # a triangle and a 3-colouring settle it before any LP
    res = fractional_chromatic(g)
    assert res.value == 3 and res.primal.generators == []
    assert [x for _, x in res.primal.columns] == [1, 1, 1]


def test_check_chi_f_reads_orbit_loads_and_generators():
    g = cycle(9)
    res = fractional_chromatic(g)
    assert verify_primal(g, res.primal, -1) == (True, "ok")
    ok, why = verify_primal(g, PrimalCertificate(res.primal.columns, res.value), -1)
    assert not ok and why.startswith("load ") and " < 1 at vertex " in why
    bad = PrimalCertificate(res.primal.columns, res.value, [(1, 0) + tuple(range(2, 9))])
    ok, why = verify_primal(g, bad, -1)
    assert not ok and "not an automorphism" in why


ROTATION = (1, 2, 3, 4, 0)


# (id, generators, columns, objective, why verify_primal refuses them as a
# covering primal) on C5, where {0, 2} at 5/2 under the rotation covers
BAD_COVERING_PRIMALS = [
    ("not-independent", [ROTATION], [([0, 1], F(5, 2))], F(5, 2),
     "column [0, 1] is not independent"),
    ("orbit-undercovered", [ROTATION], [([0, 2], F(2))], F(2),
     "load 4 < 5 at the orbit of vertex"),
    ("vertex-uncovered", [], [([0, 2], F(5, 2))], F(5, 2), "load 0 < 1 at vertex 1"),
    ("out-of-range", [ROTATION], [([0, 5], F(5, 2))], F(5, 2),
     "column [0, 5] has a vertex out of range for n=5"),
    ("negative-weight", [ROTATION], [([0, 2], F(-1)), ([1, 3], F(7, 2))], F(5, 2),
     "negative weight on column [0, 2]"),
    ("bad-generator", [(1, 0, 2, 3, 4)], [([0, 2], F(5, 2))], F(5, 2),
     "is not an automorphism"),
    ("objective-mismatch", [ROTATION], [([0, 2], F(5, 2))], F(2),
     "objective mismatch: 5/2 != 2"),
]


@pytest.mark.parametrize("generators, columns, objective, why",
                         [case[1:] for case in BAD_COVERING_PRIMALS],
                         ids=[case[0] for case in BAD_COVERING_PRIMALS])
def test_covering_check_rejects_bad_primals(generators, columns, objective, why):
    c5 = cycle(5)
    good = PrimalCertificate([(mask_of([0, 2]), F(5, 2))], F(5, 2), [ROTATION])
    assert verify_primal(c5, good, -1) == (True, "ok")
    cert = PrimalCertificate([(mask_of(s), x) for s, x in columns], objective, generators)
    ok, message = verify_primal(c5, cert, -1)
    assert not ok and why in message


# (id, weights, stated value, why verify_dual refuses them as a covering
# dual) on C5, where 1/2 on every vertex is valid
BAD_COVERING_DUALS = [
    ("wrong-length", [F(1, 2)] * 4, F(2), "certificate has 4 weights for n=5"),
    ("negative-weight", [F(1), F(-1, 2), F(1), F(1, 2), F(1, 2)], F(5, 2),
     "negative weight -1/2 at vertex 1"),
    ("value-mismatch", [F(1, 2)] * 5, F(3), "value mismatch: 5/2 != 3"),
    ("overweight", [F(1)] * 5, F(5), "an independent set has weight 2 > 1"),
]


@pytest.mark.parametrize("weights, value, why", [case[1:] for case in BAD_COVERING_DUALS],
                         ids=[case[0] for case in BAD_COVERING_DUALS])
def test_covering_check_rejects_bad_duals(weights, value, why):
    c5 = cycle(5)
    assert verify_dual(c5, DualCertificate([F(1, 2)] * 5), -1) == (True, "ok")
    assert verify_dual(c5, DualCertificate(weights, value), -1) == (False, why)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def test_check_chi_f_searches_a_0_1_dual_off_a_clique(monkeypatch):
    # y on the two ends of P3: not a clique, and {0, 2} weighs 2
    searched = []
    search = fdom.max_weight_independent_set
    monkeypatch.setattr(fdom, "max_weight_independent_set",
                        lambda g, w: searched.append(w) or search(g, w))
    assert verify_dual(path3(), DualCertificate([F(1), F(0), F(1)]), -1) == (
        False, "an independent set has weight 2 > 1")
    assert searched == [[1, 0, 1]]


def test_check_chi_f_proves_a_clique_dual_by_edge_tests(monkeypatch):
    def no_search(g, w):
        raise AssertionError("a clique dual needs no search")
    monkeypatch.setattr(fdom, "max_weight_independent_set", no_search)
    assert verify_dual(path3(), DualCertificate([F(1), F(1), F(0)]), -1) == (True, "ok")
    res = fractional_chromatic(complete(5))
    assert verify_dual(complete(5), res.dual, -1) == (True, "ok")


@pytest.mark.parametrize("g, value", [
    (Graph(10, [(i, i + 1) for i in range(9)] + [(1, 3)]), 3),  # trivial group
    (Graph(12, list(cycle(10).edges()) + [(0, 10), (0, 11)]), 2),  # 7 orbits
])
def test_chi_f_enumerates_below_the_cap_on_more_than_half_as_many_orbits(g, value):
    assert g.n >= chromatic.CHI_F_ORBIT_MIN
    res = chromatic._covering_lp(g, automorphism_generators(g))
    assert res.primal.generators == [] and res.value == value


def test_fullness_c6():
    rep = fullness_check(cycle(6))
    assert rep.chi_square_lower == rep.chi_square_upper == 3
    assert rep.dom_full and rep.fdom_full


def test_fullness_rejects_irregular():
    with pytest.raises(ValueError):
        fullness_check(complete_bipartite(2, 3))


def test_join_lemma_examples():
    assert join_check(cycle(5), 1).holds
    assert join_check(complete(1), 2).joined_value == 3
    assert join_check(cycle(4), 1).joined_value == 3


def test_join_lemma_random(corpus7_mindeg2):
    rng = random.Random(17)
    for g in rng.sample([g for g in corpus7_mindeg2 if g.n <= 6], 6):
        for t in (1, 2):
            assert join_check(g, t).holds


def brute_max_clique(g: Graph) -> int:
    best = 0
    for s in range(1 << g.n):
        verts = mask_to_list(s)
        if all(g.has_edge(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]):
            best = max(best, len(verts))
    return best


def test_chi_f_between_clique_and_ratio(corpus7):
    rng = random.Random(18)
    for g in rng.sample([g for g in corpus7 if g.n <= 6], 15):
        v = fractional_chromatic(g).value
        assert v >= brute_max_clique(g)
        assert v >= F(g.n, brute_max_independent(g))
