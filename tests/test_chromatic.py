import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from fdomlab import chromatic
from fdomlab.chromatic import (check_reduction, chromatic_number,
                               fractional_chromatic, fullness_check,
                               join_check, max_weight_independent_set,
                               maximal_independent_sets, witness_pq_colouring)
from fdomlab.enumerate_graphs import connected_graphs
from fdomlab.generators import (complete, complete_bipartite, cycle,
                                graph_square, hypercube, kneser)
from fdomlab.graphs import Graph, mask_to_list
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
    # without the clique/colouring shortcut; both pass _check_chi_f
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
    assert fractional_chromatic(g).generators
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
    assert res.value == 3 and res.generators
    phi = witness_pq_colouring(g, res, 3, 1)
    assert phi.p == 3 * phi.q and phi.check(g) == (True, "ok")
    # a triangle and a 3-colouring settle it before any LP
    res = fractional_chromatic(g)
    assert res.value == 3 and res.generators == []
    assert [x for _, x in res.classes] == [1, 1, 1]


def test_check_chi_f_reads_orbit_loads_and_generators():
    g = cycle(9)
    res = fractional_chromatic(g)
    sets, xs = [s for s, _ in res.classes], [x for _, x in res.classes]
    ys, gens = res.clique_weights, res.generators
    chromatic._check_chi_f(g, sets, res.value, xs, ys, gens)
    with pytest.raises(RuntimeError):  # each vertex alone is covered < 1
        chromatic._check_chi_f(g, sets, res.value, xs, ys)
    with pytest.raises(RuntimeError, match="not an automorphism"):
        chromatic._check_chi_f(g, sets, res.value, xs, ys, [(1, 0) + tuple(range(2, 9))])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def test_check_chi_f_rejects_a_class_that_is_not_independent():
    with pytest.raises(RuntimeError, match="bad covering-LP witness"):
        chromatic._check_chi_f(path3(), [0b011, 0b100], F(2), [F(1), F(1)], [F(1), F(1), F(0)])


def test_check_chi_f_rejects_classes_that_miss_a_vertex():
    with pytest.raises(RuntimeError, match="infeasible"):
        chromatic._check_chi_f(path3(), [0b101], F(1), [F(1)], [F(1), F(0), F(0)])


def test_check_chi_f_rejects_a_value_that_is_not_the_weights_total():
    with pytest.raises(RuntimeError, match="infeasible"):
        chromatic._check_chi_f(path3(), [0b101, 0b010], F(3), [F(1), F(1)],
                               [F(1), F(1), F(1)])


def test_check_chi_f_searches_a_0_1_dual_off_a_clique(monkeypatch):
    # y on the two ends of P3: not a clique, and {0, 2} weighs 2
    searched = []
    search = chromatic.max_weight_independent_set
    monkeypatch.setattr(chromatic, "max_weight_independent_set",
                        lambda g, w: searched.append(w) or search(g, w))
    with pytest.raises(RuntimeError, match="dual not certified"):
        chromatic._check_chi_f(path3(), [0b101, 0b010], F(2), [F(1), F(1)],
                               [F(1), F(0), F(1)])
    assert searched == [[1, 0, 1]]


def test_check_chi_f_proves_a_clique_dual_by_edge_tests(monkeypatch):
    def no_search(g, w):
        raise AssertionError("a clique dual needs no search")
    monkeypatch.setattr(chromatic, "max_weight_independent_set", no_search)
    chromatic._check_chi_f(path3(), [0b101, 0b010], F(2), [F(1), F(1)], [F(1), F(1), F(0)])
    res = fractional_chromatic(complete(5))
    sets, xs = [s for s, _ in res.classes], [x for _, x in res.classes]
    chromatic._check_chi_f(complete(5), sets, res.value, xs, res.clique_weights)


@pytest.mark.parametrize("g, value", [
    (Graph(10, [(i, i + 1) for i in range(9)] + [(1, 3)]), 3),  # trivial group
    (Graph(12, list(cycle(10).edges()) + [(0, 10), (0, 11)]), 2),  # 7 orbits
])
def test_chi_f_enumerates_below_the_cap_on_more_than_half_as_many_orbits(g, value):
    assert g.n >= chromatic.CHI_F_ORBIT_MIN
    res = chromatic._covering_lp(g, automorphism_generators(g))
    assert res.generators == [] and res.value == value


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
