import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from fdomlab import construct
from fdomlab.badfamily import bad_family_check, bad_family_members
from fdomlab.construct import (BadFamilyInput, ConstructionError,
                               base_case_hammock, construct52,
                               hammock_base_annotations, intersecting_family,
                               planar_girth_construct)
from fdomlab.distributions import (constant_demand, standard_demand,
                                   verify_f_dominating)
from fdomlab.domset import is_dominating
from fdomlab.fdom import fdom_exact
from fdomlab.figures import (EDGE_CASE_KEYS, QUASI_BY_MEMBER, catalog_keys,
                             exceptional_colouring)
from fdomlab.generators import (complete, complete_bipartite, cycle,
                                girth6_family, hammock_expand, hypercube,
                                incidence_graph, kneser, subdivide,
                                theta_graph)
from fdomlab.graphs import Graph
from fdomlab.iso import spanning_subgraph_embedding

from distview import dominated_prob, fractions, membership


def assert_valid(g, d, r=F(2, 5)):
    ok, why = verify_f_dominating(g, d, standard_demand(g), r)
    assert ok, why


def test_c5():
    g = cycle(5)
    d = construct52(g)
    for v in range(5):
        assert membership(d, v) == F(2, 5)
        assert dominated_prob(d, g, v) == 1


def test_bad_family_rejected():
    with pytest.raises(BadFamilyInput) as e:
        construct52(cycle(7))
    assert e.value.member == 3
    for idx, g in bad_family_members().items():
        with pytest.raises(BadFamilyInput):
            construct52(g)


def test_theta225_hard_c4_twin_case():
    g = theta_graph((2, 2, 5))
    assert_valid(g, construct52(g))


def test_named_graphs():
    for g in [cycle(3), cycle(6), cycle(8), complete(4), complete(7),
              complete_bipartite(2, 4), complete_bipartite(3, 3),
              kneser(5, 2), hypercube(3), theta_graph((3, 3, 4)),
              theta_graph((3, 4, 4)), theta_graph((8, 8, 8)),
              incidence_graph(4, 2), girth6_family(2), subdivide(complete(4), 3)]:
        assert_valid(g, construct52(g))


def test_pendant_and_cut_vertices():
    # pendant edge: demand 4/5 at the leaf
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    d = construct52(g)
    assert dominated_prob(d, g, 5) >= F(4, 5)
    assert_valid(g, d)
    # exceptional members hanging at cut vertices
    c7_plus = Graph(12, [(i, (i + 1) % 7) for i in range(7)]
                    + [(0, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 7)])
    assert_valid(c7_plus, construct52(c7_plus))
    two_c4_chain = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 0),
                              (3, 4), (4, 5), (5, 6), (6, 3),
                              (6, 7), (7, 8), (8, 9), (9, 6)])
    assert_valid(two_c4_chain, construct52(two_c4_chain))


def test_exceptional_members_glued_at_every_vertex(monkeypatch):
    # each member hangs off C3 and off C5 at each of its vertices, so every
    # marked-vertex table is used, including the 2C4 far vertex and the
    # 7-cycle table on members 5..8
    embedded = set()

    def embed(pattern, host, fixed=None):
        sigma = spanning_subgraph_embedding(pattern, host, fixed)
        if sigma is not None:
            embedded.add(id(pattern))
        return sigma

    monkeypatch.setattr(construct, "spanning_subgraph_embedding", embed)
    for h in bad_family_members().values():
        for v in range(h.n):
            for c in (cycle(3), cycle(5)):
                ring = [v] + list(range(h.n, h.n + c.n - 1))
                g = Graph(h.n + c.n - 1, list(h.edges()) +
                          [(ring[a], ring[b]) for a, b in c.edges()])
                # reversed labels put the cycle first: the cut step then
                # splits at a 2C4 hub with both 4-cycles on one side
                flipped = Graph(g.n, [(g.n - 1 - a, g.n - 1 - b) for a, b in g.edges()])
                for host in (g, flipped):
                    construct52(host)  # verifies its own postcondition
    reached = {k for k in catalog_keys() if id(exceptional_colouring(k).graph) in embedded}
    assert set().union(*QUASI_BY_MEMBER.values()) <= reached


def test_every_catalog_table_is_named_by_a_rule():
    tree = ast.parse(Path(construct.__file__).read_text())
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    named |= set(EDGE_CASE_KEYS).union(*QUASI_BY_MEMBER.values())
    assert set(catalog_keys()) <= named


def test_exhaustive_corpus_n7(corpus7):
    for g in corpus7:
        if bad_family_check(g) is not None:
            continue
        construct52(g)  # verifies its own postcondition


def test_each_graph_is_classified_once(corpus7, monkeypatch):
    # _construct's argument has been classified by its caller; identity,
    # not equality, since both sides of a cut can be equal labelled graphs
    stack, repeats = [], []
    inner, check = construct._construct, construct.bad_family_check

    def tracked(g):
        stack.append(g)
        try:
            return inner(g)
        finally:
            stack.pop()

    def counted(g):
        if stack and g is stack[-1]:
            repeats.append(g)
        return check(g)

    monkeypatch.setattr(construct, "_construct", tracked)
    monkeypatch.setattr(construct, "bad_family_check", counted)
    for g in corpus7:
        if check(g) is None:
            construct52(g)
    assert len(repeats) == 0


def test_fdom_never_below_52_on_witnessed_graphs(corpus7_mindeg2):
    rng = random.Random(12)
    for g in rng.sample(corpus7_mindeg2, 25):
        if bad_family_check(g) is not None:
            continue
        construct52(g)
        assert fdom_exact(g).value >= F(5, 2)


def test_base_case_on_expanded_figure_multigraph():
    g, _ = hammock_expand(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (3, 4),
                              (4, 0), (0, 2), (0, 3)])
    ann = hammock_base_annotations(g)
    d = base_case_hammock(g, ann)
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))
    assert ok, why
    for s, _ in d.atoms:
        assert is_dominating(g, s)


def test_base_case_k4_expansion_membership():
    g, _ = hammock_expand(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    ann = hammock_base_annotations(g)
    assert ann.b1 == [] and ann.b0 == [0, 1, 2, 3]
    d = base_case_hammock(g, ann)
    # plain hubs are hit only by their own coin: exactly 2/5
    for b in ann.b0:
        assert membership(d, b) == F(2, 5)
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))
    assert ok, why


def test_k2_is_the_shared_edge_step():
    k2 = Graph(2, [(0, 1)])
    assert fractions(construct52(k2)) == ((0, F(1, 5)), (0b01, F(2, 5)), (0b10, F(2, 5)))
    with pytest.raises(ValueError):
        planar_girth_construct(k2, 2)  # no cycle, minimum degree 1


def test_planar_pipeline_cycle_case():
    d = planar_girth_construct(cycle(16), 2)
    g = cycle(16)
    for v in range(16):
        assert membership(d, v) == F(2, 5)
        assert dominated_prob(d, g, v) == 1


def test_planar_pipeline_theta():
    g = theta_graph((8, 8, 8))
    assert g.girth() == 16
    d = planar_girth_construct(g, 2)
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))
    assert ok, why


def test_planar_pipeline_rate_k3():
    g = theta_graph((11, 11, 11))
    assert g.girth() == 22  # below 15*3-14 = 31: k=3 must be rejected
    with pytest.raises(ValueError):
        planar_girth_construct(g, 3)
    g = theta_graph((16, 16, 16))
    assert g.girth() == 32
    d = planar_girth_construct(g, 3)
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(3, 8))
    assert ok, why


def test_planar_pipeline_girth_error():
    with pytest.raises(ValueError):
        planar_girth_construct(cycle(15), 2)


def test_planar_pipeline_with_bridge():
    # two 16-cycles joined by an edge: min degree 2, girth 16, has a bridge
    edges = [(i, (i + 1) % 16) for i in range(16)]
    edges += [(16 + i, 16 + (i + 1) % 16) for i in range(16)]
    edges.append((0, 16))
    g = Graph(32, edges)
    d = planar_girth_construct(g, 2)
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))
    assert ok, why


def test_planar_pipeline_cut_vertex_with_peeled_side():
    # theta(8,8,8) and a 16-cycle sharing hub 0: the theta side of the cut
    # vertex is solved by peeling a suspended path down to a 16-cycle
    theta = theta_graph((8, 8, 8))
    ring = [0] + list(range(theta.n, theta.n + 15))
    g = Graph(theta.n + 15, list(theta.edges()) +
              [(ring[i], ring[(i + 1) % 16]) for i in range(16)])
    assert g.n == 38 and g.girth() == 16
    d = planar_girth_construct(g, 2)
    ok, why = verify_f_dominating(g, d, constant_demand(F(1)), F(2, 5))
    assert ok, why


def test_intersecting_family_identities():
    for a, b in [(2, 0), (0, 1), (1, 1), (3, 1)]:
        rep = intersecting_family(a, b)
        assert rep.ground_size == (2 ** a) * (5 ** (b + 1))
    rep = intersecting_family(2, 0)
    assert rep.ground_size == 20 and rep.set_size == 8 and rep.a_pair_intersection == 4
    rep = intersecting_family(1, 1)
    assert rep.b_cross_intersection == rep.ground_size * 4 // 25


def test_intersecting_family_reports_only_checked_intersections():
    # one A-set and one B-set: the B-cross pair exists, an A-pair does not
    rep = intersecting_family(1, 1)
    assert rep.a_pair_intersection is None and rep.b_cross_intersection == 8
    rep = intersecting_family(0, 0)
    assert rep.a_pair_intersection is None and rep.b_cross_intersection is None


def test_random_corpus_up_to_14(corpus7):
    rng = random.Random(31337)
    checked = 0
    for _ in range(120):
        from conftest import random_connected_graph
        g = random_connected_graph(rng, rng.randint(9, 14), rng.randint(0, 10),
                                   min_degree=2)
        if bad_family_check(g) is not None:
            continue
        construct52(g)
        checked += 1
        if checked % 10 == 0 and g.n <= 12:
            assert fdom_exact(g).value >= F(5, 2)
    assert checked >= 100
