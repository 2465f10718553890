import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.badfamily import bad_family_check, bad_family_members
from conftest import random_cubic
from fdomlab.generators import (complete, complete_bipartite, coxeter, cycle,
                                girth6_family, kneser, split_construction)
from fdomlab.graphs import Graph
from fdomlab.iso import (automorphism_generators, automorphisms, canonical_form,
                         group_closure, is_isomorphic, isomorphism, orbits,
                         spanning_subgraph_embedding)


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_bad_family_examples():
    assert bad_family_check(cycle(7)) == 3
    assert bad_family_check(cycle(8)) is None
    assert bad_family_check(complete_bipartite(2, 3)) == 2
    assert bad_family_check(cycle(4)) == 1


def test_bad_family_members_pairwise_distinct():
    members = bad_family_members()
    keys = list(members)
    for i in keys:
        for j in keys:
            if i < j:
                assert not is_isomorphic(members[i], members[j])


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_bad_family_check_isomorphism_invariant(idx, rng):
    g = bad_family_members()[idx]
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert bad_family_check(permuted(g, perm)) == idx


def test_isomorphism_mapping_is_explicit():
    g = cycle(6)
    perm = [3, 5, 1, 0, 2, 4]
    h = permuted(g, perm)
    phi = isomorphism(g, h)
    assert phi is not None
    for u, v in g.edges():
        assert h.has_edge(phi[u], phi[v])


def test_non_isomorphic_same_degrees():
    # C6 vs two triangles: same degree sequence, different graphs
    g = cycle(6)
    h = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_isomorphic(g, h)


def test_canonical_form_agrees_with_isomorphism():
    rng = random.Random(7)
    graphs = [cycle(6), complete(4), complete_bipartite(2, 3),
              Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs)


def test_automorphisms_of_cycle():
    auts = automorphisms(cycle(5))
    assert len(auts) == 10  # dihedral group


def test_orbits_and_closure():
    rot = tuple((i + 1) % 5 for i in range(5))
    assert orbits(5, [rot]) == [[0, 1, 2, 3, 4]]
    assert len(group_closure(5, [rot])) == 5


@pytest.mark.parametrize("g, orbit_count", [
    pytest.param(girth6_family(3), 3, id="G3"),
    pytest.param(coxeter(), 1, id="Coxeter"),
    pytest.param(kneser(7, 3), 1, id="KG(7,3)"),
    pytest.param(split_construction(complete(6)), 2, id="S(K6)"),
])
def test_automorphism_generators_ignore_the_labelling(g, orbit_count):
    order = len(group_closure(g.n, automorphism_generators(g)))
    rng = random.Random(g.n)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permuted(g, perm)
        gens = automorphism_generators(h)
        assert all(h.has_edge(p[u], p[v]) for p in gens for u, v in h.edges())
        assert len(orbits(h.n, gens)) == orbit_count
        assert len(group_closure(h.n, gens)) == order


def test_automorphism_generators_need_no_recursion():
    # one mapping search per individualisation level, on an explicit stack:
    # K2,80's 80 levels fit under a recursion limit of 150.  Each generator
    # of level i fixes the path's first i vertices, (0, 2, 3, .., 80) for
    # this labelling, so the orbits of the generators fixing each prefix
    # bound the group order from below, and 2 * 80! is all of Aut(K2,80)
    code = """
import math, sys
from fdomlab.generators import complete_bipartite
from fdomlab.iso import automorphism_generators, orbits
g = complete_bipartite(2, 80)
sys.setrecursionlimit(150)
gens = automorphism_generators(g)
assert all(g.has_edge(p[u], p[v]) for p in gens for u, v in g.edges())
base, order = [0] + list(range(2, 81)), 1
for i, b in enumerate(base):
    fixing = [p for p in gens if all(p[x] == x for x in base[:i])]
    order *= len(next(o for o in orbits(g.n, fixing) if b in o))
print(orbits(g.n, gens) == [[0, 1], list(range(2, 82))], order == 2 * math.factorial(80))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (run.returncode, run.stdout.strip()) == (0, "True True"), run.stderr[-400:]


def test_automorphism_generators_of_an_asymmetric_cubic_graph():
    # 1-WL cannot split a regular graph; the search refines after each
    # individualisation, so this takes well under a second
    assert automorphism_generators(random_cubic(100, 0)) == []


def test_spanning_subgraph_embedding():
    host = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    sigma = spanning_subgraph_embedding(cycle(4), host)
    assert sigma is not None
    c4 = cycle(4)
    for u, v in c4.edges():
        assert host.has_edge(sigma[u], sigma[v])
    assert spanning_subgraph_embedding(complete(4), host) is None


def test_spanning_subgraph_embedding_with_fixed_vertices():
    # the diamond's degree-3 corners are 0 and 2
    host = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for t in (0, 2):
        assert spanning_subgraph_embedding(k13, host, {0: t})[0] == t
    assert spanning_subgraph_embedding(k13, host, {0: 1}) is None
    for t in range(4):
        sigma = spanning_subgraph_embedding(cycle(4), host, {2: t, 0: (t + 2) % 4})
        assert sigma is not None and sigma[2] == t and sigma[0] == (t + 2) % 4
    assert spanning_subgraph_embedding(cycle(4), host, {0: 0, 1: 2}) is None
