"""Fuzz test of `fdomlab verify`.

Valid certificates of every kind (primal, orbit primal, dual, distribution
and colouring) on graphs with at most six vertices are mutated at random:
values are replaced, deleted, appended, swapped or moved by one, and the
stated total may be restated to match the mutated weights.  Every run must
end in exit 2 (the file cannot be read), exit 1 (it is read and invalid)
or exit 0 with a claim that a brute force over all 2^n vertex sets, written
here without the library's checkers, confirms.  No traceback is allowed.
"""

import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab.cli import main
from fdomlab.construct import construct52
from fdomlab.fdom import fdom_colgen, fdom_exact, pq_colouring_exists
from fdomlab.generators import cycle
from fdomlab.graphs import Graph, write_graph_text

GRAPHS = {"C5": cycle(5), "C6": cycle(6),
          "P6+": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])}


CASES = [(name, kind) for name in GRAPHS
         for kind in ("primal", "orbit-primal", "dual", "distribution")]
CASES += [("C5", "colouring"), ("C6", "colouring")]


@cache
def document(name: str, kind: str) -> dict:
    """A valid input of this kind on the named graph."""
    g = GRAPHS[name]
    if kind == "colouring":
        return pq_colouring_exists(g, *{"C5": (5, 2), "C6": (3, 1)}[name]).to_json()
    if kind == "distribution":
        return construct52(g).to_json(F(2, 5))
    res = fdom_colgen(g) if kind == "orbit-primal" else fdom_exact(g)
    return res.dual.to_json() if kind == "dual" else res.primal.to_json()


def flag(kind: str) -> str:
    return "primal" if kind == "orbit-primal" else kind


# -- the brute force -----------------------------------------------------


class Malformed(Exception):
    """A file that verify accepted but that the brute force cannot read."""


def integer(x) -> int:
    if not is_integer(x):
        raise Malformed(f"not an integer: {x!r}")
    return int(x)


def is_integer(x) -> bool:
    return type(x) is int or type(x) is str and re.fullmatch("-?[0-9]+", x) is not None


def rational(pair) -> F:
    if not (isinstance(pair, list) and len(pair) == 2) or integer(pair[1]) == 0:
        raise Malformed(f"not a rational: {pair!r}")
    return F(integer(pair[0]), integer(pair[1]))


def vertex_set(ids, n: int) -> frozenset[int]:
    if not isinstance(ids, list) or any(type(v) is not int or not 0 <= v < n for v in ids):
        raise Malformed(f"not a set of vertices: {ids!r}")
    return frozenset(ids)


def closed_neighbourhoods(g: Graph) -> list[set[int]]:
    nbhd = [{v} for v in range(g.n)]
    for u, v in g.edges():
        nbhd[u].add(v)
        nbhd[v].add(u)
    return nbhd


def all_sets(n: int) -> list[frozenset[int]]:
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


def dominating_sets(g: Graph) -> set[frozenset[int]]:
    nbhd = closed_neighbourhoods(g)
    return {s for s in all_sets(g.n) if all(nb & s for nb in nbhd)}


def group_closure(gens: list[tuple[int, ...]], g: Graph) -> list[tuple[int, ...]]:
    """Every element of the group the automorphisms gens generate."""
    edges = {frozenset(e) for e in g.edges()}
    for p in gens:
        if sorted(p) != list(range(g.n)) or {frozenset((p[u], p[v])) for u, v in edges} != edges:
            raise Malformed(f"not an automorphism: {p!r}")
    group, todo = {tuple(range(g.n))}, [tuple(range(g.n))]
    while todo:
        h = todo.pop()
        for p in gens:
            hp = tuple(p[h[v]] for v in range(g.n))
            if hp not in group:
                group.add(hp)
                todo.append(hp)
    return sorted(group)


def confirmed_claim(g: Graph, flag: str, doc) -> str:
    """The claim of `verify` on a valid doc, found by brute force; raises
    Malformed when doc is not a valid certificate."""
    dom = dominating_sets(g)
    if flag == "primal":
        gens = doc["generators"] if doc["type"] == "orbit-primal" else []
        if doc["type"] not in ("primal", "orbit-primal") or not isinstance(gens, list):
            raise Malformed("not a primal certificate")
        group = group_closure([tuple(p) for p in gens], g)
        loads = [F(0)] * g.n
        total = F(0)
        for c in doc["columns"]:
            s, x = vertex_set(c["set"], g.n), rational(c["x"])
            if x < 0 or any(frozenset(h[v] for v in s) not in dom for h in group):
                raise Malformed(f"bad column {c!r}")
            total += x
            for h in group:
                for v in s:
                    loads[h[v]] += x / len(group)
        if max(loads) > 1 or total != rational(doc["value"]):
            raise Malformed("overloaded or misstated packing")
        return f"fdom >= {total.numerator}/{total.denominator}"
    if flag == "dual":
        w = [rational(x) for x in doc["weights"]]
        value = rational(doc["value"])
        if (doc["type"] != "dual" or len(w) != g.n or min(w) < 0 or sum(w) != value
                or min(sum(w[v] for v in s) for s in dom) < 1):
            raise Malformed("not a fractional bottleneck")
        return f"fdom <= {value.numerator}/{value.denominator}"
    if flag == "colouring":
        p, q, phi = doc["p"], doc["q"], doc["phi"]
        if (type(p) is not int or type(q) is not int or not 1 <= q <= p <= g.n * q
                or len(phi) != g.n):
            raise Malformed("bad colouring header")
        colours = [vertex_set(s, p + 1) for s in phi]
        if any(len(s) != q or 0 in s for s in colours) or any(
                frozenset(v for v in range(g.n) if c in colours[v]) not in dom
                for c in range(1, p + 1)):
            raise Malformed("a colour class does not dominate")
        f = F(p, q)
        return f"({p}:{q})-colouring, fdom >= {f.numerator}/{f.denominator}"
    r = rational(doc["r"])
    prob = dict.fromkeys(all_sets(g.n), F(0))
    for a in doc["atoms"]:
        prob[vertex_set(a["set"], g.n)] += rational(a["p"])
    nbhd = closed_neighbourhoods(g)
    demand = [F(4, 5) if len(nb) == 2 else 1 for nb in nbhd]  # the standard demand
    if min(prob.values()) < 0 or sum(prob.values()) != 1 or any(
            sum(pr for s, pr in prob.items() if v in s) != r
            or sum(pr for s, pr in prob.items() if s & nbhd[v]) < demand[v]
            for v in range(g.n)):
        raise Malformed("not an r-dominating distribution")
    return f"{r.numerator}/{r.denominator}-dominating"


@pytest.mark.parametrize("name,kind", CASES)
def test_brute_force_confirms_every_unmutated_document(name, kind):
    doc, g = document(name, kind), GRAPHS[name]
    assert doc.get("type", kind) == kind or kind == "distribution"
    assert run_verify(g, flag(kind), doc) == (0, f"valid: {confirmed_claim(g, flag(kind), doc)}")


# -- the mutations -------------------------------------------------------


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 7), st.sampled_from([10 ** 40, -10 ** 40, 2 ** 64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1", "2", "5", "١", "٣", "１", "x", "", " 1",
                     "1/2", "1_0", "9" * 40]),
    st.sampled_from([[], {}, ["1", "0"], ["0", "1"], ["1", "2"], [0, 1], [[0]], {"set": []}]))


def slots(node, role=()) -> list:
    """(container, key, role) for every value inside node, outermost first.
    The role is the path's object keys, so like values share it: the ids of
    all sets, the numerators of all weights."""
    out = []
    for key, x in list(node.items() if isinstance(node, dict) else enumerate(node)):
        at = role + (key,) if isinstance(node, dict) else role
        out.append((node, key, at))
        if isinstance(x, (dict, list)):
            out += slots(x, at)
    return out


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        places = slots(doc)
        op = draw(st.sampled_from(["replace", "delete", "append", "nudge", "swap", "swap"]))
        leaves = [p for p in places if not isinstance(p[0][p[1]], (dict, list))]
        numbers = [p for p in leaves if is_integer(p[0][p[1]])]
        node, key, role = draw(st.sampled_from({"nudge": numbers, "swap": leaves}.get(op)
                                               or places))
        old = node[key]
        if op == "nudge" and is_integer(old):
            node[key] = type(old)(int(old) + draw(st.sampled_from([-1, 1])))
        elif op == "swap":
            # two like values trade places: the file keeps its shape and the
            # multiset of its values, so most swaps are read and then judged
            other, at, _ = draw(st.sampled_from([p for p in leaves if p[2] == role]))
            node[key], other[at] = other[at], old
        elif op == "delete":
            del node[key]
        else:
            # drawn values are copied: a list drawn twice must not grow between runs
            value = copy.deepcopy(draw(ODD_VALUES | st.sampled_from([c[k] for c, k, _ in places])))
            if op == "append" and isinstance(old, list):
                old.append(value)
            else:
                node[key] = value
    if draw(st.booleans()):
        # restate the total of the mutated weights, so that the checks
        # behind the stated value see the file
        try:
            parts = doc["weights"] if "weights" in doc else [c["x"] for c in doc["columns"]]
            total = sum(map(rational, parts), F(0))
            doc["value"] = [str(total.numerator), str(total.denominator)]
        except (Malformed, KeyError, TypeError):
            pass
    return doc


def run_verify(g: Graph, flag: str, doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        graph, cert = Path(tmp) / "g.graph", Path(tmp) / "cert.json"
        graph.write_text(write_graph_text(g))
        cert.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--in", str(graph), f"--{flag}", str(cert)]
                        + (["--demand", "standard"] if flag == "distribution" else []))
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue().strip()


@pytest.mark.parametrize("name,kind", CASES)
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_mutated_certificates_exit_2_or_1_or_state_a_true_claim(name, kind, data):
    doc, g = data.draw(mutated(document(name, kind))), GRAPHS[name]
    code, out = run_verify(g, flag(kind), doc)
    assert code in (0, 1, 2), (code, out)
    if code == 0:
        assert out == f"valid: {confirmed_claim(g, flag(kind), doc)}"
