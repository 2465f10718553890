import copy
import io
import itertools
import json
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdomlab import chromatic, cli
from fdomlab.cli import main
from fdomlab.construct import ConstructionError, construct52
from fdomlab.distributions import DistributionError, DominatingDistribution
from fdomlab.fdom import certificate_from_json, fdom_exact
from fdomlab.generators import coxeter, cycle, theta_graph
from fdomlab.graphs import Graph, read_graph_text, write_graph_text


def write_graph(tmp_path, g, name="g.graph"):
    path = tmp_path / name
    path.write_text(write_graph_text(g))
    return str(path)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "c7.graph"
    assert main(["gen", "cycle", "7", "--out", str(out)]) == 0
    g = read_graph_text(out.read_text())
    assert g == cycle(7)
    assert main(["gen", "path", "3"]) == 0
    assert read_graph_text(capsys.readouterr().out) == Graph(3, [(0, 1), (1, 2)])


def test_fdom_prints_rational_and_certificates_verify(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(7))
    cert_path = tmp_path / "cert.json"
    assert main(["fdom", "--in", path, "--out", str(cert_path)]) == 0
    assert capsys.readouterr().out.strip() == "7/3"
    blob = json.loads(cert_path.read_text())
    primal = certificate_from_json(blob["primal"])
    assert primal.objective == F(7, 3)
    # bit-exact round trip through the verify subcommand
    primal_path = tmp_path / "primal.json"
    primal_path.write_text(json.dumps(blob["primal"]))
    assert main(["verify", "--in", path, "--primal", str(primal_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid: fdom >= 7/3"
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(blob["dual"]))
    assert main(["verify", "--in", path, "--dual", str(dual_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid: fdom <= 7/3"


def test_fdom_on_c6_writes_the_domatic_partition(tmp_path, capsys):
    # C6 is domatically full: three disjoint pairs at weight 1, N[v] as the dual
    path = write_graph(tmp_path, cycle(6))
    cert_path = tmp_path / "cert.json"
    assert main(["fdom", "--in", path, "--out", str(cert_path)]) == 0
    assert capsys.readouterr().out.strip() == "3/1"
    blob = json.loads(cert_path.read_text())
    assert [c["x"] for c in blob["primal"]["columns"]] == [["1", "1"]] * 3
    for kind, claim in [("primal", "fdom >= 3/1"), ("dual", "fdom <= 3/1")]:
        cert = tmp_path / f"{kind}.json"
        cert.write_text(json.dumps(blob[kind]))
        assert main(["verify", "--in", path, f"--{kind}", str(cert)]) == 0
        assert capsys.readouterr().out.strip() == f"valid: {claim}"


def test_verify_usage_errors_carry_the_error_prefix(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    res = fdom_exact(cycle(5))
    primal, dual = tmp_path / "primal.json", tmp_path / "dual.json"
    primal.write_text(json.dumps(res.primal.to_json()))
    dual.write_text(json.dumps(res.dual.to_json()))
    for extra, message in [(["--primal", str(dual)], "not a primal certificate"),
                           (["--dual", str(primal)], "not a dual certificate"),
                           ([], "nothing to verify")]:
        assert main(["verify", "--in", path] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.strip() == f"error: {message}"


def test_orbit_primal_round_trip(tmp_path, capsys):
    path = write_graph(tmp_path, coxeter())
    cert_path = tmp_path / "cert.json"
    assert main(["fdom", "--in", path, "--colgen", "--out", str(cert_path)]) == 0
    assert capsys.readouterr().out.strip() == "4/1"
    blob = json.loads(cert_path.read_text())["primal"]
    assert blob["type"] == "orbit-primal" and blob["generators"]
    primal_path = tmp_path / "primal.json"
    primal_path.write_text(json.dumps(blob))
    assert main(["verify", "--in", path, "--primal", str(primal_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid: fdom >= 4/1"
    # swap two images of the first generator: a permutation, no automorphism
    gen = blob["generators"][0]
    u = next(u for u in range(28) if not coxeter().has_edge(gen[0], gen[u]) and u)
    gen[0], gen[u] = gen[u], gen[0]
    primal_path.write_text(json.dumps(blob))
    assert main(["verify", "--in", path, "--primal", str(primal_path)]) == 1
    assert capsys.readouterr().out.strip().endswith("is not an automorphism")
    del blob["generators"]
    primal_path.write_text(json.dumps(blob))
    assert main(["verify", "--in", path, "--primal", str(primal_path)]) == 2
    assert capsys.readouterr().err.strip() == "error: missing key 'generators'"


def test_construct52_bad_family_exit(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(7))
    assert main(["construct52", "--in", path]) == 1
    assert "bad-family:C7" in capsys.readouterr().err


def test_construct52_emits_verifiable_distribution(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    out = tmp_path / "dist.json"
    assert main(["construct52", "--in", path, "--out", str(out)]) == 0
    d, r = DominatingDistribution.from_json(json.loads(out.read_text()))
    assert r == F(2, 5)
    assert main(["verify", "--in", path, "--distribution", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "valid: 2/5-dominating"


def test_verify_rejects_bad_dual(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "dual", "value": ["5", "3"],
                               "weights": [["1", "3"]] * 5}))
    assert main(["verify", "--in", path, "--dual", str(bad)]) == 1
    capsys.readouterr()
    # a negative weight is named with its vertex, not as a light dominating set
    bad.write_text(json.dumps({"type": "dual", "value": ["2", "1"],
                               "weights": [["1", "2"]] * 3 + [["-1", "2"], ["1", "2"]]}))
    assert main(["verify", "--in", path, "--dual", str(bad)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: negative weight -1/2 at vertex 3"


def triangle_path(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    return str(path)


def test_verify_distribution_rejects_out_of_range_vertex(tmp_path, capsys):
    path = triangle_path(tmp_path)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"r": ["1", "1"],
                                "atoms": [{"set": [0, 1, 2, 9], "p": ["1", "1"]}]}))
    assert main(["verify", "--in", path, "--distribution", str(dist)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: vertex 9 out of range for n=3"


def atoms_with(**atom):
    return {"r": ["1", "3"], "atoms": [{"set": [0], "p": ["1", "1"], **atom}]}


MALFORMED = [
    ("--distribution", []),
    ("--distribution", {"r": ["1", "3"], "atoms": 5}),
    ("--distribution", atoms_with(p=["1"])),
    ("--distribution", atoms_with(set=0)),
    ("--distribution", atoms_with(set=[0.5])),
    ("--distribution", atoms_with(set=[True])),
    ("--distribution", atoms_with(set=[0, 0])),
    ("--primal", []),
    ("--primal", {"type": "primal", "value": ["1", "1"], "columns": 5}),
    ("--primal", {"type": "primal", "value": ["1", "1"],
                  "columns": [{"set": [0], "x": ["1"]}]}),
    ("--dual", []),
    ("--dual", {"type": "dual", "value": ["1", "1"], "weights": 3}),
    ("--dual", {"type": "dual", "value": ["1", "1"], "weights": [["1"]]}),
    ("--colouring", {"p": 3, "q": 1, "phi": 7}),
    ("--colouring", {"p": "5", "q": 1, "phi": [[1], [2], [3]]}),
]


@pytest.mark.parametrize("flag, blob", MALFORMED,
                         ids=[f"{flag} {json.dumps(blob)}" for flag, blob in MALFORMED])
def test_verify_malformed_json_exits_2(tmp_path, capsys, flag, blob):
    path = triangle_path(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert main(["verify", "--in", path, flag, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


MISSING = [
    ("--primal", {"type": "primal", "columns": []}, "value"),
    ("--primal", {"type": "primal", "value": ["1", "1"], "columns": [{"set": [0, 1, 2]}]}, "x"),
    ("--primal", {"type": "primal", "value": ["1", "1"]}, "columns"),
    ("--primal", {"type": "orbit-primal", "value": ["0", "1"], "columns": []}, "generators"),
    ("--dual", {"type": "dual", "value": ["1", "1"]}, "weights"),
    ("--distribution", {"atoms": [{"set": [0, 1, 2], "p": ["1", "1"]}]}, "r"),
    ("--distribution", {"r": ["1", "1"], "atoms": [{"set": [0, 1, 2]}]}, "p"),
    ("--colouring", {"p": 3, "phi": [[1], [2], [3]]}, "q"),
]


@pytest.mark.parametrize("flag, blob, key", MISSING)
def test_verify_names_a_missing_key(tmp_path, capsys, flag, blob, key):
    path = triangle_path(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert main(["verify", "--in", path, flag, str(bad)]) == 2
    assert capsys.readouterr().err.strip() == f"error: missing key {key!r}"


def test_verify_primal_rejects_out_of_range_vertex(tmp_path, capsys):
    path = triangle_path(tmp_path)
    cert = tmp_path / "primal.json"
    cert.write_text(json.dumps({"type": "primal", "value": ["1", "1"],
                                "columns": [{"set": [0, 7], "x": ["1", "1"]}]}))
    assert main(["verify", "--in", path, "--primal", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("invalid: column [0, 7]")


@pytest.mark.parametrize("flag, blob, message", [
    ("--primal", {"type": "primal", "value": ["1", "1"],
                  "columns": [{"set": [0, 10 ** 8], "x": ["1", "1"]}]},
     "invalid: column [0, 100000000] has a vertex out of range for n=3"),
    ("--distribution", {"r": ["1", "1"], "atoms": [{"set": [0, 10 ** 8], "p": ["1", "1"]}]},
     "invalid: vertex 100000000 out of range for n=3"),
])
def test_verify_rejects_a_huge_vertex_id_before_building_its_set(tmp_path, capsys, flag,
                                                                  blob, message):
    import tracemalloc
    path = triangle_path(tmp_path)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(blob))
    tracemalloc.start()
    try:
        assert main(["verify", "--in", path, flag, str(cert)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the bitmask 1 << 10^8 alone takes 12.5 MB
    assert capsys.readouterr().out.strip() == message


def test_verify_dual_rejects_zero_denominator(tmp_path, capsys):
    path = triangle_path(tmp_path)
    cert = tmp_path / "dual.json"
    cert.write_text(json.dumps({"type": "dual", "value": ["1", "1"],
                                "weights": [["1", "0"], ["1", "1"], ["1", "1"]]}))
    assert main(["verify", "--in", path, "--dual", str(cert)]) == 2
    assert capsys.readouterr().err.strip() == "error: zero denominator in ['1', '0']"


def test_verify_primal_rejects_zero_denominator(tmp_path, capsys):
    path = triangle_path(tmp_path)
    cert = tmp_path / "primal.json"
    cert.write_text(json.dumps({"type": "primal", "value": ["1", "0"],
                                "columns": [{"set": [0], "x": ["1", "1"]}]}))
    assert main(["verify", "--in", path, "--primal", str(cert)]) == 2
    assert capsys.readouterr().err.strip() == "error: zero denominator in ['1', '0']"


def test_verify_distribution_rejects_zero_denominator(tmp_path, capsys):
    path = triangle_path(tmp_path)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"r": ["1", "1"],
                                "atoms": [{"set": [0, 1, 2], "p": ["1", "0"]}]}))
    assert main(["verify", "--in", path, "--distribution", str(dist)]) == 2
    assert capsys.readouterr().err.strip() == "error: zero denominator in ['1', '0']"


def test_sample_rejects_zero_denominator(tmp_path, capsys):
    path = triangle_path(tmp_path)
    assert main(["sample-lnbound", "--in", path, "--p", "1/0", "--trials", "10"]) == 2
    assert capsys.readouterr().err.strip() == "error: zero denominator in '1/0'"


def test_sample_rejects_the_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("p 0 0\n")
    assert main(["sample-lnbound", "--in", str(path), "--p", "1/3", "--trials", "10"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: empty graph" and "Traceback" not in err


@pytest.mark.parametrize("argv", [["family-cert", "--kind", "uniform"],
                                  ["family-cert", "--kind", "neighbourhood"],
                                  ["fullness"], ["domatic"], ["chif"]])
def test_graph_commands_reject_the_empty_graph(tmp_path, capsys, argv):
    path = tmp_path / "empty.graph"
    path.write_text("p 0 0\n")
    assert main(argv + ["--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: empty graph" and "Traceback" not in err


def test_sample_rejects_a_negative_seed(tmp_path, capsys):
    path = triangle_path(tmp_path)
    assert main(["sample-lnbound", "--in", path, "--p", "1/3", "--trials", "10",
                 "--seed", "-7"]) == 2
    assert capsys.readouterr().err.strip() == "error: seed must be >= 0"


def test_verify_colouring_rejects_too_few_entries(tmp_path, capsys):
    path = triangle_path(tmp_path)
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"p": 3, "q": 1, "phi": [[1], [2]]}))
    assert main(["verify", "--in", path, "--colouring", str(phi)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: colouring has 2 entries for n=3"


def test_verify_colouring_rejects_too_many_entries(tmp_path, capsys):
    path = triangle_path(tmp_path)
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"p": 3, "q": 1, "phi": [[1], [2], [3], [1]]}))
    assert main(["verify", "--in", path, "--colouring", str(phi)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: colouring has 4 entries for n=3"
    phi.write_text(json.dumps({"p": 3, "q": 1, "phi": [[1], [2], [3]]}))
    assert main(["verify", "--in", path, "--colouring", str(phi)]) == 0
    assert capsys.readouterr().out.strip() == "valid: (3:1)-colouring, fdom >= 3/1"


def test_verify_colouring_with_a_huge_palette_checks_without_building_it(tmp_path, capsys):
    path = triangle_path(tmp_path)
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"p": 10 ** 9, "q": 1, "phi": [[1], [2], [3]]}))
    start = time.perf_counter()
    assert main(["verify", "--in", path, "--colouring", str(phi)]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.strip() == "invalid: neighbourhoods missing colours at [0, 1, 2]"
    phi.write_text(json.dumps({"p": 10 ** 9, "q": 1, "phi": [[1], [2], [10 ** 9 + 1]]}))
    assert main(["verify", "--in", path, "--colouring", str(phi)]) == 2
    assert capsys.readouterr().err.strip() == "error: each vertex needs exactly q colours from [p]"


def test_gamma_domatic_chi(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    assert main(["gamma", "--in", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2"
    assert main(["domatic", "--in", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "3"
    assert main(["chi", "--in", path]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["chif", "--in", path]) == 0
    assert capsys.readouterr().out.strip() == "2/1"
    # an isolated vertex leaves one dominating class
    assert main(["domatic", "--in", write_graph(tmp_path, Graph(3, [(0, 1)]), "iso.graph")]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", "part: 0 1 2"]


def test_planar_construct_output_verifies(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(16))
    out = tmp_path / "dist.json"
    assert main(["planar-construct", "--in", path, "--k", "2", "--out", str(out)]) == 0
    assert main(["verify", "--in", path, "--distribution", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "valid: 2/5-dominating"


def test_reduce_s_and_fullness_reports(tmp_path, capsys):
    assert main(["reduce-s", "--in", write_graph(tmp_path, cycle(5))]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "chi_f 5/2", "fdom_split 3/1", "equivalence holds"]
    assert main(["fullness", "--in", write_graph(tmp_path, cycle(5))]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree 2", "chi_square 5", "chi_f_square 5/1", "dom_full False", "fdom_full False"]
    assert main(["fullness", "--in", write_graph(tmp_path, cycle(6), "c6.graph")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree 2", "chi_square 3", "chi_f_square 3/1", "dom_full True", "fdom_full True"]


def test_chi_prints_bounds_once_its_budget_is_spent(tmp_path, capsys, monkeypatch):
    # each clock reading is a second past the last, so the 1 ms budget is
    # spent before the first k-colouring search; C5 stays bracketed
    monkeypatch.setenv("FDOMLAB_TIME_BUDGET_MS", "1")
    monkeypatch.setattr(chromatic, "time", SimpleNamespace(monotonic=itertools.count().__next__))
    assert main(["chi", "--in", write_graph(tmp_path, cycle(5))]) == 3
    assert capsys.readouterr().out.strip() == "bounds [2,3]"


def test_usage_errors(tmp_path, capsys):
    assert main(["gen", "nosuchfamily"]) == 2
    path = write_graph(tmp_path, cycle(5))
    assert main(["verify", "--in", path]) == 2


def test_repeated_edge_in_a_graph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.graph"
    path.write_text("p 3 2\ne 0 1\ne 1 0\n")
    assert main(["fdom", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: repeated edge (1,0)"


def test_huge_vertex_count_in_a_graph_file_exits_2(tmp_path, capsys):
    # rejected at the header: building the masks would exhaust memory
    path = tmp_path / "huge.graph"
    path.write_text("p 1000000000000000 0\n")
    assert main(["gamma", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: 1000000000000000 vertices exceed the cap")


def test_cap_exit(tmp_path, capsys, monkeypatch):
    from fdomlab import domset
    path = write_graph(tmp_path, cycle(21))
    assert main(["fdom", "--in", path, "--colgen"]) == 0
    assert main(["--caps", "domatic=5", "domatic", "--in", path]) == 2
    assert main(["--caps", "bogus=1", "domatic", "--in", path]) == 2
    assert main(["--caps", "coins=5", "domatic", "--in", path]) == 2
    monkeypatch.setattr(domset, "COLOURING_NODE_CAP", 5)
    assert main(["domatic", "--in", path]) == 3


def test_lifted_caps_on_long_cycles_answer(tmp_path, capsys):
    # the colouring searches keep one stack level per vertex on their own
    # stacks, so caps lifted past the recursion limit end in an answer
    c1200, c1201 = tmp_path / "c1200.graph", tmp_path / "c1201.graph"
    assert main(["gen", "cycle", "1200", "--out", str(c1200)]) == 0
    assert main(["gen", "cycle", "1201", "--out", str(c1201)]) == 0
    capsys.readouterr()
    assert main(["domatic", "--in", str(c1200)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "3"
    assert main(["--caps", "enum=2000", "fdom", "--in", str(c1200)]) == 0
    assert capsys.readouterr().out.strip() == "3/1"
    assert main(["--caps", "chi=2000", "chi", "--in", str(c1201)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_intersecting_family_cli(capsys):
    assert main(["intersecting-family", "--a", "2", "--b", "0"]) == 0
    out = capsys.readouterr().out
    assert "t 20" in out and "set_size 8" in out


def test_intersecting_family_reports_only_checked_intersections(capsys):
    # with no B-set (or no A-pair) there is no such intersection to report
    assert main(["intersecting-family", "--a", "2", "--b", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "a_pair_intersection 4", "b_cross_intersection none"]
    assert main(["intersecting-family", "--a", "0", "--b", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "a_pair_intersection none", "b_cross_intersection none"]


def test_sample_cli(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    assert main(["sample-lnbound", "--in", path, "--p", "1/3",
                 "--trials", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all_dominating True" in out


def test_family_cert_cli(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["family-cert", "--kind", "girth6", "2", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["type"] == "dual"


def test_family_cert_hammock_and_kmn_primal(tmp_path, capsys):
    theta = write_graph(tmp_path, theta_graph((2, 3, 4)))
    assert main(["family-cert", "--kind", "hammock", "--in", theta]) == 0
    assert capsys.readouterr().err.splitlines() == ["total 5/2", "valid"]
    c5 = write_graph(tmp_path, cycle(5), "c5.graph")
    assert main(["family-cert", "--kind", "hammock", "--in", c5]) == 2
    assert capsys.readouterr().err.strip() == "error: no hammock in input"
    # a primal certificate, checked by verify_primal on K3,2
    assert main(["family-cert", "--kind", "kmn_primal", "3", "2"]) == 0
    assert capsys.readouterr().err.splitlines() == ["total 7/3", "valid"]


def assert_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_family_cert_graph_kinds_need_input(capsys):
    for kind in ("uniform", "neighbourhood", "hammock"):
        assert_usage_error(["family-cert", "--kind", kind], capsys)


def test_family_cert_rejects_too_few_params(capsys):
    for kind in ("girth6", "kmn_dual", "kmn_primal", "hnd"):
        assert_usage_error(["family-cert", "--kind", kind], capsys)
    for kind in ("kmn_dual", "kmn_primal", "hnd"):
        assert_usage_error(["family-cert", "--kind", kind, "4"], capsys)


def test_family_cert_rejects_out_of_range_vertex(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(3))
    for v in ("7", "3", "-1"):
        assert_usage_error(["family-cert", "--kind", "neighbourhood", "--in", path,
                            "--vertex", v], capsys)
    assert main(["family-cert", "--kind", "neighbourhood", "--in", path,
                 "--vertex", "2"]) == 0


def test_intersecting_family_rejects_negative_sizes(capsys):
    assert_usage_error(["intersecting-family", "--a", "-1", "--b", "0"], capsys)
    assert_usage_error(["intersecting-family", "--a", "0", "--b", "-1"], capsys)


def test_corpus_runner(tmp_path, capsys):
    # empty directory: empty summary, exit 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["corpus", "--dir", str(empty), "--check", "fdom<5/2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["results"] == [] and summary["failures"] == 0
    # the eight exceptional graphs all satisfy fdom < 5/2
    from fdomlab.badfamily import bad_family_members
    bdir = tmp_path / "bad"
    bdir.mkdir()
    for idx, g in bad_family_members().items():
        (bdir / f"member{idx}.graph").write_text(write_graph_text(g))
    assert main(["corpus", "--dir", str(bdir), "--check", "fdom<5/2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == 0 and len(summary["results"]) == 8
    # construct52 over a mixed directory fails on the exceptional member
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "a_c5.graph").write_text(write_graph_text(cycle(5)))
    (mixed / "b_c7.graph").write_text(write_graph_text(cycle(7)))
    (mixed / "c_theta.graph").write_text(write_graph_text(theta_graph((2, 2, 5))))
    assert main(["corpus", "--dir", str(mixed), "--check", "construct52"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == 1
    assert [r["file"] for r in summary["results"]] == \
        ["a_c5.graph", "b_c7.graph", "c_theta.graph"]


def test_corpus_rejects_unknown_check(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["corpus", "--dir", str(empty), "--check", "bogus"]) == 2
    assert capsys.readouterr().out == ""


def test_corpus_records_cap_per_file(tmp_path, capsys):
    (tmp_path / "a_c21.graph").write_text(write_graph_text(cycle(21)))
    (tmp_path / "b_c7.graph").write_text(write_graph_text(cycle(7)))
    assert main(["corpus", "--dir", str(tmp_path), "--check", "fdom<5/2"]) == 1
    summary = json.loads(capsys.readouterr().out)
    a, b = summary["results"]
    assert a["pass"] is False and a["error"].startswith("cap: ")
    assert b["pass"] is True and b["fdom"] == "7/3"
    assert summary["failures"] == 1


def test_corpus_honours_enum_cap(tmp_path, capsys):
    (tmp_path / "c21.graph").write_text(write_graph_text(cycle(21)))
    assert main(["--caps", "enum=24", "corpus", "--dir", str(tmp_path),
                 "--check", "fdom<5/2"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["results"]
    assert row["fdom"] == "3/1" and "error" not in row
    assert row["pass"] is False


def test_construction_error_exits_internal(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise ConstructionError("postcondition violated: membership 1/5 != 2/5 at vertex 0")
    monkeypatch.setattr(cli, "construct52", broken)
    assert main(["construct52", "--in", write_graph(tmp_path, cycle(5))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: postcondition violated")
    assert "Traceback" not in err


def test_complete_to_r_failure_in_construction_exits_internal(tmp_path, capsys, monkeypatch):
    from fdomlab import construct

    def overshoot(d, r, n):
        raise DistributionError("membership 3/5 exceeds target 2/5 at vertex 0")
    monkeypatch.setattr(construct, "complete_to_r", overshoot)
    assert main(["construct52", "--in", write_graph(tmp_path, cycle(5))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "exceeds target" in err
    assert "Traceback" not in err


def test_failed_fdom_self_check_exits_internal(tmp_path, capsys, monkeypatch):
    from fdomlab import fdom
    monkeypatch.setattr(fdom, "verify_dual", lambda g, cert: (False, "forced failure"))
    assert main(["fdom", "--in", write_graph(tmp_path, cycle(5))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: dual verification failed")
    assert "Traceback" not in err


def test_dual_weight_count_must_match_n(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    assert main(["family-cert", "--kind", "girth6", "2", "--in", path]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "invalid: certificate has 14 weights for n=5")
    cert = tmp_path / "dual.json"
    cert.write_text(json.dumps({"type": "dual", "value": ["2", "1"],
                                "weights": [["1", "1"], ["1", "1"]]}))
    assert main(["verify", "--in", path, "--dual", str(cert)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: certificate has 2 weights for n=5"


def test_domatic_cap_exits_cap(tmp_path, capsys, monkeypatch):
    from fdomlab import domset
    monkeypatch.setattr(domset, "COLOURING_NODE_CAP", 100)
    assert main(["domatic", "--in", write_graph(tmp_path, coxeter())]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: ")


def test_family_cert_rejects_flags_its_kind_does_not_read(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    for kind in ("uniform", "hammock"):
        assert_usage_error(["family-cert", "--kind", kind, "--in", path,
                            "--vertex", "99"], capsys)
    assert_usage_error(["family-cert", "--kind", "girth6", "2", "--vertex", "0"], capsys)
    for kind in ("uniform", "neighbourhood", "hammock"):
        assert_usage_error(["family-cert", "--kind", kind, "7", "7", "--in", path], capsys)


def test_family_cert_hammock_on_the_empty_graph_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("p 0 0\n")
    assert main(["family-cert", "--kind", "hammock", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: no hammock in input" and "Traceback" not in err


def test_chif_on_the_matching_and_the_friendship_graph(tmp_path, capsys):
    # an optimal class takes one vertex of each edge or triangle, so its set
    # orbit under Aut(G) holds 2^17 masks; none is listed
    m17 = Graph(34, [(2 * i, 2 * i + 1) for i in range(17)])
    f17 = Graph(35, [e for i in range(17)
                     for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])
    for g, value in [(m17, "2/1"), (f17, "3/1")]:
        assert main(["chif", "--in", write_graph(tmp_path, g)]) == 0
        assert capsys.readouterr().out == value + "\n"


def test_failed_chi_f_self_check_exits_internal(tmp_path, capsys, monkeypatch):
    from fdomlab import chromatic

    def overweight(g, weights):
        return (1 << g.n) - 1, sum(weights)
    monkeypatch.setattr(chromatic, "max_weight_independent_set", overweight)
    assert main(["chif", "--in", write_graph(tmp_path, cycle(5))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value, code, message", [
    (["5", "2"], 0, "valid: fdom <= 5/2"),
    (["1", "1"], 1, "invalid: value mismatch: 5/2 != 1"),
    (["1", "0"], 2, "error: zero denominator in ['1', '0']"),
    ("junk", 2, "error: expected a [num, den] pair, got 'junk'"),
    (None, 2, "error: missing key 'value'"),
])
def test_verify_dual_checks_its_stated_value(tmp_path, capsys, value, code, message):
    # weights 1/2 on C5 certify fdom <= 5/2 and nothing less
    path = write_graph(tmp_path, cycle(5))
    blob = {"type": "dual", "weights": [["1", "2"]] * 5}
    if value is not None:
        blob["value"] = value
    cert = tmp_path / "dual.json"
    cert.write_text(json.dumps(blob))
    assert main(["verify", "--in", path, "--dual", str(cert)]) == code
    captured = capsys.readouterr()
    assert (captured.out if code < 2 else captured.err).strip() == message


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_time_budget_must_be_positive(tmp_path, capsys, monkeypatch, budget):
    # 0 read as no budget and -5 as one already spent; both are usage errors
    monkeypatch.setenv("FDOMLAB_TIME_BUDGET_MS", budget)
    assert main(["chi", "--in", write_graph(tmp_path, cycle(5))]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: FDOMLAB_TIME_BUDGET_MS must be positive, got {budget}")


def digits_from(base: int):
    """Rewrite the ASCII digits as the ten code points from base on."""
    return lambda s: s.translate({ord("0") + d: base + d for d in range(10)})


NON_CANONICAL = {
    "arabic-indic": digits_from(0x660),
    "full-width": digits_from(0xFF10),
    "underscore": lambda s: "0_" + s,
    "spaces": lambda s: f" {s} ",
    "plus": lambda s: "+" + s,
    "decimal": lambda s: s + ".0",
    "true": lambda s: "true",
}


@cache
def c5_inputs() -> dict:
    g = cycle(5)
    res = fdom_exact(g)
    return {"graph": write_graph_text(g), "primal": res.primal.to_json(),
            "dual": res.dual.to_json(), "distribution": construct52(g).to_json(F(2, 5))}


def rewrite_tokens(tokens: list[str], k: int, form: str) -> list[str]:
    """tokens with their k-th run of ASCII digits (counted cyclically) in a
    non-canonical form"""
    runs = [(i, m.span()) for i, t in enumerate(tokens) for m in re.finditer("[0-9]+", t)]
    i, (a, b) = runs[k % len(runs)]
    return tokens[:i] + [tokens[i][:a] + NON_CANONICAL[form](tokens[i][a:b])
                         + tokens[i][b:]] + tokens[i + 1:]


def rewrite_json(obj, k: int, form: str):
    """A copy of obj with its k-th integer (counted cyclically), a JSON int
    or a string of ASCII digits, in a non-canonical form"""
    obj = copy.deepcopy(obj)
    leaves = []

    def walk(node):
        for key, x in (node.items() if isinstance(node, dict) else enumerate(node)):
            if type(x) is int or isinstance(x, str) and re.fullmatch("[0-9]+", x):
                leaves.append((node, key))
            elif isinstance(x, (dict, list)):
                walk(x)
    walk(obj)
    node, key = leaves[k % len(leaves)]
    if form == "true":
        node[key] = True
    elif form == "decimal" and type(node[key]) is int:
        node[key] = float(node[key])
    else:
        node[key] = NON_CANONICAL[form](str(node[key]))
    return obj


@given(st.sampled_from(["graph", "primal", "dual", "distribution", "gen", "sample"]),
       st.integers(0, 200), st.sampled_from(sorted(NON_CANONICAL)))
@settings(max_examples=200, deadline=None)
def test_non_canonical_integers_exit_2(target, k, form):
    # one integer in a valid input, written in any form but -?[0-9]+ (or a
    # JSON int), is a usage error wherever it appears
    if target == "graph" and form == "spaces":
        form = "plus"  # whitespace separates the fields of a graph file
    inputs = c5_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "c5.graph"
        lines = inputs["graph"].splitlines()
        graph.write_text("\n".join(rewrite_tokens(lines, k, form) if target == "graph"
                                    else lines) + "\n")
        if target == "gen":
            argv = ["gen", *rewrite_tokens(["cycle", "5"], k, form)]
        elif target == "sample":
            argv = ["sample-lnbound", "--in", str(graph),
                    *rewrite_tokens(["--p", "1/3", "--trials", "10", "--seed", "7"], k, form)]
        else:
            kind = "dual" if target == "graph" else target
            blob = inputs[kind] if target == "graph" else rewrite_json(inputs[kind], k, form)
            cert = Path(tmp) / "cert.json"
            cert.write_text(json.dumps(blob))
            argv = ["verify", "--in", str(graph), f"--{kind}", str(cert)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code == 2, (argv, err.getvalue())
    assert "error:" in err.getvalue()


@pytest.mark.parametrize("caps, message", [
    ("bogus=1", "bad cap override 'bogus=1'"), ("chi=-3", "bad cap override 'chi=-3'"),
    ("domatic=5", "bad cap override 'domatic=5'"), ("enum=abc", "expected an integer, got 'abc'")])
@pytest.mark.parametrize("argv", [["gamma", "--in"], ["gen", "cycle", "5"],
                                  ["chif", "--in"], ["fullness", "--in"]])
def test_a_bad_cap_override_is_a_usage_error_on_every_command(tmp_path, capsys, caps, message,
                                                              argv):
    # --caps is checked before any command runs, also by those that read no cap
    if argv[-1] == "--in":
        argv = argv + [write_graph(tmp_path, cycle(5))]
    assert main(["--caps", caps] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {message}"


def test_corpus_needs_a_directory(tmp_path, capsys):
    afile = tmp_path / "c5.graph"
    afile.write_text(write_graph_text(cycle(5)))
    for where in (tmp_path / "missing", afile):
        assert main(["corpus", "--dir", str(where), "--check", "fdom<5/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"error: no directory {str(where)!r}"


def test_corpus_reports_a_file_it_cannot_check_in_its_own_row(tmp_path, capsys):
    (tmp_path / "a_c5.graph").write_text(write_graph_text(cycle(5)))
    (tmp_path / "b_bad.graph").write_text("p 3\n")
    (tmp_path / "c_one.graph").write_text("p 1 0\n")
    (tmp_path / "d_split.graph").write_text("p 4 2\ne 0 1\ne 2 3\n")
    (tmp_path / "e_c7.graph").write_text(write_graph_text(cycle(7)))
    assert main(["corpus", "--dir", str(tmp_path), "--check", "construct52"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == 4
    assert summary["results"] == [
        {"file": "a_c5.graph", "n": 5, "m": 5, "atoms": 5, "pass": True},
        {"file": "b_bad.graph", "pass": False, "error": "line 1: malformed header 'p 3'"},
        {"file": "c_one.graph", "n": 1, "m": 0, "pass": False,
         "error": "construction needs at least 2 vertices"},
        {"file": "d_split.graph", "n": 4, "m": 2, "pass": False,
         "error": "construction needs a connected graph"},
        {"file": "e_c7.graph", "n": 7, "m": 7, "pass": False, "error": "bad-family:C7"}]
    # a file that does not parse fails its row under the fdom checks too
    assert main(["corpus", "--dir", str(tmp_path), "--check", "fdom<5/2"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [r["pass"] for r in rows] == [False, False, True, True, True]
    assert "error" not in rows[0] and rows[1]["error"] == "line 1: malformed header 'p 3'"


@pytest.mark.parametrize("text, message", [
    ("p 3\n", "line 1: malformed header 'p 3'"),
    ("p 3 1\ne 1\n", "line 2: malformed edge 'e 1'"),
    ("e 0 1\n", "line 1: edge before header"),
    ("p -1 0\n", "negative vertex count"),
])
def test_malformed_graph_files_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    assert main(["gamma", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {message}"


def two_c16():
    edges = list(cycle(16).edges())
    return Graph(32, edges + [(u + 16, v + 16) for u, v in edges])


@pytest.mark.parametrize("argv, graph, message", [
    (["construct52"], Graph(1, []), "construction needs at least 2 vertices"),
    (["construct52"], Graph(4, [(0, 1), (2, 3)]), "construction needs a connected graph"),
    (["planar-construct", "--k", "1"], cycle(16), "pipeline needs k >= 2"),
    (["planar-construct", "--k", "2"], two_c16(), "pipeline needs a connected graph"),
    (["reduce-s"], Graph(3, [(0, 1)]), "reduction needs minimum degree >= 1"),
    (["sample-lnbound", "--p", "3/2"], cycle(5), "p must be in [0,1]"),
    (["sample-lnbound", "--p", "1/2", "--trials", "0"], cycle(5), "trials must be >= 1"),
])
def test_graph_commands_reject_inputs_outside_their_domain(tmp_path, capsys, argv, graph,
                                                           message):
    assert main(argv + ["--in", write_graph(tmp_path, graph)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {message}"


def test_verify_colouring_rejects_more_colours_per_vertex_than_the_palette(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"p": 1, "q": 2, "phi": [[1, 2]] * 3}))
    assert main(["verify", "--in", triangle_path(tmp_path), "--colouring", str(phi)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: needs 1 <= q <= p"


@pytest.mark.parametrize("argv, message", [
    (["gen", "complete", "0"], "complete graph needs n >= 1"),
    (["gen", "complete_bipartite", "0", "3"], "complete bipartite needs both parts nonempty"),
    (["gen", "hypercube", "0"], "hypercube needs d >= 1"),
    (["gen", "theta", "1", "1", "2"], "parallel edges not allowed"),
    (["gen", "cycle", "3", "4"], "family 'cycle' takes 1 parameter(s), got 2"),
    (["family-cert", "--kind", "kmn_dual", "2", "3"], "requires m >= n >= 2"),
])
def test_generators_and_certificates_reject_bad_parameters(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {message}"


def test_intersecting_family_past_its_ground_cap_exits_3(capsys):
    assert main(["intersecting-family", "--a", "30", "--b", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "cap exceeded: ground set of size 5368709120 exceeds cap 2000000")
