import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "colgen", "reduction", "construct")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_required_bench_span_goes_silent(workload, monkeypatch):
    # a shortcut that starves a REQUIRED span (say simplex.simplex_exact on
    # reduction) fails a traced bench run; one traced pass here finds it first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    assert sorted(layers.REQUIRED) == sorted(WORKLOADS)
    wl, gate, tracer = workloads.WORKLOADS[workload](0), workloads.Gate(), spans.Tracer()
    with spans.traced(tracer, layers.BINDINGS) as unbound:
        wl.run_pass(gate, tracer.span)
    assert unbound == []
    assert layers.silent_spans(workload, tracer) == []
    assert gate.failed == 0, gate.misses
