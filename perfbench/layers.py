"""Which public names a traced pass rebinds, and the per-layer metrics
derived from the spans they record.

Each binding names a consuming module and a name it imported, so the span
sees exactly the calls that module makes: `fdom.min_weight_dominating_set`
is pricing inside column generation, while the same function reached
through `verify_dual` is certificate checking.
"""

from __future__ import annotations

import statistics

from fdomlab import chromatic, construct, enumerate_graphs, fdom

import workloads
from spans import Tracer


def _distribution(tr: Tracer, d) -> None:
    tr.count("construct.atoms", len(d.atoms))
    tr.peak("construct.max_atoms", len(d.atoms))


def _fdom_result(tr: Tracer, res) -> None:
    tr.count("fdom.primal_columns", len(res.primal.columns))
    tr.peak("fdom.dual_den_bits",
            max(w.denominator.bit_length() for w in res.dual.weights))


def _graphs(tr: Tracer, graphs) -> None:
    tr.count("enumerate_graphs.graphs_out", len(graphs))


def _minimal_set(tr: Tracer, _mask) -> None:
    tr.count("domset.minimal_sets")


def _sample(tr: Tracer, rep) -> None:
    tr.count("fdom.sample_trials", rep.trials)


# (consuming module, imported name, span, hook on each result)
BINDINGS = [
    (workloads, "all_graphs", "enumerate_graphs.all_graphs", _graphs),
    (enumerate_graphs, "is_isomorphic", "enumerate_graphs.is_isomorphic", None),
    (workloads, "bad_family_check", "badfamily.bad_family_check", None),
    (construct, "bad_family_check", "badfamily.bad_family_check", None),
    (workloads, "construct52", "construct.construct52", _distribution),
    (workloads, "planar_girth_construct", "construct.planar_girth_construct", _distribution),
    (construct, "verify_f_dominating", "distributions.verify_f_dominating", None),
    (fdom, "enumerate_minimal_dominating_sets", "domset.enumerate_minimal_dominating_sets",
     _minimal_set),
    (workloads, "fdom_exact", "fdom.fdom_exact", _fdom_result),
    (chromatic, "fdom_exact", "fdom.fdom_exact", _fdom_result),
    (workloads, "fdom_colgen", "fdom.fdom_colgen", _fdom_result),
    (chromatic, "fdom_colgen", "fdom.fdom_colgen", _fdom_result),
    (fdom, "min_weight_dominating_set", "fdom.pricing", None),
    (fdom, "verify_primal", "fdom.verify_primal", None),
    (fdom, "verify_dual", "fdom.verify_dual", None),
    (workloads, "sample_lnbound", "fdom.sample_lnbound", _sample),
    (workloads, "check_reduction", "chromatic.check_reduction", None),
    (workloads, "fractional_chromatic", "chromatic.fractional_chromatic", None),
    (chromatic, "fractional_chromatic", "chromatic.fractional_chromatic", None),
    (chromatic, "max_weight_independent_set", "chromatic.max_weight_independent_set", None),
    (chromatic, "simplex_exact", "simplex.simplex_exact", None),
    (chromatic, "split_construction", "generators.split_construction", None),
]

# spans that must record calls on a workload, or the traced run fails
REQUIRED = {
    "corpus": ["enumerate_graphs.all_graphs", "enumerate_graphs.is_isomorphic",
               "badfamily.bad_family_check", "construct.construct52",
               "distributions.verify_f_dominating",
               "domset.enumerate_minimal_dominating_sets", "fdom.fdom_exact",
               "fdom.verify_primal", "fdom.verify_dual"],
    "colgen": ["fdom.fdom_colgen", "fdom.pricing", "fdom.verify_primal", "fdom.verify_dual"],
    "reduction": ["chromatic.check_reduction", "chromatic.fractional_chromatic",
                  "chromatic.max_weight_independent_set", "simplex.simplex_exact",
                  "generators.split_construction", "fdom.fdom_exact",
                  "domset.enumerate_minimal_dominating_sets"],
    "construct": ["construct.construct52", "construct.planar_girth_construct",
                  "distributions.verify_f_dominating", "badfamily.bad_family_check",
                  "fdom.sample_lnbound"],
}

# per-layer seconds: metric name -> span whose outermost time it reports
SECONDS = {
    "enumerate_graphs.all_graphs_s": "enumerate_graphs.all_graphs",
    "badfamily.bad_family_check_s": "badfamily.bad_family_check",
    "construct.construct52_s": "construct.construct52",
    "construct.planar_girth_construct_s": "construct.planar_girth_construct",
    "distributions.verify_f_dominating_s": "distributions.verify_f_dominating",
    "domset.enumerate_minimal_dominating_sets_s": "domset.enumerate_minimal_dominating_sets",
    "fdom.fdom_exact_s": "fdom.fdom_exact",
    "fdom.fdom_colgen_s": "fdom.fdom_colgen",
    "fdom.pricing_s": "fdom.pricing",
    "fdom.verify_primal_s": "fdom.verify_primal",
    "fdom.verify_dual_s": "fdom.verify_dual",
    "fdom.sample_lnbound_s": "fdom.sample_lnbound",
    "chromatic.fractional_chromatic_s": "chromatic.fractional_chromatic",
    "chromatic.check_reduction_s": "chromatic.check_reduction",
    "chromatic.max_weight_independent_set_s": "chromatic.max_weight_independent_set",
    "simplex.simplex_exact_s": "simplex.simplex_exact",
    "generators.split_construction_s": "generators.split_construction",
    "bench.gate_s": "bench.gate",
}

# machine-independent counts: these must repeat exactly between passes and runs
COUNTS = [
    "enumerate_graphs.iso_tests", "enumerate_graphs.graphs_out",
    "badfamily.bad_family_check_calls", "construct.atoms", "construct.max_atoms",
    "domset.minimal_sets", "fdom.pricing_calls", "fdom.primal_columns",
    "fdom.dual_den_bits", "fdom.sample_trials", "simplex.calls",
]


def pass_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass."""
    out = {name: tr.total[span] for name, span in SECONDS.items()}
    # the fdom_* spans less their children (enumeration, pricing, checks):
    # the time spent in the master tableau itself
    out["fdom.master_self_s"] = (tr.self_time["fdom.fdom_exact"]
                                 + tr.self_time["fdom.fdom_colgen"])
    out.update({
        "enumerate_graphs.iso_tests": tr.calls["enumerate_graphs.is_isomorphic"],
        "enumerate_graphs.graphs_out": tr.counts["enumerate_graphs.graphs_out"],
        "badfamily.bad_family_check_calls": tr.calls["badfamily.bad_family_check"],
        "construct.atoms": tr.counts["construct.atoms"],
        "construct.max_atoms": tr.maxima["construct.max_atoms"],
        "domset.minimal_sets": tr.counts["domset.minimal_sets"],
        "fdom.pricing_calls": tr.calls["fdom.pricing"],
        "fdom.primal_columns": tr.counts["fdom.primal_columns"],
        "fdom.dual_den_bits": tr.maxima["fdom.dual_den_bits"],
        "fdom.sample_trials": tr.counts["fdom.sample_trials"],
        "simplex.calls": tr.calls["simplex.simplex_exact"],
    })
    return out


def silent_spans(workload: str, tr: Tracer) -> list[str]:
    """Required spans of the workload that recorded no call."""
    return [span for span in REQUIRED[workload] if tr.calls[span] == 0]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Seconds as the median over traced passes; counts from the first pass
    (the caller checks that every pass agrees)."""
    out = {}
    for name in per_pass[0]:
        if name in COUNTS:
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    return out
