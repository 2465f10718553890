"""fdomlab benchmark: time to a certified result on four workloads.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`
there.  Passes repeat, single-threaded, until the next one would end after
--seconds (there is always at least one).  Every output is checked against
a known value; the time of those checks is left out of the pass.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import time

SETUP_CLOCK = time.perf_counter()  # set-up is timed from here: import plus inputs

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 16  # this process plus fifteen fresh ones
WORKLOADS = ("corpus", "colgen", "reduction", "construct")


def load(workload: str, seed: int):
    """Import the package from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import fdomlab
    if Path(fdomlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"fdomlab was imported from {fdomlab.__file__}, not from {SRC}")
    import workloads
    return workloads.WORKLOADS[workload](seed)


def probe_setup(args) -> float:
    """Set-up time of a fresh process: import plus input generation."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json declares it."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list[float]
    layers: Optional[dict] = None
    silent: tuple[str, ...] = ()
    unbound: tuple[str, ...] = ()


def run_pass(wl, workload: str, gate, traced: bool) -> Pass:
    """One pass; its wall and CPU time leave out the gate's own checks."""
    import layers
    import spans
    wall0, cpu0, gate_wall0, gate_cpu0 = time.perf_counter(), cpu_seconds(), gate.wall, gate.cpu

    def elapsed() -> tuple[float, float]:
        return (time.perf_counter() - wall0 - (gate.wall - gate_wall0),
                cpu_seconds() - cpu0 - (gate.cpu - gate_cpu0))

    if not traced:
        latencies = wl.run_pass(gate, lambda name: contextlib.nullcontext())
        return Pass(*elapsed(), latencies)
    tracer = spans.Tracer()
    with spans.traced(tracer, layers.BINDINGS) as unbound:
        latencies = wl.run_pass(gate, tracer.span)
    return Pass(*elapsed(), latencies, layers.pass_metrics(tracer),
                tuple(layers.silent_spans(workload, tracer)), tuple(unbound))


def end_to_end(setups: list[float], passes: list[Pass]) -> dict[str, tuple[float, str]]:
    lat = [x for p in passes for x in p.latencies]
    k = len(passes)
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(p.wall for p in passes), f"median of {k} passes"),
        "cpu_s": (statistics.median(p.cpu for p in passes),
                  f"median of {k} passes, with children"),
        "item_ms_p50": (1000 * statistics.median(lat), f"{len(lat)} samples"),
        "peak_rss_mb": (peak_rss_mb(), "this process or its largest child"),
    }


def tail_line(passes: list[Pass]) -> str:
    """item_ms_p95, printed only when at least ten samples lie beyond it."""
    lat = [x for p in passes for x in p.latencies]
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
    beyond = sum(x > p95 for x in lat)
    if beyond < 10:
        return (f"  {'item_ms_p95':42s} {'unresolved':>14s} ms     "
                f"{len(lat)} samples, only {beyond} beyond the 95th percentile")
    return f"  {'item_ms_p95':42s} {1000 * p95:14.6g} ms     {len(lat)} samples, {beyond} beyond"


def per_layer(workload: str, plain: list[Pass], traced: list[Pass], gate
              ) -> dict[str, tuple[float, str]]:
    import layers
    per_pass = [p.layers for p in traced]
    for name in layers.COUNTS:
        values = {p[name] for p in per_pass}
        gate.check(len(values) == 1, f"count {name} differs between passes: {sorted(values)}")
    metrics = layers.median_metrics(per_pass)
    recorded = json.loads((HERE / "counts.json").read_text()).get(workload, {})
    drift = [f"{name}: recorded {recorded[name]}, now {metrics[name]}"
             for name in layers.COUNTS if name in recorded and recorded[name] != metrics[name]]
    for line in drift:
        print(f"count drift on {workload}: {line}", file=sys.stderr)
    metrics["count_drift"] = len(drift)
    metrics["trace_overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain) - 1)
    note = f"median of {len(traced)} traced passes"
    return {name: (value, note if name.endswith("_s") else "")
            for name, value in metrics.items()}


def report(title: str, metrics: dict[str, tuple[float, str]], unit: dict[str, str]) -> None:
    print(title)
    for name, (value, note) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit[name]:6s} {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    try:
        wl = load(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import fdomlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup = time.perf_counter() - SETUP_CLOCK
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup]
    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import workloads
    gate = workloads.Gate()
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(wl, args.workload, gate, traced=False))
        if args.trace:
            traced.append(run_pass(wl, args.workload, gate, traced=True))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    title = (f"fdomlab benchmark: workload {args.workload}, seed {args.seed}, "
             f"{len(plain)} untraced and {len(traced)} traced passes\n"
             f"  pass seconds: {' '.join(f'{p.wall:.3f}' for p in plain)} untraced; "
             f"{' '.join(f'{p.wall:.3f}' for p in traced) or '-'} traced")
    if args.trace:
        metrics = per_layer(args.workload, plain, traced, gate)
        for p in traced:
            for span in p.silent:
                gate.check(False, f"traced span {span} recorded no calls on {args.workload}"
                                  + (f" (unbound: {', '.join(p.unbound)})" if p.unbound else ""))
        if args.workload == "colgen":
            m = {k: v[0] for k, v in metrics.items()}
            parts = (m["fdom.master_self_s"] + m["fdom.pricing_s"]
                     + m["fdom.verify_primal_s"] + m["fdom.verify_dual_s"])
            title += (f"\n  master self + pricing + verify = {parts:.3f} s "
                      f"of fdom_colgen {m['fdom.fdom_colgen_s']:.3f} s")
    else:
        metrics = end_to_end(setups, plain)
    unit = units()
    report(title, metrics, unit)
    if not args.trace:
        print(tail_line(plain))
    print(f"  {'failed_ops':42s} {gate.failed:14d} count  of {gate.attempted} attempted")
    for miss in gate.misses[:20]:
        print(f"FAILED: {miss}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
