"""Column-generation ceiling sweep: how large a graph `fdom_colgen` solves
within a fixed time limit, for cycles, random cubic graphs and Kneser graphs.

This is a one-off measurement, not one of the checked workloads.  Each
solve runs in its own child process, which is killed when it exceeds the
limit; a family stops at its first size that does not finish in time.

    python3 perfbench/sweep.py
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 60  # seconds allowed per solve

FAMILIES = {
    "cycle": [(n,) for n in (24, 30, 36, 42, 48, 54, 60)],
    "cubic": [(n,) for n in (16, 20, 24, 28, 32, 36, 40)],
    "kneser": [(6, 2), (7, 2), (8, 2), (7, 3), (9, 2), (10, 2), (8, 3)],
}


def random_cubic(n: int, seed: int):
    """A connected simple cubic graph on n vertices from the pairing model,
    retrying until the pairing is simple and connected."""
    from fdomlab.graphs import Graph
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            g = Graph(n, edges)
            if g.is_connected():
                return g


def build(family: str, params: tuple[int, ...]):
    from fdomlab.generators import cycle, kneser
    if family == "cycle":
        return cycle(*params)
    if family == "cubic":
        return random_cubic(params[0], seed=0)
    return kneser(*params)


def solve(family: str, params: tuple[int, ...]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from fdomlab.fdom import fdom_colgen
    g = build(family, params)
    t0 = time.perf_counter()
    value = fdom_colgen(g).value
    print(json.dumps({"n": g.n, "value": str(value),
                      "seconds": time.perf_counter() - t0}))


def sweep() -> None:
    for family, sizes in FAMILIES.items():
        for params in sizes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--solve",
                   family, *map(str, params)]
            label = f"{family}{params}"
            try:
                out = subprocess.run(cmd, capture_output=True, text=True,
                                     timeout=LIMIT_S, check=True).stdout
            except subprocess.TimeoutExpired:
                print(f"{label:16s} no result within {LIMIT_S} s: family stops here",
                      flush=True)
                break
            except subprocess.CalledProcessError as exc:
                print(f"{label:16s} failed: {exc.stderr.strip().splitlines()[-1]}",
                      flush=True)
                break
            res = json.loads(out.strip().splitlines()[-1])
            print(f"{label:16s} n={res['n']:3d} fdom={res['value']:>8s} "
                  f"{res['seconds']:8.2f} s", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--solve", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.solve:
        solve(args.solve[0], tuple(int(x) for x in args.solve[1:]))
    else:
        sweep()
    return 0


if __name__ == "__main__":
    sys.exit(main())
