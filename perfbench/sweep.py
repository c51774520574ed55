"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py                        # every workload, seeds 1..10
    python3 perfbench/sweep.py --workloads min-aspect --seeds 5 --first-seed 11

Each (workload, seed) is one ``run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, run one after another.  For
every metric the summary gives the median over seeds, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.  With
``--trace 0`` each spread is compared with the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_one(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            brief = " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items() if name in bounds
            )
            print(f"{workload} seed={seed} correct={result['correct']} {brief}", flush=True)
        print(f"\n{workload}: {len(runs)} seeds")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} unit")
        for name, first in runs[0]["metrics"].items():
            median, q1, q3, spread = summarise([r["metrics"][name]["value"] for r in runs])
            note = ""
            if name in bounds:
                note = f"  bound {bounds[name]}"
                worst = max(worst, spread / bounds[name])
            print(
                f"  {name:48s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {first['unit']}{note}"
            )
        print(flush=True)
    if args.trace == 0:
        print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
