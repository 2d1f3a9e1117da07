"""Run every workload several times and report how steady each metric is.

    python3 bench/report.py [--runs 10] [--trace 1]

Each run is a separate ``run.py`` process with its own seed (1, 2, ...) and
the window ``run_seconds`` of ``BENCHMARK.json``.  For each workload of
``BENCHMARK.json`` and each end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median next to the metric's bound, and the failed fraction of
all operations.  With ``--runs 1`` it is the one command that runs every
workload once.  With ``--trace 1`` it runs traced and prints the per-layer
medians instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            ok = ok and result["correct"]

        print(f"\n== {workload}: {len(runs)} runs, {seconds} s each")
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = sum(r["correct"] for r in runs)
        print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} "
              f"operations); correct in {correct} of {len(runs)} runs")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = metric.get("bound")
            within = "" if bound is None else (
                f"  bound {bound:.2f} ({'ok' if spread <= bound else 'OVER'}, "
                f"{spread / bound:.2f} of bound)")
            print(f"  {name:<48} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" {metric['unit']:<8} spread {spread:.4f}{within}  n={len(values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
