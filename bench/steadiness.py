"""Runs each workload several times with different seeds and prints the
median, the quartiles and the spread of every end-to-end metric.

Usage (from the root of a checkout):

    python3 bench/steadiness.py --runs 10 --first-seed 1

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles from ``statistics.quantiles(values, n=4)``; the bounds in
BENCHMARK.json are set from these spreads.  Every workload in
BENCHMARK.json runs for its ``run_seconds``, one run at a time.  Raw
(uncalibrated) wall-clock time and the calibration sample are printed
next to the calibrated figures for reference.  The figures are also
written to bench/out/steadiness-seed<first-seed>.json, so that passes
with different seeds do not overwrite each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("quartiles need at least four runs")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, cwd=ROOT, check=True)
            lines = proc.stdout.decode().strip().splitlines()
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            rows.append((result, detail))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                f"raw_wall_s={detail['raw_wall_s']:.4g} rounds={detail['rounds']}",
                f"failed={result['failed']}/{result['attempted']} correct={result['correct']}",
                flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in rows}
        print(f"\n{workload}: failed share {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r, _ in rows)}")
        print(f"  {'metric':<14}{'q1':>11}{'median':>11}{'q3':>11}{'spread':>9}{'bound':>8}")
        table = {}
        for name in list(rows[0][0]["metrics"]) + ["raw_wall_s", "calibration_s"]:
            if name in rows[0][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r, _ in rows]
            else:
                values = [d[name] for _, d in rows]
            q1, med, q3, sp = spread(values)
            table[name] = {"q1": q1, "median": med, "q3": q3, "spread": sp, "values": values}
            bound = bounds.get(name)
            print(f"  {name:<14}{q1:>11.5g}{med:>11.5g}{q3:>11.5g}{sp:>9.3f}"
                  f"{'' if bound is None else f'{bound:>8}'}")
        print(flush=True)
        summary[workload] = table
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", f"steadiness-seed{args.first_seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
