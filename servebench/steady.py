#!/usr/bin/env python3
"""Steadiness check for the servebench benchmark.

Runs each workload a given number of times, each run with its own seed
(`--seed`, `--seed + 1`, ...), rotating the order of the workloads from
one run to the next so host drift spreads over all of them. For every
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median, from
`statistics.quantiles(values, n=4)`), and compares the spread with the
metric's bound in BENCHMARK.json: `ok` below a third of the bound,
`wide` within the bound, `FAIL` beyond it. It also checks that every
run of a workload fails the same share of its operations.

Run from the repository root:

    python3 servebench/steady.py --runs 10 --seed 1
    python3 servebench/steady.py --workloads ch-rush --runs 5 --seed 1

Every run is BENCHMARK.json's command with its `run_seconds` and
`--trace 0`. Exits 1 if a spread exceeds its bound or a failure share
differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: answers incorrect")
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    command = bench["command"]
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload {w}")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(args.runs):
        k = i % len(workloads)
        order = workloads[k:] + workloads[:k]
        for w in order:
            result, wall = run_once(command, w, args.seed + i, bench["run_seconds"])
            walls[w].append(wall)
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            figures = " ".join(f"{name}={m['value']:.4g}"
                               for name, m in result["metrics"].items())
            print(f"run {i + 1}/{args.runs} {w}: {wall:.1f}s wall, "
                  f"attempted {result['attempted']} failed {result['failed']}: {figures}",
                  flush=True)

    bad = False
    for w in workloads:
        print(f"\n{w}  (wall per run: median {statistics.median(walls[w]):.1f}s, "
              f"max {max(walls[w]):.1f}s; failed shares {sorted(shares[w])})")
        if len(shares[w]) > 1:
            print("  FAIL: the failed share differs between runs")
            bad = True
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                if spread <= bound / 3:
                    verdict = "ok"
                elif spread <= bound:
                    verdict = "wide"
                else:
                    verdict = "FAIL"
                    bad = True
            print(f"  {name:<24}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}"
                  f"{'' if bound is None else f'{bound:>8.2f}'}  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
