#!/usr/bin/env python3
"""Steadiness mode: run one workload of the benchmark on seeds 1..RUNS,
each for BENCHMARK.json's run_seconds, and print, for every end-to-end
metric, its median, quartiles and spread (interquartile distance over
median) against the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workload request-warm --runs 10

Run from the repository root. Quartiles are those of
statistics.quantiles(values, n=4). Exit status 1 when a spread exceeds
its bound, or when a run was not correct or had failed operations.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = []
    for seed in range(1, args.runs + 1):
        r = run(bench["command"], args.workload, seed, bench["run_seconds"])
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    if not ok:
        print("a run was not correct or had failed operations")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        flag = ""
        if spread > m["bound"]:
            flag, ok = "  OVER BOUND", False
        elif spread > m["bound"] / 3:
            flag = "  above bound/3"
        print(f"{m['name']:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
