#!/usr/bin/env python3
"""Stability sweep for the benchmark defined in BENCHMARK.json.

Runs every workload once per seed and per set, interleaving the sets
(seed 1: set A, set B; seed 2: set A, set B; ...), so slow drifts in the
machine's speed fall on both sets alike. For each end-to-end metric it
prints, per set, the median over the seeds and the spread (third minus
first quartile, as `statistics.quantiles(values, n=4)` gives them, over
the median), and how much worse set B's median is than set A's. A spread
or a drift above the metric's bound is marked.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 10 --sets 2
    python3 perfbench/sweep.py --seeds 5 --sets 1 --workloads churn

Raw results go to perfbench/out/sweep.jsonl (one JSON object per run).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    opts = parser.parse_args()

    os.makedirs("perfbench/out", exist_ok=True)
    sets = "AB"[:opts.sets]
    values = {}  # (set, workload, metric) -> [value per seed]
    with open("perfbench/out/sweep.jsonl", "w") as log:
        for seed in range(1, opts.seeds + 1):
            for workload in opts.workloads:
                for s in sets:
                    metrics = run_once(bench["command"], workload, seed,
                                       opts.seconds)
                    log.write(json.dumps({"set": s, "workload": workload,
                                          "seed": seed,
                                          "metrics": metrics}) + "\n")
                    log.flush()
                    for name, v in metrics.items():
                        values.setdefault((s, workload, name), []).append(v)
                    print(f"seed {seed} {workload} {s}: " + " ".join(
                        f"{k}={v:.6g}" for k, v in metrics.items()),
                        flush=True)

    print()
    header = f"{'workload':<9} {'metric':<13} {'bound':>5}"
    for s in sets:
        header += f" {'median ' + s:>14} {'spread ' + s:>9}"
    if opts.sets == 2:
        header += f" {'B worse':>8}"
    print(header)
    for workload in opts.workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = f"{workload:<9} {name:<13} {bound:>5.2f}"
            medians = []
            for s in sets:
                v = values[(s, workload, name)]
                med, sp = statistics.median(v), spread(v)
                medians.append(med)
                flag = "*" if sp > bound and name != "setup_s" else " "
                row += f" {med:>14.6g} {sp:>8.1%}{flag}"
            if opts.sets == 2:
                a, b = medians
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                flag = "*" if worse > bound else " "
                row += f" {worse:>7.1%}{flag}"
            print(row)
    print("\n* = above the metric's bound")


if __name__ == "__main__":
    main()
