#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads counting,served]
        [--runs 10] [--first-seed 1] [--seconds S] [--save runs.json]
        [--compare earlier.json]

Runs `perfbench/run.py` once per seed and workload (untraced, one run
at a time), then prints, per workload and end-to-end metric, the median,
the quartiles and the interquartile range as a share of the median, next
to the metric's bound from `BENCHMARK.json`. A spread of at least a
third of the bound is flagged. With `--compare`, it also prints how far
each median moved from the saved set, in the metric's worse direction.
Run from the root of a repository checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with status {done.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs were not correct")
            results[workload].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed} done", file=sys.stderr)
            if args.save:
                with open(args.save, "w") as f:
                    json.dump(results, f, indent=1)
    earlier = json.load(open(args.compare)) if args.compare else {}

    print("| workload | metric | median | q1 | q3 | IQR/median | bound | shift |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, runs in results.items():
        for name, m in metrics.items():
            values = [r[name] for r in runs]
            med, q1, q3, iqr = spread(values)
            flag = " !" if iqr >= m["bound"] / 3 else ""
            shift = ""
            if workload in earlier:
                before = statistics.median(r[name] for r in earlier[workload])
                worse = (med - before) if m["better"] == "lower" else (before - med)
                shift = f"{worse / before:+.1%}" if before else "n/a"
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{iqr:.1%}{flag} | {m['bound']} | {shift} |")


if __name__ == "__main__":
    main()
