#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per (seed, workload), untraced, for the
run_seconds of BENCHMARK.json, and reports
for every end-to-end metric the median of its values, their first and third
quartiles (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median beside the metric's bound. By default seeds are the
outer loop, so slow spells of the machine fall on every workload alike;
`--order workload` runs all seeds of one workload before the next.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 101-110 \
        --out perfbench/evidence/steadiness-1.json

Each run's full record (per-round values, set-up repetitions, reference
loop) is kept in the output file beside the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2]) if len(lines) > 1 else None
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "result": result, "record": record}


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound,
            "within_bound": spread <= bound,
            "within_third": spread <= bound / 3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--order", choices=["seed", "workload"], default="seed",
                        help="outer loop of the runs")
    parser.add_argument("--out", default=None, help="JSON evidence file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    if args.order == "seed":
        plan = [(s, w) for s in seeds for w in workloads]
    else:
        plan = [(s, w) for w in workloads for s in seeds]
    runs = []
    for seed, workload in plan:
        run = run_once(bench["command"], workload, seed, seconds)
        runs.append(run)
        m = run["result"]["metrics"]
        print(f"seed {seed} {workload}: wall {run['wall_s']:.1f} s, "
              f"correct {run['result']['correct']}, "
              + ", ".join(f"{k}={v['value']:.6g}" for k, v in m.items()),
              flush=True)

    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            e["name"]: summarize(
                [r["result"]["metrics"][e["name"]]["value"] for r in mine],
                e["bound"])
            for e in bench["end_to_end"]
        }

    print(f"\n{'workload':<11} {'metric':<24} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  within")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            verdict = ("third" if s["within_third"]
                       else "bound" if s["within_bound"] else "NO")
            print(f"{workload:<11} {name:<24} {s['median']:>12.6g} "
                  f"{s['spread']:>8.4f} {s['bound']:>6}  {verdict}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "seeds": seeds, "order": args.order,
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
