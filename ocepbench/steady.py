#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and summarize the spread.

    python3 ocepbench/steady.py [--runs 10] [--workloads a,b] [--trace 0|1]
                                [--seconds S] [--first-seed 1]

Run from the repository root.  Each run is one `ocepbench/run.py` call with
its own seed (first-seed, first-seed + 1, ...).  For every metric the table
gives the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the interquartile spread as a share
of the median -- the figure BENCHMARK.json's end-to-end bounds are checked
against -- beside the bound itself, plus the failed share of attempted
operations.  Every run's JSON line is appended to
.bench_out/steady-runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "steady-runs.jsonl"), "a")
    worst = (0.0, "")
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit code %d" % (workload, seed,
                                                    proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "trace": args.trace, **result}) + "\n")
            log.flush()
            runs.append(result)
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, correct %s, failed share %s" % (
            workload, len(runs), all(r["correct"] for r in runs),
            " ".join("%.9g" % s for s in shares)))
        print("  %-36s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            if bound:
                worst = max(worst, (spread / bound, workload + " " + name))
            print("  %-36s %14.6g %14.6g %14.6g %7.1f%% %6s  %s" % (
                name, median, q1, q3, 100 * spread,
                "" if bound is None else "%.2f" % bound, unit))
    if args.trace == 0:
        print("\nlargest spread / bound: %.2f (%s)" % worst)


if __name__ == "__main__":
    main()
