#!/usr/bin/env python3
"""Build and run the OCEP benchmark.

    python3 ocepbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ocepbench/run.py --selftest

Run from the repository root.  The first run configures and builds
ocepbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs only check that
the build is current.  Build output goes to stderr.

The ocepbench binary prints every metric it computed; this script keeps the
ones BENCHMARK.json declares -- its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1 -- with their declared units, and prints
them as the last stdout line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

Spans of a traced run, store directories and other run output go to
.bench_out/.  Exits non-zero without a result when the repository sources
are missing, the build fails, the run fails, or a declared metric is
missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def fail(message):
    print("ocepbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the ocepbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no OCEP sources at %s/src; run from a repository checkout" % ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "ocepbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ocepbench")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selftest:
        cmd = [binary, "--selftest", "--out-dir", OUT_DIR]
        sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("run failed with exit code %d" % proc.returncode)
    raw = json.loads(lines[-1])

    metrics = {}
    for metric in declared(args.trace):
        name = metric["name"]
        if name not in raw["metrics"]:
            fail("workload %s did not report %s" % (args.workload, name))
        metrics[name] = {"value": raw["metrics"][name]["value"],
                         "unit": metric["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
