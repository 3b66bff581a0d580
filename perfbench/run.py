#!/usr/bin/env python3
"""Builds the hetmem library and the perfbench binary, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ (configured
on first use, incremental afterwards); traced runs write their spans and
per-layer summary to .bench_build/trace/<workload>.{json,spans.tsv}, the
input of perfbench/compare.py.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. Untraced runs report the end_to_end metrics of
BENCHMARK.json, traced runs its per_layer metrics; a run whose metric names
differ from BENCHMARK.json, whose build fails, or whose output checks fail
exits non-zero without printing that line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_JOBS = "4"


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The perfbench binary checks workload names: BENCHMARK.json lists the
    # gated ones, and graph500_bfs runs the same way without being gated.
    expected = expected_metrics(args.trace == 1)
    if not build():
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", os.path.join(BUILD, "trace")]
    result = subprocess.run(command, stdout=subprocess.PIPE, check=False,
                            text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log("perfbench exited with %d" % result.returncode)
        return result.returncode or 1
    report = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
