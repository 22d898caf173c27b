#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its metrics.

    python3 perfbench/run.py --workload inject --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe with dune in the checkout this file sits in,
then runs the workload in one process. With --trace 0 it also measures
set-up time in SETUP_RUNS further fresh processes and reports the median of
all of them, because one set-up takes only milliseconds. The last line of
standard output is the JSON result; its metric names and units are checked
against BENCHMARK.json. Exits non-zero, without a result, when the build or
a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SETUP_RUNS = 9
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 4


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(args, timeout):
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (" ".join(args), e))
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not r.stdout.strip():
        fail("%s exited with %d" % (" ".join(args), r.returncode))
    return r.stdout.splitlines()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                               cwd=ROOT, stdout=sys.stderr, timeout=880)
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        fail(str(e))
    if build.returncode != 0:
        fail("build failed")

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_RUNS):
            fields = run(common + ["--setup-only"], SETUP_TIMEOUT_S)[-1].split()
            setups.append(float(fields[1]))
    out = run(common + ["--seconds", str(a.seconds), "--trace", str(a.trace)], RUN_TIMEOUT_S)
    try:
        result = json.loads(out[-1])
    except ValueError:
        fail("no JSON result: " + out[-1])

    metrics = result["metrics"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(metrics))
    if setups:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        out.insert(-1, "setup_s samples: " + " ".join("%.6f" % s for s in setups))
    for line in out[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
