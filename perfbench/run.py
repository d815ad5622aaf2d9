#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build, runs it with a
domain pool sized to the host's processors, relays its output, and checks
that the last line is the result object.  Exits non-zero if the checkout
cannot be built, if a correctness gate fails, or if the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("svc-duplex-c4096", "svc-jammed-c4096", "fame-pairs-n1e5")
BUILD_DIR = ".bench_build"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def declared_metrics(root, section):
    """Metric names BENCHMARK.json declares for a section, if it is there."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            return {m["name"] for m in json.load(f)[section]}
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            return fail(f"{need} not found in {root}: run from a full source checkout")

    build_dir = os.path.join(root, BUILD_DIR)
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir, "--cache", "disabled",
         "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc())]
    if args.trace == 1:
        os.makedirs(os.path.join(build_dir, "perfbench"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            build_dir, "perfbench", f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        return fail("timed out")
    out = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(out[-1])
    except (ValueError, IndexError):
        return fail("no result line")
    if set(result) != RESULT_KEYS:
        return fail("result line has the wrong keys")
    declared = declared_metrics(root, "per_layer" if args.trace == 1 else "end_to_end")
    if declared is not None and set(result["metrics"]) != declared:
        return fail("reported metrics differ from BENCHMARK.json: "
                    + " ".join(sorted(set(result["metrics"]) ^ declared)))
    return run.returncode if run.returncode != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
