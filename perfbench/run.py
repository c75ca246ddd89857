#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload servers --seed 1 --seconds 38 --trace 0

Run from the root of a checkout. Builds the driver (perfbench/CMakeLists.txt,
which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, and
prints its output. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1. The traced
run also writes its spans as trace_event JSON next to the build
(trace-<workload>-<seed>.json), which opens in Perfetto.

Exits non-zero without a result when the sources are missing, the build
fails, or the driver fails or runs too long.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("servers", "proven", "sparse_heap", "serve")
BENCH_DIR = "perfbench"
# A run must end within 180 s; the driver's own loop takes --seconds plus
# set-up and one last round.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    return os.path.join(target, "perfbench")


def build(root):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("repository sources (src/CMakeLists.txt) not found; "
             "run from the root of a checkout")
    out = build_dir(root)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", out, "--target", "svd-perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {r.returncode}")
    exe = os.path.join(out, "svd-perfbench")
    if not os.path.isfile(exe):
        fail("driver binary missing after the build")
    return exe


def run(root, exe, workload, seed, seconds, trace, reference=None):
    """Runs the driver; returns (stdout lines, parsed result)."""
    if reference is None:
        reference = os.path.join(root, BENCH_DIR, "reference",
                                 f"{workload}.tsv")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", reference]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(root), f"trace-{workload}-{seed}.json")]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"driver exited {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    exe = build(root)
    lines, result = run(root, exe, args.workload, args.seed, args.seconds,
                        args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
