#!/usr/bin/env python3
"""Build and run the r2d benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload wide-k --seed 1 --seconds 20 --trace 0

Builds perfbench/ with CMake (Release) against the header-only library in
the same checkout, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs r2d_perfbench. Build output goes to
stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. The exit status is non-zero,
and no result line is printed, when the library is missing, the build
fails, the run times out, or the run finds a correctness violation.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide-k", "tight-k", "burst")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build_step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise SystemExit("perfbench: build step failed: " + " ".join(cmd))


def build():
    """Configure once, build incrementally; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "core", "two_d_stack.hpp")):
        raise SystemExit("perfbench: the r2d library (core/two_d_stack.hpp) "
                         "is not in this checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        build_step(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"])
    build_step(["cmake", "--build", out, "-j", "4"])
    return os.path.join(out, "r2d_perfbench")


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_env():
    """The caller's environment without R2D_* knobs, which would silently
    reshape the library under test; plus the provenance sha."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("R2D_")}
    env["R2D_GIT_SHA"] = git_sha()
    return env


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    cmd = [binary] + bench_args(args.workload, args.seed,
                                f"{args.seconds:g}", args.trace)
    try:
        done = subprocess.run(cmd, env=run_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    try:
        result = json.loads(done.stdout.rstrip("\n").splitlines()[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        raise SystemExit("perfbench: run printed no result line")


if __name__ == "__main__":
    main()
