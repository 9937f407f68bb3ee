#!/usr/bin/env python3
"""Paired A/B overhead guard over two google-benchmark micro_ops binaries.

Usage:
  scripts/ab_guard.py LABEL BASELINE CANDIDATE [NAME=VALUE ...]

Runs BASELINE and CANDIDATE interleaved (candidate first) five times
each on the single-threaded 'single/' fast-path suite, takes the best
real time per benchmark per side, and fails when the geomean of the
candidate/baseline ratios exceeds 5%. NAME=VALUE pairs are added to the
candidate's environment only (e.g. R2D_FAULT=off R2D_SCHED=off).

Why best-of-N and a geomean: single-benchmark ratios on shared hosts
swing several percent between identical binaries, so a per-benchmark
assertion would flake on noise; the suite geomean is the stable
statistic the budget bounds. Interleaving makes thermal and steal drift
hit both sides equally.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

RUNS = 5
BUDGET = 0.05
MIN_TIME = "0.05"  # seconds; this google-benchmark takes a bare double


def run_once(binary, env, out_path):
    # --benchmark_out, not --benchmark_format: the display side is pinned
    # to the capturing console reporter, but the file reporter still
    # honors the out-format flags.
    subprocess.run(
        [binary, "--benchmark_filter=single/",
         "--benchmark_min_time=" + MIN_TIME,
         "--benchmark_out=%s" % out_path, "--benchmark_out_format=json"],
        env=env, stdout=subprocess.DEVNULL, check=True)
    with open(out_path) as f:
        return json.load(f)["benchmarks"]


def keep_best(best, rows):
    for b in rows:
        t = b["real_time"]
        if b["name"] not in best or t < best[b["name"]]:
            best[b["name"]] = t


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("env", nargs="*", metavar="NAME=VALUE")
    args = ap.parse_args()

    cand_env = dict(os.environ)
    for kv in args.env:
        name, sep, value = kv.partition("=")
        if not sep:
            ap.error("expected NAME=VALUE, got %r" % kv)
        cand_env[name] = value

    print("=== overhead guard: %s ===" % args.label, flush=True)
    base, cand = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        for _ in range(RUNS):
            keep_best(cand, run_once(args.candidate, cand_env, out))
            keep_best(base, run_once(args.baseline, os.environ, out))

    logsum, n = 0.0, 0
    for name in sorted(base):
        if name not in cand:
            continue
        ratio = cand[name] / base[name]
        logsum += math.log(ratio)
        n += 1
        print("  %-40s base=%8.1fns cand=%8.1fns (%+.1f%%)"
              % (name, base[name], cand[name], 100.0 * (ratio - 1.0)))
    if n == 0:
        sys.exit("%s: no common benchmarks" % args.label)
    geomean = math.exp(logsum / n) - 1.0
    if geomean > BUDGET:
        sys.exit("%s: overhead %.1f%% (geomean) exceeds the %.0f%% budget"
                 % (args.label, 100.0 * geomean, 100.0 * BUDGET))
    print("%s: geomean %+.1f%% over %d benchmarks (budget %.0f%%)"
          % (args.label, 100.0 * geomean, n, 100.0 * BUDGET))


if __name__ == "__main__":
    main()
