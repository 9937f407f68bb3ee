#!/usr/bin/env python3
"""Self-test for the benchmark.

    python3 perfbench/selftest.py

Builds r2d_perfbench like run.py does, then checks, in about a minute:
  1. every workload, traced and untraced, prints each metric BENCHMARK.json
     names with its unit (human lines and result line alike), plus
     failed_op_share, reads correct with no failed operation, and the
     traced run separates tight-k's fast-hit ratio from wide-k's;
  2. the correctness checks fire on a stack that drops one push in N: the
     run exits non-zero, names the violation, and prints no result line;
  3. a malformed command line exits non-zero without a result line.
Exits 0 when every check holds; otherwise prints each failure and exits 1.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build, environment, arguments)

SECONDS = "1"
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def invoke(binary, args):
    return subprocess.run([binary] + args, env=run.run_env(),
                          capture_output=True, text=True, timeout=120)


def result_line(stdout):
    lines = stdout.rstrip("\n").splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def printed(stdout, name, unit):
    """A human line '  <name>  <number>  <unit>'."""
    pattern = r"^\s+%s\s+[-+0-9.eE]+\s+%s$" % (re.escape(name), re.escape(unit))
    return re.search(pattern, stdout, re.MULTILINE) is not None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    fast_hit = {}

    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = "%s --trace %d" % (workload, trace)
            done = invoke(binary, run.bench_args(workload, 1, SECONDS, trace))
            check(done.returncode == 0, tag + ": exit 0")
            result = result_line(done.stdout)
            check(result is not None and set(result) ==
                  {"correct", "attempted", "failed", "metrics"},
                  tag + ": result line has the four keys")
            if result is None:
                continue
            check(result["correct"] is True and result["attempted"] > 0 and
                  result["failed"] == 0,
                  tag + ": correct, attempted > 0, failed == 0")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in declared},
                  tag + ": metrics are exactly those BENCHMARK.json declares")
            for m in declared:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      "%s: %s reported in %s" % (tag, m["name"], m["unit"]))
                check(printed(done.stdout, m["name"], m["unit"]),
                      "%s: %s printed with its unit" % (tag, m["name"]))
            check(printed(done.stdout, "failed_op_share", "share"),
                  tag + ": failed_op_share printed with its unit")
            if trace == 1:
                fast_hit[workload] = metrics.get(
                    "core.window.fast_hit_ratio", {}).get("value", 0.0)

    if {"wide-k", "tight-k"} <= set(fast_hit):
        check(fast_hit["tight-k"] < 0.7 < fast_hit["wide-k"],
              "fast_hit_ratio separates tight-k (%.3f) from wide-k (%.3f)" %
              (fast_hit["tight-k"], fast_hit["wide-k"]))

    for workload in ("wide-k", "tight-k"):
        tag = workload + " with one push in 1000 dropped"
        done = invoke(binary, run.bench_args(workload, 1, SECONDS, 0) +
                      ["--break-push-every", "1000"])
        check(done.returncode != 0, tag + ": exit non-zero")
        check("conservation" in done.stderr and "multiset" in done.stderr,
              tag + ": conservation and label checks named on stderr")
        check('"correct"' not in done.stdout, tag + ": no result line")

    done = invoke(binary, ["--workload", "no-such-workload", "--seed", "1",
                           "--seconds", SECONDS, "--trace", "0"])
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "unknown workload: exit non-zero, no result line")

    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
