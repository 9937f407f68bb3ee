#!/usr/bin/env bash
# Tier-1 verify plus a fast smoke bench and the recorded perf trajectory.
#
# Usage: scripts/ci.sh [build-dir]
#   R2D_SANITIZER=asan|tsan  configure the sanitizer toggle
#
# Sanitizer configs additionally smoke the packed-head micro benches
# (packed pointers and pool recycling are easy to get wrong under
# ASan/TSan); the plain config adds a Release-mode perf smoke that
# records machine-readable bench points as BENCH_micro.json /
# BENCH_fig2.json / BENCH_deque.json / BENCH_service.json (ops/s per
# structure — or, for the service file, CO-safe response quantiles and
# shed rates — host core count, git sha; see bench/common.hpp and
# bench/service_dispatch.cpp for the schemas).
#
# Every config also builds and tests with -DR2D_OBS=0 (the obs subsystem
# compiled out) and with -DR2D_TESTHOOKS=1 (fault injector + deterministic
# scheduler in: fault tortures, plus a seeded schedule sweep that crosses
# 1000 history-checked schedules in the plain config and writes
# BENCH_sched.json) — three trees per sanitizer config. The plain config
# adds three Release trees and ends with two overhead guards
# (scripts/ab_guard.py): metrics-on vs R2D_OBS=0 and default vs dormant
# R2D_TESTHOOKS=1 must each stay within 5%.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SANITIZER="${R2D_SANITIZER:-}"

cmake -B "$BUILD_DIR" -S . -DR2D_SANITIZER="$SANITIZER"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure --timeout 180 -j "$(nproc)"

# Zero-cost-when-off is a build-matrix claim, not just a perf claim: every
# config (plain/asan/tsan) also compiles and tests with the obs subsystem
# stubbed out, so the stub Metrics class keeps full API parity and no
# instrumented call site grows an #ifdef.
echo "=== off-build: R2D_OBS=0 ==="
cmake -B "$BUILD_DIR-noobs" -S . -DR2D_SANITIZER="$SANITIZER" -DR2D_OBS=0
cmake --build "$BUILD_DIR-noobs" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR-noobs" --output-on-failure --timeout 180 -j "$(nproc)"

# Test-hook arm (DESIGN.md §15/§16): every config (plain/asan/tsan) also
# builds with the fault injector and the deterministic scheduler compiled
# in together and runs the full tier-1 suite — test_fault's deterministic
# nth-site OOM sweep and forced-DWCAS hammer, and test_sched's replay,
# linearizability and k-bound checks, only bite here (the default build
# folds every hook point to `false`).
HOOKS_DIR="$BUILD_DIR-testhooks"
echo "=== test-hook build: R2D_TESTHOOKS=1 ==="
cmake -B "$HOOKS_DIR" -S . -DR2D_SANITIZER="$SANITIZER" -DR2D_TESTHOOKS=1
cmake --build "$HOOKS_DIR" -j "$(nproc)"
ctest --test-dir "$HOOKS_DIR" --output-on-failure --timeout 180 -j "$(nproc)"
# Rate torture: the same binary re-run under an env-selected random
# injection policy — 4-thread hammers where ~2% of every resource
# acquisition, steal pass, shift CAS, and DWCAS fails, with multiset
# conservation asserted after the storm.
echo "=== fault rate torture: R2D_FAULT=rate:0.02 ==="
R2D_FAULT=rate:0.02 R2D_FAULT_SEED=7 "$HOOKS_DIR/tests/test_fault"
# Deterministic single-shot replay of the same binary under a global-nth
# policy, exercising the env-configured (not test-configured) path.
echo "=== fault env torture: R2D_FAULT=nth:1000 ==="
R2D_FAULT=nth:1000 R2D_FAULT_SEED=7 "$HOOKS_DIR/tests/test_fault"
# Replay by N: outside a DST run the hop streams seed from R2D_FAULT_SEED
# and a thread ordinal, so two runs of the single-threaded OOM sweeps must
# hit the same number of sites.
echo "=== fault replay: oom sweep sites, two runs ==="
OOM_SITES_A="$("$HOOKS_DIR/tests/test_fault" | grep 'oom sweep')"
OOM_SITES_B="$("$HOOKS_DIR/tests/test_fault" | grep 'oom sweep')"
if [ "$OOM_SITES_A" != "$OOM_SITES_B" ]; then
  echo "oom sweep is not replayable:" >&2
  diff <(echo "$OOM_SITES_A") <(echo "$OOM_SITES_B") >&2 || true
  exit 1
fi
# Seed sweep: seeds x {random, pct:1, pct:3} x 5 history-checked suites
# per seed. The plain config crosses the 1000-schedule bar (70*3*5 =
# 1050 + the fixed replay/budget schedules); sanitizer configs run a
# shorter sweep for wall-clock budget — the schedules themselves are
# identical, only the count differs.
if [ -z "$SANITIZER" ]; then
  SCHED_SWEEP_SEEDS=70
else
  SCHED_SWEEP_SEEDS=12
fi
echo "=== sched seed sweep: $SCHED_SWEEP_SEEDS seeds x 3 policies ==="
R2D_SCHED_SWEEP_SEEDS="$SCHED_SWEEP_SEEDS" "$HOOKS_DIR/tests/test_sched"
# Exploration bench smoke: the sweep table + BENCH_sched.json must report
# zero oracle violations and zero perturbed (budget-blown) runs.
echo "=== smoke: sched_explore -> BENCH_sched.json ==="
rm -f BENCH_sched.json
R2D_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  R2D_SCHED_SWEEP_SEEDS=8 R2D_BENCH_JSON=BENCH_sched.json \
  "$HOOKS_DIR/sched_explore"
test -s BENCH_sched.json
grep -q '"sched_compiled": true' BENCH_sched.json
grep -q '"policy": "pct:3"' BENCH_sched.json
grep -q '"structure": "2D-deque"' BENCH_sched.json
if grep -q '"bugs": [1-9]' BENCH_sched.json; then
  echo "sched_explore recorded oracle violations" >&2
  exit 1
fi
if grep -q '"perturbed": [1-9]' BENCH_sched.json; then
  echo "sched_explore recorded perturbed (non-replayable) runs" >&2
  exit 1
fi

# Smoke one figure bench end to end with tiny settings: catches crashes and
# hangs in the measured loops that unit tests cannot.
echo "=== smoke: fig1_relaxation_sweep ==="
R2D_DURATION_MS=20 R2D_REPEATS=1 R2D_MAX_THREADS=2 \
  "$BUILD_DIR/fig1_relaxation_sweep"
echo "=== smoke: fig2_thread_sweep ==="
R2D_DURATION_MS=20 R2D_REPEATS=1 R2D_MAX_THREADS=2 R2D_PREFILL=4096 \
  "$BUILD_DIR/fig2_thread_sweep"
# The deque exercises the shared window engine plus BOTH column backends
# (R2D_DEQUE_COLS defaults to `both`: locked and dwcas rows run in one
# invocation) under whatever sanitizer this config selected — the DWCAS
# two-word head protocol is hammered under ASan and TSan here. A second
# pass pins R2D_DEQUE_COLS=locked so the fallback arm hosts without a
# 16-byte CAS would take is exercised explicitly everywhere.
echo "=== smoke: ext_deque_scaling (backend A/B) ==="
R2D_DURATION_MS=20 R2D_REPEATS=1 R2D_MAX_THREADS=2 R2D_PREFILL=4096 \
  "$BUILD_DIR/ext_deque_scaling"
echo "=== smoke: ext_deque_scaling (locked fallback arm) ==="
R2D_DEQUE_COLS=locked \
  R2D_DURATION_MS=20 R2D_REPEATS=1 R2D_MAX_THREADS=2 R2D_PREFILL=4096 \
  "$BUILD_DIR/ext_deque_scaling"
# The open-loop service harness end to end (generator pacing, admission
# shedding, drain) at a low rate and short horizon — under ASan/TSan this
# is the only place the bag's take certification and the dispatch drain
# race run against a real arrival schedule. The bench itself exits
# nonzero on any conservation violation.
echo "=== smoke: service_dispatch ==="
R2D_DURATION_MS=50 R2D_OFFERED_LOAD=20000 R2D_MAX_THREADS=2 \
  R2D_SHED_CAP=256 "$BUILD_DIR/service_dispatch"
# Slot-lease churn smoke (DESIGN.md §13): spawn-per-request dispatch so
# thousands of short-lived threads lease and release reclaimer/allocator
# slots on one long-lived container. Under ASan this checks the orphan
# handoff frees cleanly; under TSan it races exit walks against claims
# and steals. The bench exits nonzero if the slot HWM exceeds the
# dispatcher count + O(1).
echo "=== smoke: service_dispatch (churn arm only) ==="
R2D_CHURN_ONLY=1 R2D_DURATION_MS=40 R2D_OFFERED_LOAD=30000 \
  R2D_MAX_THREADS=2 R2D_SHED_CAP=256 "$BUILD_DIR/service_dispatch"
if [ -x "$BUILD_DIR/micro_ops" ]; then
  # Runs under whatever sanitizer this config selected — the assertion
  # that the packed head-word fast paths are clean under ASan/TSan too.
  # The filter also covers the TreiberPool/TwoDPool rows (TwoDPool is
  # the library default; the TwoD row is the explicit HeapAlloc arm), so
  # the pool-policy containers recycle under ASan (poisoned blocks) and
  # TSan.
  echo "=== smoke: micro_ops ==="
  "$BUILD_DIR/micro_ops" --benchmark_filter='single/' \
    --benchmark_min_time=0.02
fi

# Perf trajectory: a Release-mode smoke that records bench points. Skipped
# under sanitizers (their timings are noise, and the plain config is the
# one every CI run executes first).
if [ -z "$SANITIZER" ]; then
  PERF_DIR=build-perf
  GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  # Drop stale trajectory files so the -s assertions below can only pass
  # on output this run actually wrote.
  rm -f BENCH_micro.json BENCH_fig2.json BENCH_deque.json BENCH_service.json
  cmake -B "$PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DR2D_SANITIZER=
  cmake --build "$PERF_DIR" -j "$(nproc)"
  if [ -x "$PERF_DIR/micro_ops" ]; then
    echo "=== perf smoke: micro_ops -> BENCH_micro.json ==="
    R2D_GIT_SHA="$GIT_SHA" R2D_BENCH_JSON=BENCH_micro.json \
      "$PERF_DIR/micro_ops" --benchmark_filter='single/' \
      --benchmark_min_time=0.05
    test -s BENCH_micro.json
    # Every point must carry the merged engine-metrics object (DESIGN.md
    # §14): derived rates plus the raw counter map.
    grep -q '"metrics"' BENCH_micro.json
    grep -q '"hops_per_op"' BENCH_micro.json
  else
    echo "perf smoke: micro_ops not built (no google-benchmark); skipping" \
         "BENCH_micro.json"
  fi
  echo "=== perf smoke: fig2_thread_sweep -> BENCH_fig2.json ==="
  R2D_GIT_SHA="$GIT_SHA" R2D_BENCH_JSON=BENCH_fig2.json \
    R2D_DURATION_MS=100 R2D_REPEATS=1 R2D_MAX_THREADS=2 R2D_PREFILL=4096 \
    "$PERF_DIR/fig2_thread_sweep"
  test -s BENCH_fig2.json
  # Records the locked-vs-dwcas paired A/B (backend x allocator rows plus
  # the front-ratio sweep) into the deque trajectory file.
  echo "=== perf smoke: ext_deque_scaling -> BENCH_deque.json ==="
  R2D_GIT_SHA="$GIT_SHA" R2D_BENCH_JSON=BENCH_deque.json \
    R2D_DURATION_MS=100 R2D_REPEATS=1 R2D_MAX_THREADS=2 R2D_PREFILL=4096 \
    "$PERF_DIR/ext_deque_scaling"
  test -s BENCH_deque.json
  grep -q 'dwcas' BENCH_deque.json
  grep -q 'locked' BENCH_deque.json
  # The open-loop trajectory: container x arrival x offered load with
  # CO-safe quantiles, shed rate, and displacement. At least one row per
  # scheduling core must be present.
  echo "=== perf smoke: service_dispatch -> BENCH_service.json ==="
  R2D_GIT_SHA="$GIT_SHA" R2D_BENCH_JSON=BENCH_service.json \
    R2D_DURATION_MS=100 R2D_MAX_THREADS=2 \
    "$PERF_DIR/service_dispatch"
  test -s BENCH_service.json
  grep -q '"structure": "2D-bag"' BENCH_service.json
  grep -q '"structure": "2D-stack"' BENCH_service.json
  grep -q '"structure": "2D-queue"' BENCH_service.json
  # The churn arm's row must be recorded too: spawn mode with its slot
  # high-water mark and ephemeral thread count (EXPERIMENTS.md E15).
  grep -q '"mode": "spawn"' BENCH_service.json
  grep -q '"slot_hwm"' BENCH_service.json
  # Service rows carry a per-run metrics delta and the histogram's
  # saturation tally alongside the CO-safe quantiles.
  grep -q '"metrics"' BENCH_service.json
  grep -q '"hops_per_op"' BENCH_service.json
  grep -q '"saturated"' BENCH_service.json
  # Overload-degradation counters (PR 9): every row reports its retry,
  # deadline, and degraded-mode accounting even when the knobs are off.
  grep -q '"retries"' BENCH_service.json
  grep -q '"timed_out"' BENCH_service.json
  grep -q '"degraded_entries"' BENCH_service.json
  grep -q '"degraded"' BENCH_service.json

  # Overhead guards (scripts/ab_guard.py: five interleaved runs per side
  # of the single-threaded micro_ops fast paths, best-of-5 per benchmark,
  # suite geomean ≤ 5%). Metrics-on (runtime default) vs an R2D_OBS=0
  # build bounds the enabled obs cost; a dormant R2D_TESTHOOKS=1 build vs
  # the default one measures the "one relaxed load per hook point" claim.
  # The default build's own zero cost is structural: every hook point
  # folds to a constant false (test_fault and test_sched assert the
  # stubs' parity).
  NOOBS_PERF_DIR=build-perf-noobs
  HOOKS_PERF_DIR=build-perf-testhooks
  cmake -B "$NOOBS_PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DR2D_SANITIZER= -DR2D_OBS=0
  cmake --build "$NOOBS_PERF_DIR" -j "$(nproc)"
  cmake -B "$HOOKS_PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DR2D_SANITIZER= -DR2D_TESTHOOKS=1
  cmake --build "$HOOKS_PERF_DIR" -j "$(nproc)"
  if [ -x "$PERF_DIR/micro_ops" ]; then
    python3 scripts/ab_guard.py "metrics-on vs R2D_OBS=0" \
      "$NOOBS_PERF_DIR/micro_ops" "$PERF_DIR/micro_ops" R2D_METRICS=1
    python3 scripts/ab_guard.py "dormant R2D_TESTHOOKS=1 vs default" \
      "$PERF_DIR/micro_ops" "$HOOKS_PERF_DIR/micro_ops" \
      R2D_FAULT=off R2D_SCHED=off
  else
    echo "overhead guards: micro_ops not built (no google-benchmark); skipped"
  fi
fi

echo "ci.sh: all green"
