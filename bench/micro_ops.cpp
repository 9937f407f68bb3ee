// E3: per-operation microbenchmarks (google-benchmark) for every stack.
// Single-threaded push/pop cost isolates the constant factors (allocation,
// packed-head CAS, search) that the figure benches aggregate; the threaded
// variants show per-op degradation under contention.
//
// When R2D_BENCH_JSON is set, the per-structure items/s rates are also
// written as machine-readable JSON (see bench/common.hpp) — the perf
// trajectory scripts/ci.sh records as BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/two_d_stack.hpp"
#include "obs/metrics.hpp"
#include "stacks/distributed_stack.hpp"
#include "stacks/elimination_stack.hpp"
#include "stacks/ksegment_stack.hpp"
#include "stacks/treiber_stack.hpp"

namespace {

using Label = std::uint64_t;

/// Console output as usual, plus a capture of every per-iteration run's
/// items/s for the BENCH_*.json trajectory (see emit_json / scripts/ci.sh).
/// Each report batch also carries the obs counter delta accumulated since
/// the previous batch, so every JSON point lands with the engine metrics
/// of (approximately) its own run — the process-wide counters cannot be
/// split finer than a reporting batch.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    const r2d::obs::Snapshot now = r2d::obs::metrics().snapshot();
    const std::string metrics = r2d::bench::metrics_json(now - last_);
    last_ = now;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it == run.counters.end()) continue;
      points_.push_back({run.benchmark_name(),
                         static_cast<unsigned>(run.threads),
                         it->second / 1e6, metrics});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<r2d::bench::JsonPoint>& points() const { return points_; }

 private:
  std::vector<r2d::bench::JsonPoint> points_;
  r2d::obs::Snapshot last_;
};

template <typename S>
std::unique_ptr<S> make_bench_stack(unsigned threads);

template <>
std::unique_ptr<r2d::stacks::TreiberStack<Label>> make_bench_stack(unsigned) {
  return std::make_unique<r2d::stacks::TreiberStack<Label>>();
}
template <>
std::unique_ptr<r2d::stacks::EliminationStack<Label>> make_bench_stack(
    unsigned threads) {
  r2d::stacks::EliminationParams p;
  p.collision_slots = std::max(1u, threads / 2);
  return std::make_unique<r2d::stacks::EliminationStack<Label>>(p);
}
template <>
std::unique_ptr<r2d::stacks::KSegmentStack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::KSegmentStack<Label>>(
      std::max(8u, 4 * threads));
}
template <>
std::unique_ptr<r2d::stacks::RandomStack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::RandomStack<Label>>(4 * threads);
}
template <>
std::unique_ptr<r2d::stacks::RandomC2Stack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::RandomC2Stack<Label>>(4 * threads);
}
template <>
std::unique_ptr<r2d::stacks::KRobinStack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::KRobinStack<Label>>(4 * threads);
}

// Allocation-policy A/B pairs (reclaim/alloc.hpp): identical shapes on the
// heap and the PoolAlloc substrate, so the single/contended deltas between
// the rows price the allocation policy alone. The stacks/ baselines default
// to HeapAlloc and TwoDStack to PoolAlloc, so both 2D arms are spelled out.
using TwoDHeapStack = r2d::TwoDStack<Label, r2d::reclaim::EpochReclaimer,
                                     r2d::reclaim::HeapAlloc>;
using TreiberPoolStack =
    r2d::stacks::TreiberStack<Label, r2d::reclaim::EpochReclaimer,
                              r2d::reclaim::PoolAlloc>;
using TwoDPoolStack = r2d::TwoDStack<Label, r2d::reclaim::EpochReclaimer,
                                     r2d::reclaim::PoolAlloc>;

template <>
std::unique_ptr<TwoDHeapStack> make_bench_stack(unsigned threads) {
  r2d::core::TwoDParams p;
  p.width = 4 * std::max(1u, threads);
  p.depth = 8;
  p.shift = 4;
  return std::make_unique<TwoDHeapStack>(p);
}

template <>
std::unique_ptr<TreiberPoolStack> make_bench_stack(unsigned) {
  return std::make_unique<TreiberPoolStack>();
}
template <>
std::unique_ptr<TwoDPoolStack> make_bench_stack(unsigned threads) {
  r2d::core::TwoDParams p;
  p.width = 4 * std::max(1u, threads);
  p.depth = 8;
  p.shift = 4;
  return std::make_unique<TwoDPoolStack>(p);
}

/// Alternating push/pop on one thread: the uncontended round-trip cost.
template <typename S>
void BM_PushPopSingle(benchmark::State& state) {
  auto stack = make_bench_stack<S>(1);
  for (int i = 0; i < 64; ++i) stack->push(i);
  Label next = 1000;
  for (auto _ : state) {
    stack->push(next++);
    benchmark::DoNotOptimize(stack->pop());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

/// Same mix under benchmark-managed thread contention. The stack is shared
/// across threads (set up once by thread 0).
template <typename S>
void BM_PushPopContended(benchmark::State& state) {
  static std::unique_ptr<S> shared;
  if (state.thread_index() == 0) {
    shared = make_bench_stack<S>(static_cast<unsigned>(state.threads()));
    for (int i = 0; i < 4096; ++i) shared->push(i);
  }
  Label next = (static_cast<Label>(state.thread_index()) + 1) << 40;
  for (auto _ : state) {
    shared->push(next++);
    benchmark::DoNotOptimize(shared->pop());
  }
  state.SetItemsProcessed(state.iterations() * 2);
  if (state.thread_index() == 0) {
    state.SetLabel("threads=" + std::to_string(state.threads()));
  }
}

}  // namespace

#define R2D_MICRO(Type)                                                \
  BENCHMARK_TEMPLATE(BM_PushPopSingle, Type)->Name("single/" #Type);   \
  BENCHMARK_TEMPLATE(BM_PushPopContended, Type)                        \
      ->Name("contended/" #Type)                                       \
      ->Threads(4)                                                     \
      ->Threads(8)                                                     \
      ->UseRealTime();

using Treiber = r2d::stacks::TreiberStack<Label>;
using Elim = r2d::stacks::EliminationStack<Label>;
using KSeg = r2d::stacks::KSegmentStack<Label>;
using Rand = r2d::stacks::RandomStack<Label>;
using RandC2 = r2d::stacks::RandomC2Stack<Label>;
using KRobin = r2d::stacks::KRobinStack<Label>;
using TwoD = TwoDHeapStack;
using TreiberPool = TreiberPoolStack;
using TwoDPool = TwoDPoolStack;

R2D_MICRO(Treiber)
R2D_MICRO(Elim)
R2D_MICRO(KSeg)
R2D_MICRO(Rand)
R2D_MICRO(RandC2)
R2D_MICRO(KRobin)
R2D_MICRO(TwoD)
R2D_MICRO(TreiberPool)
R2D_MICRO(TwoDPool)

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  r2d::bench::emit_json("micro_ops", reporter.points());
  return 0;
}
