// Shared bench infrastructure: the algorithm registry mapping the paper's
// algorithm names to monomorphised throughput/quality runners, plus sweep
// and output helpers.
//
// Dispatch is by template instantiation behind a name -> lambda map, so the
// measured loops contain no virtual calls or type erasure.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_stack.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "stacks/distributed_stack.hpp"
#include "stacks/elimination_stack.hpp"
#include "stacks/ksegment_stack.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/membarrier.hpp"
#include "stacks/treiber_stack.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace r2d::bench {

using Label = std::uint64_t;

/// One measured point: throughput (averaged over repeats) + quality.
struct Point {
  double mops = 0.0;
  double mops_stddev = 0.0;
  double mean_error = 0.0;
  double max_error = 0.0;
};

/// How an algorithm is shaped for a given (k, threads) configuration.
/// See DESIGN.md §4 for the k-mapping assumptions.
struct AlgoConfig {
  std::string name;          ///< paper name: 2D-stack, k-segment, ...
  std::uint64_t k = 0;       ///< requested relaxation bound (0 = strict)
  unsigned threads = 1;
};

inline core::TwoDParams two_d_params_for(const AlgoConfig& cfg) {
  core::TwoDParams p = core::TwoDParams::for_k(cfg.k, cfg.threads);
  p.validate();
  return p;
}

/// k-robin width mapping: k ~ (width-1) * 2P (DESIGN.md §4).
inline std::size_t krobin_width_for(std::uint64_t k, unsigned threads) {
  const std::uint64_t per_stack = 2ull * std::max(1u, threads);
  return static_cast<std::size_t>(std::max<std::uint64_t>(1, k / per_stack + 1));
}

/// The paper's high-throughput configuration for Figure 2: every k-bounded
/// algorithm gets the same relaxation budget, chosen so the 2D-stack lands
/// on its empirically optimal shape (width = 4P — the paper's finding — and
/// depth 16 with shift = depth/2): k = (2*8 + 16)*(4P - 1) = 32*(4P - 1).
/// The unbounded designs (random, random-c2) use width = 4P; treiber and
/// elimination are strict.
inline AlgoConfig fig2_config(const std::string& name, unsigned threads) {
  AlgoConfig cfg;
  cfg.name = name;
  cfg.threads = threads;
  cfg.k = 32ull * (4ull * std::max(1u, threads) - 1);
  return cfg;
}

template <typename Stack, typename Make>
Point measure_with(Make&& make_stack, const harness::Workload& w,
                   unsigned repeats) {
  std::vector<double> mops;
  mops.reserve(repeats);
  Point point;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    auto stack = make_stack();
    const auto r = harness::run_throughput(*stack, w);
    mops.push_back(r.mops);
  }
  const auto s = util::summarize(std::move(mops));
  point.mops = s.mean;
  point.mops_stddev = s.stddev;
  {
    auto stack = make_stack();
    const auto q = harness::run_quality(*stack, w);
    point.mean_error = q.mean_error;
    point.max_error = q.max_error;
    if (q.unknown_labels != 0) {
      std::cerr << "WARNING: quality oracle saw " << q.unknown_labels
                << " unknown labels (stack bug?)\n";
    }
  }
  return point;
}

/// Allocation policy of every run_algorithm-built container, baselines
/// included: R2D_ALLOC=pool (default — what the 2D containers ship with,
/// reclaim::PoolAlloc) or heap (new/delete, the other arm of the E10 A/B
/// comparison).
inline bool use_pool_alloc() {
  static const bool pool = util::env_str("R2D_ALLOC", "pool") != "heap";
  return pool;
}

/// run_algorithm monomorphised over the allocation policy.
template <template <typename> class Alloc>
Point run_algorithm_with(const AlgoConfig& cfg, const harness::Workload& w,
                         unsigned repeats) {
  using Epoch = reclaim::EpochReclaimer;
  const unsigned threads = std::max(1u, cfg.threads);
  if (cfg.name == "treiber") {
    using Stack = stacks::TreiberStack<Label, Epoch, Alloc>;
    return measure_with<Stack>([] { return std::make_unique<Stack>(); }, w,
                               repeats);
  }
  if (cfg.name == "elimination") {
    using Stack = stacks::EliminationStack<Label, Epoch, Alloc>;
    return measure_with<Stack>(
        [threads] {
          // Empirically tuned on this host (see EXPERIMENTS.md E3 notes):
          // a wide collision array and patient waiting maximise collisions.
          stacks::EliminationParams p;
          p.collision_slots = std::max<std::size_t>(4, 2 * threads);
          p.spin_budget = 1024;
          p.cas_attempts = 1;
          return std::make_unique<Stack>(p);
        },
        w, repeats);
  }
  if (cfg.name == "k-segment") {
    using Stack = stacks::KSegmentStack<Label, Epoch, Alloc>;
    const std::size_t k = std::max<std::uint64_t>(1, cfg.k);
    return measure_with<Stack>([k] { return std::make_unique<Stack>(k); }, w,
                               repeats);
  }
  if (cfg.name == "random") {
    using Stack = stacks::RandomStack<Label, Epoch, Alloc>;
    const std::size_t width = std::max<std::size_t>(1, 4 * threads);
    return measure_with<Stack>(
        [width] { return std::make_unique<Stack>(width); }, w, repeats);
  }
  if (cfg.name == "random-c2") {
    using Stack = stacks::RandomC2Stack<Label, Epoch, Alloc>;
    const std::size_t width = std::max<std::size_t>(1, 4 * threads);
    return measure_with<Stack>(
        [width] { return std::make_unique<Stack>(width); }, w, repeats);
  }
  if (cfg.name == "k-robin") {
    using Stack = stacks::KRobinStack<Label, Epoch, Alloc>;
    const std::size_t width = krobin_width_for(cfg.k, threads);
    return measure_with<Stack>(
        [width] { return std::make_unique<Stack>(width); }, w, repeats);
  }
  if (cfg.name == "2D-stack") {
    using Stack = TwoDStack<Label, Epoch, Alloc>;
    const auto params = two_d_params_for(cfg);
    return measure_with<Stack>(
        [params] { return std::make_unique<Stack>(params); }, w, repeats);
  }
  std::cerr << "unknown algorithm: " << cfg.name << "\n";
  return {};
}

/// Run the named algorithm under the given workload. Supported names:
/// treiber, elimination, k-segment, random, random-c2, k-robin, 2D-stack.
/// The allocation substrate follows R2D_ALLOC (heap | pool).
inline Point run_algorithm(const AlgoConfig& cfg, const harness::Workload& w,
                           unsigned repeats) {
  if (use_pool_alloc()) {
    return run_algorithm_with<reclaim::PoolAlloc>(cfg, w, repeats);
  }
  return run_algorithm_with<reclaim::HeapAlloc>(cfg, w, repeats);
}

/// Common environment knobs for all benches.
struct BenchEnv {
  std::uint64_t duration_ms;
  unsigned repeats;
  unsigned max_threads;
  std::uint64_t prefill;
  std::string csv_prefix;

  static BenchEnv load() {
    BenchEnv e;
    e.duration_ms = util::env_u64("R2D_DURATION_MS", 300);
    e.repeats = static_cast<unsigned>(util::env_u64("R2D_REPEATS", 3));
    e.max_threads = static_cast<unsigned>(util::env_u64("R2D_MAX_THREADS", 16));
    e.prefill = util::env_u64("R2D_PREFILL", 32768);
    e.csv_prefix = util::env_str("R2D_CSV", "");
    return e;
  }

  harness::Workload workload(unsigned threads) const {
    harness::Workload w;
    w.threads = threads;
    w.duration_ms = duration_ms;
    w.prefill = prefill;
    return w;
  }
};

/// One structure's measured rate, for the machine-readable perf
/// trajectory (BENCH_*.json).
struct JsonPoint {
  std::string structure;
  unsigned threads = 1;
  double mops = 0.0;
  /// Pre-rendered obs snapshot-delta JSON object for this point
  /// (obs::append_json); empty when no metrics were captured.
  std::string metrics;
};

/// Compile-time build shape, for run-to-run comparability: optimization
/// level is what CMake chose, but the A/B-relevant axes (asserts,
/// sanitizer, obs) are all visible as macros.
inline std::string build_flags() {
  std::string flags;
#ifdef NDEBUG
  flags += "release";
#else
  flags += "assert";
#endif
#if R2D_OBS
  flags += ",obs";
#else
  flags += ",noobs";
#endif
#if defined(__SANITIZE_ADDRESS__)
  flags += ",asan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  flags += ",asan";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  flags += ",tsan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  flags += ",tsan";
#endif
#endif
  return flags;
}

inline std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

/// The shared provenance header every BENCH_*.json carries — one writer so
/// the throughput benches and the service bench cannot drift apart. Emits
/// the leading fields of a JSON object (caller opened the brace):
/// bench, git sha (R2D_GIT_SHA, set by scripts/ci.sh), hostname, host
/// core count, compile-time build shape, and the active epoch fence mode.
inline void write_provenance(std::ostream& out, const std::string& bench) {
  out << "  \"bench\": \"" << bench << "\",\n"
      << "  \"git_sha\": \"" << util::env_str("R2D_GIT_SHA", "unknown")
      << "\",\n"
      << "  \"hostname\": \"" << host_name() << "\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"build_flags\": \"" << build_flags() << "\",\n"
      << "  \"membarrier\": "
      << (reclaim::detail::use_membarrier() ? "true" : "false") << ",\n";
}

/// Render an obs snapshot (usually a delta over one measured run) as the
/// JSON object bench rows embed under "metrics".
inline std::string metrics_json(const obs::Snapshot& s) {
  std::ostringstream os;
  obs::append_json(os, s);
  return os.str();
}

/// Write the bench points as JSON to `path`, with enough provenance to
/// compare runs across commits and hosts (write_provenance). Schema:
///   {"bench": ..., "git_sha": ..., "hostname": ..., "host_cores": N,
///    "build_flags": ..., "membarrier": bool,
///    "points": [{"structure": ..., "threads": N, "mops": X,
///                "metrics": {...}}, ...]}
inline bool write_bench_json(const std::string& path, const std::string& bench,
                             const std::vector<JsonPoint>& points) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  write_provenance(out, bench);
  out << "  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    {\"structure\": \""
        << points[i].structure << "\", \"threads\": " << points[i].threads
        << ", \"mops\": " << points[i].mops;
    if (!points[i].metrics.empty()) {
      out << ", \"metrics\": " << points[i].metrics;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

/// Honor the R2D_BENCH_JSON knob: when set, write the points there.
inline void emit_json(const std::string& bench,
                      const std::vector<JsonPoint>& points) {
  const std::string path = util::env_str("R2D_BENCH_JSON", "");
  if (path.empty()) return;
  if (write_bench_json(path, bench, points)) {
    std::cout << "wrote " << path << "\n";
  } else {
    std::cerr << "could not write " << path << "\n";
  }
}

inline void emit(const util::Table& table, const BenchEnv& env,
                 const std::string& tag) {
  table.print();
  if (!env.csv_prefix.empty()) {
    const std::string path = env.csv_prefix + tag + ".csv";
    if (table.write_csv(path)) {
      std::cout << "wrote " << path << "\n";
    } else {
      std::cerr << "could not write " << path << "\n";
    }
  }
  std::cout << "\n";
}

}  // namespace r2d::bench
