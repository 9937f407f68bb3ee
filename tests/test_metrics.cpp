// r2d::obs tier-1 tests (DESIGN.md §14): the counters must be *accurate*
// (conservation invariants and exact op accounting at quiescence), *churn-
// proof* (a thread's counts survive its exit via the fold-on-release path
// and its slot is reused, not leaked), *stable* (snapshots taken while
// counting runs are monotone per counter as long as no thread exits), and
// *honest when off* (the R2D_OBS=0 stub has the same API, no state, and
// a zero snapshot). The shift-trace ring must wrap keeping the
// newest events, and the latency histogram must tally top-bucket
// saturation instead of silently clamping.
//
// Counting expectations are guarded by obs::kCompiled so this same binary
// is green in an R2D_OBS=0 build, where the API must still compile and
// every snapshot reads zero.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_stack.hpp"
#include "harness/latency.hpp"
#include "obs/metrics.hpp"
#include "check.hpp"

namespace {

namespace obs = r2d::obs;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// The R2D_OBS=0 stub, checked in the build that uses it: full API
/// parity, no state, zero snapshot, no trace — run last, after the
/// hammers above drove real containers through the library singleton.
void disabled_parity() {
  if constexpr (!obs::kCompiled) {
    obs::Metrics& off = obs::metrics();
    obs::count<obs::Counter::kProbes>(3);
    off.add(obs::Counter::kProbes, 3);
    obs::record_shift(1, 2, true, obs::ShiftCause::kStackPush);
    const obs::Snapshot s = off.snapshot();
    for (unsigned i = 0; i < obs::kCounterCount; ++i) CHECK_EQ(s.c[i], 0u);
    CHECK(sizeof(obs::Metrics) <= sizeof(void*));
    CHECK_EQ(off.slot_hwm(), 0u);
    CHECK_EQ(off.trace_capacity(), 0u);
    std::size_t events = 0;
    off.visit_trace([&](const obs::ShiftEvent&) { ++events; });
    CHECK_EQ(events, 0u);
  }
}

/// Saturating samples land in the top bucket AND the saturated tally;
/// anything below the threshold does not.
void histogram_saturation() {
  using r2d::harness::Histogram;
  Histogram h;
  h.add(100);
  h.add(Histogram::kSaturateNs - 1);
  CHECK_EQ(h.saturated(), 0u);
  h.add(Histogram::kSaturateNs);
  h.add(Histogram::kSaturateNs * 2);
  CHECK_EQ(h.saturated(), 2u);
  CHECK_EQ(h.count(), 4u);
  Histogram other;
  other.add(Histogram::kSaturateNs + 5);
  h.merge(other);
  CHECK_EQ(h.saturated(), 3u);
  CHECK(h.quantile(0.999) > 0.0);

  r2d::harness::LatencyResult r;
  r.histogram.add(Histogram::kSaturateNs);
  CHECK_EQ(r.saturated(), 1u);
}

/// A thread's counts survive its exit: the exit walk folds the slot into
/// the global array, and sequential churn reuses the freed slot.
void fold_on_thread_exit() {
  obs::Metrics m(0);  // local instance, tracing off
  std::thread([&m] { m.add(obs::Counter::kProbes, 41); }).join();
  if constexpr (obs::kCompiled) {
    CHECK_EQ(m.snapshot()[obs::Counter::kProbes], 41u);
    for (int i = 0; i < 32; ++i) {
      std::thread([&m] { m.add(obs::Counter::kProbes, 1); }).join();
    }
    CHECK_EQ(m.snapshot()[obs::Counter::kProbes], 41u + 32u);
    // Leases, not bindings: 33 sequential threads, bounded slot use.
    CHECK(m.slot_hwm() <= 2);
  } else {
    CHECK_EQ(m.snapshot()[obs::Counter::kProbes], 0u);
  }
}

/// The trace ring wraps keeping the newest trace_capacity() events,
/// oldest-first within the ring.
void ring_wrap() {
  obs::Metrics m(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    m.record_shift(i, i + 1, (i & 1) != 0, obs::ShiftCause::kBagPut);
  }
  std::vector<obs::ShiftEvent> events;
  m.visit_trace([&](const obs::ShiftEvent& e) { events.push_back(e); });
  if constexpr (obs::kCompiled) {
    CHECK_EQ(m.trace_capacity(), 8u);
    CHECK_EQ(events.size(), 8u);
    for (std::size_t k = 0; k < events.size(); ++k) {
      CHECK_EQ(events[k].old_max, 12 + k);
      CHECK_EQ(events[k].new_max, 13 + k);
      CHECK(events[k].cause == obs::ShiftCause::kBagPut);
      CHECK_EQ(events[k].won, (12 + k) % 2 != 0);
    }
    std::ostringstream os;
    m.dump_trace(os);
    CHECK(os.str().find("bag-put") != std::string::npos);
  } else {
    CHECK_EQ(events.size(), 0u);
  }
}

/// 4 threads hammer one stack; at quiescence the delta snapshot must
/// satisfy every conservation invariant and account for each operation
/// exactly once (ops == fast hits + sweep successes + sweep stops).
void conservation_hammer() {
  const obs::Snapshot before = obs::metrics().snapshot();
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kIters = kSanitized ? 2000 : 20000;
  r2d::core::TwoDParams p;
  p.width = 8;
  p.depth = 16;
  p.shift = 8;
  {
    r2d::TwoDStack<std::uint64_t> stack(p);
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&stack, &go] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint64_t i = 0; i < kIters; ++i) {
          stack.push(i);
          stack.pop();
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
  }
  const obs::Snapshot delta = obs::metrics().snapshot() - before;
  if constexpr (obs::kCompiled) {
    CHECK(delta.conserved());
    CHECK_EQ(delta.ops(), std::uint64_t{kThreads} * kIters * 2);
    CHECK(delta[obs::Counter::kEpochPins] > 0);
  } else {
    CHECK_EQ(delta.ops(), 0u);
  }
}

/// Snapshots taken while counting runs are monotone per counter as long
/// as no thread exits between them (exits fold, which can transiently
/// lower a raw-slot read; nothing exits here until sampling stops).
void snapshot_monotone_while_running() {
  r2d::core::TwoDParams p;
  p.width = 4;
  p.depth = 8;
  p.shift = 4;
  r2d::TwoDStack<std::uint64_t> stack(p);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([&stack, &stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        stack.push(i++);
        stack.pop();
      }
    });
  }
  obs::Snapshot prev = obs::metrics().snapshot();
  for (int round = 0; round < 50; ++round) {
    const obs::Snapshot cur = obs::metrics().snapshot();
    for (unsigned i = 0; i < obs::kCounterCount; ++i) {
      CHECK(cur.c[i] >= prev.c[i]);
    }
    prev = cur;
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
}

/// The JSON exporter carries the derived rates and the raw counter map in
/// both builds (zeros when compiled out).
void json_export() {
  std::ostringstream os;
  obs::append_json(os, obs::metrics().snapshot());
  const std::string j = os.str();
  CHECK(j.find("\"ops\"") != std::string::npos);
  CHECK(j.find("\"hops_per_op\"") != std::string::npos);
  CHECK(j.find("\"cert_fail_rate\"") != std::string::npos);
  CHECK(j.find("\"shift_race_rate\"") != std::string::npos);
  CHECK(j.find("\"counters\"") != std::string::npos);
}

}  // namespace

int main() {
  // Pin the runtime switch before anything caches it: these tests assert
  // counts, so they must run with metrics on regardless of ambient env.
  setenv("R2D_METRICS", "1", 1);
  histogram_saturation();
  fold_on_thread_exit();
  ring_wrap();
  conservation_hammer();
  snapshot_monotone_while_running();
  json_export();
  disabled_parity();
  return TEST_MAIN_RESULT();
}
