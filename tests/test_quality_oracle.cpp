// Quality-oracle sanity: hand-built logs replay to known rank errors, and
// a strict stack measured end-to-end reports zero error.
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_stack.hpp"
#include "harness/quality.hpp"
#include "harness/runner.hpp"
#include "stacks/treiber_stack.hpp"
#include "check.hpp"

using r2d::quality::Event;
using r2d::quality::Order;
using r2d::quality::replay;

int main() {
  {
    // Strict LIFO history: push a, b, c; pop c, b, a — zero error.
    std::vector<Event> log = {{0, 10, true}, {1, 20, true}, {2, 30, true},
                              {3, 30, false}, {4, 20, false}, {5, 10, false}};
    const auto r = replay(log, Order::kLifo);
    CHECK_EQ(r.errors.count(), std::uint64_t{3});
    CHECK_EQ(r.errors.mean(), 0.0);
    CHECK_EQ(r.errors.max(), 0.0);
    CHECK_EQ(r.unknown_labels, std::uint64_t{0});
  }
  {
    // Worst-case LIFO history: push a, b, c; pop a (2 newer live), b (1),
    // c (0) — errors 2, 1, 0.
    std::vector<Event> log = {{0, 10, true}, {1, 20, true}, {2, 30, true},
                              {3, 10, false}, {4, 20, false}, {5, 30, false}};
    const auto r = replay(log, Order::kLifo);
    CHECK_EQ(r.errors.max(), 2.0);
    CHECK_EQ(r.errors.mean(), 1.0);
  }
  {
    // Same history judged as a queue is perfect FIFO.
    std::vector<Event> log = {{0, 10, true}, {1, 20, true}, {2, 30, true},
                              {3, 10, false}, {4, 20, false}, {5, 30, false}};
    const auto r = replay(log, Order::kFifo);
    CHECK_EQ(r.errors.mean(), 0.0);
    CHECK_EQ(r.errors.max(), 0.0);
  }
  {
    // Unknown labels are counted (and not scored)...
    std::vector<Event> log = {{0, 10, true}, {1, 99, false}, {2, 10, false}};
    const auto r = replay(log, Order::kLifo);
    CHECK_EQ(r.unknown_labels, std::uint64_t{1});
    CHECK_EQ(r.errors.count(), std::uint64_t{1});
    // ...unless the log is marked truncated.
    const auto rt = replay(log, Order::kLifo, /*truncated=*/true);
    CHECK_EQ(rt.unknown_labels, std::uint64_t{0});
  }
  {
    // Out-of-order interleavings still score: push a, b; pop b; push c;
    // pop a (1 newer live: c); pop c.
    std::vector<Event> log = {{0, 1, true},  {1, 2, true},  {2, 2, false},
                              {3, 3, true},  {4, 1, false}, {5, 3, false}};
    const auto r = replay(log, Order::kLifo);
    CHECK_EQ(r.errors.max(), 1.0);
    CHECK_EQ(r.errors.count(), std::uint64_t{3});
  }

  {
    // Two-stamp pushes settle to their response stamp, unless the item's
    // pop stamped first (a racing pop); then to the invoke stamp.
    using Entry = r2d::harness::detail::TicketTape::Entry;
    std::vector<Entry> tape = {{{5, 10, true}, 0},   // push a: invoke 0, response 5
                               {{3, 20, true}, 1},   // push b: invoke 1, response 3
                               {{4, 20, false}, 0},  // pop b after b's response
                               {{2, 10, false}, 0}}; // pop a before a's response
    const auto events =
        r2d::harness::detail::settle_push_tickets(std::move(tape));
    CHECK_EQ(events.size(), std::size_t{4});
    CHECK_EQ(events[0].ticket, std::uint64_t{0});
    CHECK_EQ(events[1].ticket, std::uint64_t{3});
    CHECK_EQ(events[2].ticket, std::uint64_t{4});
    CHECK_EQ(events[3].ticket, std::uint64_t{2});
    const auto r = replay(events, Order::kLifo);
    CHECK_EQ(r.unknown_labels, std::uint64_t{0});
    CHECK_EQ(r.errors.count(), std::uint64_t{2});
  }

  // End-to-end: single-threaded, tickets are the exact linearization, so a
  // strict stack must measure exactly zero rank error.
  {
    r2d::stacks::TreiberStack<std::uint64_t> stack;
    r2d::harness::Workload w;
    w.threads = 1;
    w.duration_ms = 50;
    w.prefill = 1024;
    const auto q = r2d::harness::run_quality(stack, w);
    CHECK(q.samples > 0);
    CHECK_EQ(q.mean_error, 0.0);
    CHECK_EQ(q.max_error, 0.0);
    CHECK_EQ(q.unknown_labels, std::uint64_t{0});
  }
  // And the k=0 2D-stack, which degenerates to strict, likewise.
  {
    r2d::TwoDStack<std::uint64_t> stack(r2d::core::TwoDParams::for_k(0, 4));
    r2d::harness::Workload w;
    w.threads = 1;
    w.duration_ms = 50;
    w.prefill = 1024;
    const auto q = r2d::harness::run_quality(stack, w);
    CHECK(q.samples > 0);
    CHECK_EQ(q.mean_error, 0.0);
    CHECK_EQ(q.unknown_labels, std::uint64_t{0});
  }
  // A zero-length pass still records: the timed window stays open until
  // every worker has completed one operation (here a pop of a prefilled
  // item, so each one is a sample).
  {
    r2d::stacks::TreiberStack<std::uint64_t> stack;
    r2d::harness::Workload w;
    w.threads = 4;
    w.duration_ms = 0;
    w.prefill = 1024;
    w.push_ratio = 0.0;
    const auto q = r2d::harness::run_quality(stack, w);
    CHECK(q.samples >= w.threads);
    CHECK_EQ(q.unknown_labels, std::uint64_t{0});
  }
  // Concurrent strict stack: ticket skew (tickets approximate the
  // linearization) may contribute noise, but it stays far below the error
  // a genuinely relaxed structure shows.
  {
    r2d::stacks::TreiberStack<std::uint64_t> stack;
    r2d::harness::Workload w;
    w.threads = 4;
    w.duration_ms = 50;
    w.prefill = 1024;
    const auto q = r2d::harness::run_quality(stack, w);
    CHECK(q.samples > 0);
    CHECK(q.mean_error < 1.0);
    CHECK_EQ(q.unknown_labels, std::uint64_t{0});
  }
  // A deliberately relaxed 2D-stack must show nonzero error under
  // multi-threaded load (sanity that the oracle detects relaxation).
  {
    r2d::core::TwoDParams p;
    p.width = 16;
    p.depth = 16;
    p.shift = 8;
    r2d::TwoDStack<std::uint64_t> stack(p);
    r2d::harness::Workload w;
    w.threads = 4;
    w.duration_ms = 50;
    w.prefill = 4096;
    const auto q = r2d::harness::run_quality(stack, w);
    CHECK(q.samples > 0);
    CHECK(q.mean_error > 0.0);
    CHECK_EQ(q.unknown_labels, std::uint64_t{0});
  }
  return TEST_MAIN_RESULT();
}
