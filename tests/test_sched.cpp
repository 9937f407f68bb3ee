// sched/ deterministic-scheduler suite.
//
// Always-on here: the history checkers (linearizability + the quality
// bridge) and the stub's API parity. Under -DR2D_TESTHOOKS=1 the real
// work: bit-identical replay of seeded schedules (also with a fault
// policy armed inside the schedule), linearizability of the strict
// baselines under adversarial interleavings, and the k / per-end
// rank-error bound of TwoDStack / TwoDDeque checked per schedule across
// a seed sweep (R2D_SCHED_SWEEP_SEEDS seeds x 3 policies; the ci.sh
// test-hook arm raises the sweep past 1000 schedules).
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check.hpp"
#include "core/two_d_deque.hpp"
#include "core/two_d_queue.hpp"
#include "core/two_d_stack.hpp"
#include "core/two_d_bag.hpp"
#include "fault/inject.hpp"
#include "harness/quality.hpp"
#include "sched/dst.hpp"
#include "sched/history.hpp"
#include "stacks/treiber_stack.hpp"
#include "util/env.hpp"

namespace {

using r2d::sched::History;
using r2d::sched::Op;
using r2d::sched::OpKind;
using r2d::sched::Semantics;

Op push_op(std::uint64_t v, std::uint64_t inv, std::uint64_t rsp) {
  return Op{0, OpKind::kPush, v, true, false, inv, rsp};
}
Op pop_op(std::uint64_t v, bool ok, std::uint64_t inv, std::uint64_t rsp) {
  return Op{0, OpKind::kPop, v, ok, false, inv, rsp};
}

/// The checkers are pure functions of the history — exercise them on
/// hand-built histories before trusting them on scheduled ones.
void check_linearizability_checker() {
  using r2d::sched::linearizable;
  // Sequential LIFO / FIFO histories.
  CHECK(linearizable({}, Semantics::kLifo));
  CHECK(linearizable({push_op(1, 1, 2), push_op(2, 3, 4),
                      pop_op(2, true, 5, 6), pop_op(1, true, 7, 8)},
                     Semantics::kLifo));
  CHECK(linearizable({push_op(1, 1, 2), push_op(2, 3, 4),
                      pop_op(1, true, 5, 6), pop_op(2, true, 7, 8)},
                     Semantics::kFifo));
  // Sequential violations: the pop takes the wrong element.
  CHECK(!linearizable({push_op(1, 1, 2), push_op(2, 3, 4),
                       pop_op(1, true, 5, 6)},
                      Semantics::kLifo));
  CHECK(!linearizable({push_op(1, 1, 2), push_op(2, 3, 4),
                       pop_op(2, true, 5, 6)},
                      Semantics::kFifo));
  // Overlapping pushes may linearize in either order, legalizing the
  // "wrong" pop.
  CHECK(linearizable({push_op(1, 1, 10), push_op(2, 2, 11),
                      pop_op(1, true, 12, 13)},
                     Semantics::kLifo));
  // Empty pop is legal only against an empty state: after a completed
  // push with no intervening pop it cannot linearize.
  CHECK(linearizable({pop_op(0, false, 1, 2), push_op(1, 3, 4)},
                     Semantics::kLifo));
  CHECK(!linearizable({push_op(1, 1, 2), pop_op(0, false, 3, 4)},
                      Semantics::kLifo));
  // A value popped twice can never linearize.
  CHECK(!linearizable({push_op(1, 1, 2), pop_op(1, true, 3, 4),
                       pop_op(1, true, 5, 6)},
                      Semantics::kLifo));
}

void check_quality_bridge() {
  // push tickets at invoke, pop tickets at response; failed ops dropped.
  History h(2);
  const auto i1 = h.stamp();
  const auto r1 = h.stamp();
  h.push(0, 7, true, i1, r1);
  const auto i2 = h.stamp();
  const auto r2 = h.stamp();
  h.pop(1, std::optional<std::uint64_t>{7}, i2, r2);
  const auto i3 = h.stamp();
  const auto r3 = h.stamp();
  h.pop(1, std::nullopt, i3, r3);  // empty pop: no quality event
  const auto events = r2d::sched::to_quality_events(h.merged());
  CHECK_EQ(events.size(), std::size_t{2});
  CHECK(events[0].is_push);
  CHECK_EQ(events[0].ticket, i1);
  CHECK(!events[1].is_push);
  CHECK_EQ(events[1].ticket, r2);
  const auto replayed =
      r2d::quality::replay(events, r2d::quality::Order::kLifo);
  CHECK_EQ(replayed.errors.max(), 0.0);
  CHECK_EQ(replayed.unknown_labels, std::uint64_t{0});
}

void check_api_parity() {
  auto& sched = r2d::sched::Scheduler::get();
  sched.configure("off", 0, 0);
  CHECK(sched.reproducer().find("R2D_SCHED=") != std::string::npos);
  CHECK(!sched.perturbed());
  r2d::sched::preempt_point();  // callable in every build
#if R2D_TESTHOOKS
  // Outside a seeded run the test-hook build seeds each stream from
  // R2D_FAULT_SEED and a fresh thread ordinal, not from the caller's
  // address entropy: replayable, and never two threads on one stream.
  CHECK(r2d::sched::hop_seed(42u) != r2d::sched::hop_seed(42u));
#else
  CHECK_EQ(r2d::sched::hop_seed(42u), std::uint64_t{42});
#endif
#if !R2D_TESTHOOKS
  static_assert(!r2d::sched::kCompiled);
  CHECK_EQ(sched.steps_taken(), std::uint64_t{0});
  // run() still executes bodies (free-running) in the stub build.
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 3; ++i) bodies.push_back([&ran] { ++ran; });
  sched.run(std::move(bodies));
  CHECK_EQ(ran.load(), 3);
#else
  static_assert(r2d::sched::kCompiled);
#endif
}

#if R2D_TESTHOOKS

struct SweepStats {
  std::uint64_t schedules = 0;
  std::uint64_t failures_printed = 0;
};
SweepStats g_sweep;

/// Run `body(tid)` on `threads` scheduled threads under (spec, seed).
/// Asserts the run stayed deterministic (no escape hatch, no budget
/// blowout) so every checker verdict below is a replayable fact.
template <typename Body>
void run_schedule(const std::string& spec, std::uint64_t seed,
                  unsigned threads, Body&& body) {
  auto& sched = r2d::sched::Scheduler::get();
  sched.configure(spec, seed, 0);
  std::vector<std::function<void()>> bodies;
  for (unsigned t = 0; t < threads; ++t) {
    bodies.push_back([t, &body] { body(t); });
  }
  sched.run(std::move(bodies));
  ++g_sweep.schedules;
  CHECK(!sched.perturbed());
}

/// Guard that prints the one-line reproducer when a schedule's checks
/// failed: any failing run is replayable from its printed line.
class ReproducerOnFailure {
 public:
  ReproducerOnFailure() : before_(r2d::test::failures()) {}
  ~ReproducerOnFailure() {
    if (r2d::test::failures() != before_) {
      std::fprintf(stderr, "reproduce with: %s\n",
                   r2d::sched::Scheduler::get().reproducer().c_str());
      ++g_sweep.failures_printed;
    }
  }

 private:
  int before_;
};

const std::vector<std::string> kPolicies = {"random", "pct:1", "pct:3"};

/// Treiber under adversarial schedules must stay linearizable.
void check_treiber_linearizable(const std::string& spec, std::uint64_t seed) {
  ReproducerOnFailure guard;
  r2d::stacks::TreiberStack<std::uint64_t> stack;
  History h(3);
  run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 2; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      stack.push(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 2; ++i) {
      const auto inv = h.stamp();
      const auto v = stack.pop();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  CHECK(r2d::sched::linearizable(h.merged(), Semantics::kLifo));
}

/// Width-1 TwoDQueue is strict FIFO (k_bound == 0): linearizable.
void check_strict_queue_linearizable(const std::string& spec,
                                     std::uint64_t seed) {
  ReproducerOnFailure guard;
  r2d::core::TwoDParams params{1, 4, 1};
  CHECK_EQ(params.k_bound(), std::uint64_t{0});
  r2d::TwoDQueue<std::uint64_t> queue(params);
  History h(3);
  run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 2; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      queue.enqueue(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 2; ++i) {
      const auto inv = h.stamp();
      const auto v = queue.dequeue();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  CHECK(r2d::sched::linearizable(h.merged(), Semantics::kFifo));
}

/// TwoDStack: rank error of every schedule bounded by Theorem 1's k.
void check_stack_k_bound(const std::string& spec, std::uint64_t seed) {
  ReproducerOnFailure guard;
  const r2d::core::TwoDParams params{4, 4, 2};  // k = (2*2+4)*3 = 24
  r2d::TwoDStack<std::uint64_t> stack(params);
  History h(3);
  run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 6; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      stack.push(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 6; ++i) {
      const auto inv = h.stamp();
      const auto v = stack.pop();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  const auto replayed = r2d::quality::replay(
      r2d::sched::to_quality_events(h.merged()), r2d::quality::Order::kLifo);
  CHECK_EQ(replayed.unknown_labels, std::uint64_t{0});
  CHECK(replayed.errors.max() <= static_cast<double>(params.k_bound()));
}

/// TwoDDeque: per-end rank error bounded by (2*shift+depth)*(width-1)
/// — the E12 per-end target, machine-checked per schedule.
void check_deque_per_end_bound(const std::string& spec, std::uint64_t seed) {
  ReproducerOnFailure guard;
  const r2d::core::TwoDParams params{4, 4, 2};
  r2d::TwoDDeque<std::uint64_t> deque(params);
  History h(4);
  run_schedule(spec, seed, 4, [&](unsigned tid) {
    const bool front = (tid % 2) == 0;
    for (unsigned i = 0; i < 5; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      if (front) {
        deque.push_front(v);
      } else {
        deque.push_back(v);
      }
      h.push(tid, v, true, inv, h.stamp(), front);
    }
    for (unsigned i = 0; i < 5; ++i) {
      const auto inv = h.stamp();
      const auto v = front ? deque.pop_front() : deque.pop_back();
      h.pop(tid, v, inv, h.stamp(), front);
    }
  });
  const auto replayed = r2d::quality::replay(
      r2d::sched::to_quality_events(h.merged()), r2d::quality::Order::kDeque);
  CHECK_EQ(replayed.unknown_labels, std::uint64_t{0});
  CHECK(replayed.errors.max() <= static_cast<double>(params.k_bound()));
}

/// Every value whose push succeeded comes out exactly once across the
/// history's successful pops plus the post-run `drain` (which returns
/// nullopt once the container is empty).
template <typename Drain>
void check_conserved(const History& h, Drain&& drain) {
  std::map<std::uint64_t, int> balance;
  for (const Op& op : h.merged()) {
    if (!op.ok) continue;
    balance[op.value] += op.kind == OpKind::kPush ? 1 : -1;
  }
  while (auto v = drain()) balance[*v] -= 1;
  for (const auto& [value, count] : balance) {
    if (count != 0) {
      std::fprintf(stderr, "conservation broken at value %llu (%d)\n",
                   static_cast<unsigned long long>(value), count);
    }
    CHECK_EQ(count, 0);
  }
}

/// TwoDBag under schedules: pure conservation (every pushed value comes
/// out exactly once across scheduled pops + the post-run drain).
void check_bag_conservation(const std::string& spec, std::uint64_t seed) {
  ReproducerOnFailure guard;
  r2d::TwoDBag<std::uint64_t> bag(r2d::core::TwoDParams{4, 4, 2});
  History h(3);
  run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 8; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      bag.put(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 4; ++i) {
      const auto inv = h.stamp();
      const auto v = bag.take();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  check_conserved(h, [&bag] { return bag.take(); });
}

/// Same policy + seed ==> byte-identical history, twice over. This IS
/// the bit-replayability acceptance criterion.
void check_replay_determinism() {
  for (const std::string& spec : kPolicies) {
    std::vector<std::string> serialized;
    for (int attempt = 0; attempt < 2; ++attempt) {
      r2d::TwoDStack<std::uint64_t> stack(
          r2d::core::TwoDParams{4, 4, 2});
      History h(3);
      run_schedule(spec, 0xfeedc0de, 3, [&](unsigned tid) {
        for (unsigned i = 0; i < 5; ++i) {
          const std::uint64_t v = tid * 1000 + i + 1;
          const auto inv = h.stamp();
          stack.push(v);
          h.push(tid, v, true, inv, h.stamp());
          const auto pinv = h.stamp();
          const auto p = stack.pop();
          h.pop(tid, p, pinv, h.stamp());
        }
      });
      serialized.push_back(h.serialize());
    }
    if (serialized[0] != serialized[1]) {
      std::fprintf(stderr, "replay diverged under %s\n", spec.c_str());
    }
    CHECK(serialized[0] == serialized[1]);
  }
}

/// Both test hooks armed at once: a `site:` fault policy inside a seeded
/// pct schedule shares the armed word with the scheduler. Two runs of the
/// same (policy, seed) must inject the same faults into byte-identical
/// histories, and every push that succeeded must be conserved.
void check_fault_inside_schedule() {
  auto& inj = r2d::fault::injector();
  std::vector<std::string> serialized;
  std::vector<std::uint64_t> injected;
  for (int attempt = 0; attempt < 2; ++attempt) {
    ReproducerOnFailure guard;
    // HeapAlloc arm: every push evaluates the heap-alloc site.
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::HeapAlloc>
        stack(r2d::core::TwoDParams{4, 4, 2});
    History h(3);
    inj.configure("site:heap-alloc:5", 0x5eed);
    run_schedule("pct:3", 0xfa17, 3, [&](unsigned tid) {
      for (unsigned i = 0; i < 5; ++i) {
        const std::uint64_t v = tid * 1000 + i + 1;
        const auto inv = h.stamp();
        const bool ok = stack.try_push(v) == r2d::core::OpStatus::kOk;
        h.push(tid, v, ok, inv, h.stamp());
      }
      for (unsigned i = 0; i < 3; ++i) {
        const auto inv = h.stamp();
        const auto v = stack.pop();
        h.pop(tid, v, inv, h.stamp());
      }
    });
    injected.push_back(inj.injected());
    inj.configure("off", 0);
    serialized.push_back(h.serialize());
    check_conserved(h, [&stack] { return stack.pop(); });
  }
  CHECK_EQ(injected[0], std::uint64_t{1});
  CHECK_EQ(injected[1], injected[0]);
  if (serialized[0] != serialized[1]) {
    std::fprintf(stderr, "replay with a fault policy armed diverged\n");
  }
  CHECK(serialized[0] == serialized[1]);
}

/// A tiny step budget must terminate the run (free-run escape), and the
/// scheduler must say so via perturbed().
void check_budget_termination() {
  auto& sched = r2d::sched::Scheduler::get();
  sched.configure("pct:2", 0xabc, 16);
  r2d::TwoDStack<std::uint64_t> stack(r2d::core::TwoDParams{4, 4, 2});
  std::vector<std::function<void()>> bodies;
  for (unsigned t = 0; t < 3; ++t) {
    bodies.push_back([&stack, t] {
      for (unsigned i = 0; i < 50; ++i) {
        stack.push(t * 1000 + i);
        stack.pop();
      }
    });
  }
  const std::uint64_t steps = sched.run(std::move(bodies));
  CHECK(steps >= 16);
  CHECK(sched.perturbed());
}

void run_sweep() {
  // ctest default stays quick; the ci.sh sched arm raises the seed count
  // so policies x seeds x suites crosses the 1000-schedule criterion.
  const std::uint64_t seeds =
      r2d::util::env_u64("R2D_SCHED_SWEEP_SEEDS", 8);
  for (const std::string& spec : kPolicies) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 0x51ed5eed + s * 0x9e37;
      check_treiber_linearizable(spec, seed);
      check_strict_queue_linearizable(spec, seed);
      check_stack_k_bound(spec, seed);
      check_deque_per_end_bound(spec, seed);
      check_bag_conservation(spec, seed);
    }
  }
  std::printf("sched sweep: %llu schedules explored\n",
              static_cast<unsigned long long>(g_sweep.schedules));
}

#endif  // R2D_TESTHOOKS

}  // namespace

int main() {
  check_linearizability_checker();
  check_quality_bridge();
  check_api_parity();
#if R2D_TESTHOOKS
  check_replay_determinism();
  check_fault_inside_schedule();
  run_sweep();
  check_budget_termination();
#else
  std::puts("sched compiled out (R2D_TESTHOOKS=0): checker + parity tests "
            "only");
#endif
  return TEST_MAIN_RESULT();
}
