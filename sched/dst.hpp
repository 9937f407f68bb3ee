// Seeded deterministic concurrency testing (DST) — DESIGN.md §16.
//
// A cooperative scheduler that serializes registered threads through a
// single run token and makes a *seeded* preemption decision at every
// `R2D_HOOK_POINT()` in the library. The hook layer (sched/hook.hpp)
// already threads through every resource acquisition and CAS-retry loop
// in core/, reclaim/ and stacks/, so under the scheduler those become
// the exact points where one thread can be descheduled mid-protocol —
// between a DWCAS publish and its help step, between a failed sweep and
// the shift CAS, between a slot steal and the revenant's return. The
// same policy string and seed replay the same schedule bit-identically,
// which turns any failing run into a one-line reproducer:
//
//   R2D_SCHED=pct:3 R2D_SCHED_SEED=0x1e7c... ./tests/test_sched
//
// Policies (env `R2D_SCHED`, seed `R2D_SCHED_SEED`, budget
// `R2D_SCHED_STEPS`):
//   off      — scheduler compiled in but dormant; run() executes bodies
//              on free-running threads (this arm feeds the ci.sh
//              overhead guard for the R2D_TESTHOOKS=1 build).
//   random   — at every hook point, pick the next runnable thread
//              uniformly at random (classic rapos-style random walk).
//   pct:D    — probabilistic concurrency testing: threads get random
//              distinct priorities, the highest-priority runnable thread
//              always runs, and D priority-change points sampled from
//              [1, steps] demote whoever is running when they trigger.
//              PCT finds any bug of depth ≤ D+1 with probability
//              ≥ 1/(n·k^D) per run (Burckhardt et al., ASPLOS'10).
//
// Termination guarantee: the step budget bounds every schedule. When it
// is exhausted — or when a 1s no-progress escape hatch fires because a
// thread blocked somewhere the scheduler cannot see (an OS mutex held
// by a descheduled peer) — the run degrades to free-running threads and
// sets `perturbed()`, which tells the harness the tail of this history
// is no longer replay-comparable. CI budgets are sized so perturbation
// never happens on a clean library; the hatch exists so a genuine
// deadlock fails a test in seconds instead of hanging the job.
//
// What this does NOT model (DESIGN.md §16): weak-memory reordering.
// Threads are serialized, so every execution the scheduler explores is
// sequentially consistent; TSan + the real-time hammers remain the
// defense for relaxed-memory bugs. Preemption happens only at hook
// points, not between arbitrary instructions — coverage is exactly as
// good as the site list.
//
// Two-level off switch shared with fault/: the default build
// (`R2D_TESTHOOKS=0`) compiles `preempt_point()` to nothing and the
// Scheduler to a full-API-parity stub; `-DR2D_TESTHOOKS=1` builds the
// real scheduler, which costs one relaxed load of the shared armed word
// (util/testhooks.hpp) per hook point while dormant.
//
// Layering: includes only util/ and the standard library, so core/ and
// reclaim/ (via sched/hook.hpp) can include it without cycles. obs/ and
// fault/ are unaware of sched/.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/testhooks.hpp"

namespace r2d::sched {

enum class Policy : std::uint8_t { kOff, kRandom, kPct };

inline constexpr bool kCompiled = testhooks::kCompiled;

#if R2D_TESTHOOKS

/// True only while a run() with a non-off policy is in flight: the
/// armed word's sched bit.
inline bool in_seeded_run() {
  return (testhooks::armed.load(std::memory_order_relaxed) &
          testhooks::kSchedArmed) != 0;
}

/// The cooperative scheduler: one process-wide instance. Threads attach
/// inside run(), after which exactly one attached thread executes at a
/// time; every preempt() is a seeded decision about who runs next.
class Scheduler {
 public:
  static Scheduler& get() {
    static Scheduler instance;
    return instance;
  }

  /// (Re)configure policy/seed/step budget. NOT safe against a run in
  /// flight — call at quiescence (tests do, between schedules).
  /// spec: "off" | "random" | "pct:D". Unknown specs mean off.
  void configure(const std::string& spec, std::uint64_t seed,
                 std::uint64_t steps) {
    policy_ = Policy::kOff;
    pct_depth_ = 0;
    spec_ = spec.empty() ? "off" : spec;
    if (spec == "random") {
      policy_ = Policy::kRandom;
    } else if (spec.rfind("pct:", 0) == 0) {
      std::uint64_t d = 0;
      if (util::parse_u64_strict(spec.c_str() + 4, d) && d > 0 && d <= 64) {
        policy_ = Policy::kPct;
        pct_depth_ = static_cast<unsigned>(d);
      }
    }
    seed_ = seed != 0 ? seed : 0x2545f4914f6cdd1dull;
    step_budget_ = steps != 0 ? steps : kDefaultSteps;
  }

  Policy policy() const { return policy_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t step_budget() const { return step_budget_; }

  /// Steps taken by the most recent run().
  std::uint64_t steps_taken() const { return step_; }

  /// True when the most recent run() left deterministic mode — budget
  /// exhausted or the no-progress escape hatch fired. Such a run is not
  /// bit-replayable past the perturbation point.
  bool perturbed() const { return perturbed_; }

  /// The one-line reproducer for the configured schedule.
  std::string reproducer() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "R2D_SCHED=%s R2D_SCHED_SEED=0x%llx R2D_SCHED_STEPS=%llu",
                  spec_.c_str(),
                  static_cast<unsigned long long>(seed_),
                  static_cast<unsigned long long>(step_budget_));
    return std::string(buf);
  }

  /// Run `bodies` to completion under the configured schedule. Each body
  /// executes on a fresh std::thread with deterministic ordinal i (the
  /// index in `bodies`), so thread identity — and with it every
  /// per-thread stream in the library — does not depend on OS spawn
  /// order. With policy off the bodies simply free-run. Returns the
  /// number of scheduling steps taken.
  std::uint64_t run(std::vector<std::function<void()>> bodies) {
    const unsigned n = static_cast<unsigned>(bodies.size());
    if (n == 0) return 0;
    reset_run(n);
    const bool scheduling = policy_ != Policy::kOff;
    if (scheduling) testhooks::set_armed(testhooks::kSchedArmed, true);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([this, scheduling, i, body = std::move(bodies[i])] {
        if (scheduling) attach(i);
        body();
        if (scheduling) detach(i);
      });
    }
    for (auto& t : threads) t.join();
    if (scheduling) testhooks::set_armed(testhooks::kSchedArmed, false);
    return step_;
  }

  /// The preemption point body — called via sched::preempt_point() from
  /// R2D_HOOK_POINT. Only the token holder can be here (everyone else
  /// is waiting in wait_for_token), so the seeded decision sequence is
  /// consumed in schedule order and replays exactly.
  void preempt() {
    ThreadRec* me = tls_rec();
    if (me == nullptr) return;  // unattached thread (main, watchdog, ...)
    std::unique_lock<std::mutex> lk(mu_);
    if (free_run_) return;
    advance(lk, me, /*exiting=*/false);
  }

  /// Deterministic per-thread seed for the library's thread-local RNG
  /// streams (core::hop_rand). While a seeded run is in flight, attached
  /// threads get a stream derived from (schedule seed, ordinal) so hop
  /// sequences replay; everyone else keeps `fallback` (address entropy).
  std::uint64_t stream_seed(std::uint64_t fallback) {
    ThreadRec* me = tls_rec();  // set only while attached to a seeded run
    if (me == nullptr) return fallback;
    return testhooks::mix64(seed_ ^ (0x100000001b3ull * (me->ordinal + 1)));
  }

 private:
  static constexpr std::uint64_t kDefaultSteps = 200000;

  struct ThreadRec {
    unsigned ordinal = 0;
    std::uint64_t priority = 0;  // pct: higher runs first
    bool runnable = false;       // false once the body returned
  };

  Scheduler() {
    configure(util::env_str("R2D_SCHED", "off"),
              util::env_u64_strict("R2D_SCHED_SEED", 0),
              util::env_u64_strict("R2D_SCHED_STEPS", 0));
  }

  static ThreadRec*& tls_rec() {
    static thread_local ThreadRec* rec = nullptr;
    return rec;
  }

  // Only the token holder draws, so the sequence is schedule-ordered.
  std::uint64_t next_rand() { return testhooks::xorshift64star(rng_); }

  void reset_run(unsigned n) {
    std::lock_guard<std::mutex> lk(mu_);
    recs_.assign(n, ThreadRec{});
    for (unsigned i = 0; i < n; ++i) recs_[i].ordinal = i;
    rng_ = testhooks::mix64(seed_);
    step_ = 0;
    attached_ = 0;
    started_ = false;
    free_run_ = false;
    perturbed_ = false;
    change_steps_.clear();
    if (policy_ == Policy::kPct) {
      // Random distinct priorities via Fisher–Yates over [n, 2n); the
      // demotion counter hands out values below n, so a demoted thread
      // always ranks under every never-demoted one.
      std::vector<std::uint64_t> prio(n);
      for (unsigned i = 0; i < n; ++i) prio[i] = n + i;
      for (unsigned i = n; i > 1; --i) {
        const unsigned j = static_cast<unsigned>(next_rand() % i);
        std::swap(prio[i - 1], prio[j]);
      }
      for (unsigned i = 0; i < n; ++i) recs_[i].priority = prio[i];
      next_demotion_ = n;  // counts down: n-1, n-2, ... (then wraps huge;
                           // D ≤ 64 demotions never get near that)
      for (unsigned d = 0; d < pct_depth_; ++d) {
        change_steps_.push_back(1 + next_rand() % step_budget_);
      }
    }
    current_ = pick_next(nullptr);
  }

  /// Seeded choice of the next thread to run among runnable ones,
  /// excluding `except` (used when the current thread is exiting).
  /// Returns the chosen ordinal, or n when none are runnable.
  unsigned pick_next(const ThreadRec* except) {
    unsigned runnable = 0;
    for (const auto& r : recs_) {
      if (&r != except && (r.runnable || !started_)) ++runnable;
    }
    if (runnable == 0) return static_cast<unsigned>(recs_.size());
    if (policy_ == Policy::kPct) {
      const ThreadRec* best = nullptr;
      for (const auto& r : recs_) {
        if (&r == except || (started_ && !r.runnable)) continue;
        if (best == nullptr || r.priority > best->priority) best = &r;
      }
      return best->ordinal;
    }
    // random: uniform among eligible, in ordinal order.
    unsigned idx = static_cast<unsigned>(next_rand() % runnable);
    for (const auto& r : recs_) {
      if (&r == except || (started_ && !r.runnable)) continue;
      if (idx == 0) return r.ordinal;
      --idx;
    }
    return static_cast<unsigned>(recs_.size());
  }

  void attach(unsigned ordinal) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = &recs_[ordinal];
    me->runnable = true;
    tls_rec() = me;
    if (++attached_ == recs_.size()) {
      started_ = true;  // decisions begin only once every ordinal exists
      cv_.notify_all();
    }
    wait_for_token(lk, me);
  }

  void detach(unsigned ordinal) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* me = &recs_[ordinal];
    tls_rec() = nullptr;
    if (!free_run_) advance(lk, me, /*exiting=*/true);
    me->runnable = false;
    cv_.notify_all();
  }

  /// One scheduling step: consume a decision, hand the token over, and
  /// (unless exiting) block until it comes back.
  void advance(std::unique_lock<std::mutex>& lk, ThreadRec* me,
               bool exiting) {
    ++step_;
    if (step_ >= step_budget_) {
      enter_free_run("step budget exhausted");
      return;
    }
    if (policy_ == Policy::kPct) {
      for (const std::uint64_t cs : change_steps_) {
        if (cs == step_) me->priority = --next_demotion_;
      }
    }
    const unsigned next = pick_next(exiting ? me : nullptr);
    if (next >= recs_.size()) return;  // last thread standing
    if (next == me->ordinal && !exiting) return;
    current_ = next;
    cv_.notify_all();
    if (!exiting) wait_for_token(lk, me);
  }

  void wait_for_token(std::unique_lock<std::mutex>& lk, ThreadRec* me) {
    const auto pred = [this, me] {
      return free_run_ || (started_ && current_ == me->ordinal);
    };
    while (!pred()) {
      const std::uint64_t step_at_wait = step_;
      if (!cv_.wait_for(lk, std::chrono::seconds(1), pred)) {
        if (step_ == step_at_wait && started_) {
          // Nobody advanced for a full second: the token holder is
          // blocked somewhere the scheduler cannot see. Release
          // everyone rather than deadlock; the run is no longer
          // deterministic past this point.
          enter_free_run("no progress at hook points for 1s");
          return;
        }
      }
    }
  }

  void enter_free_run(const char* why) {
    free_run_ = true;
    perturbed_ = true;
    std::fprintf(stderr, "r2d sched: free-running after step %llu (%s); %s\n",
                 static_cast<unsigned long long>(step_), why,
                 reproducer().c_str());
    cv_.notify_all();
  }

  // Configuration (stable during a run).
  Policy policy_ = Policy::kOff;
  unsigned pct_depth_ = 0;
  std::uint64_t seed_ = 0x2545f4914f6cdd1dull;
  std::uint64_t step_budget_ = kDefaultSteps;
  std::string spec_ = "off";

  // Per-run state, all under mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ThreadRec> recs_;
  std::vector<std::uint64_t> change_steps_;
  std::uint64_t rng_ = 0;
  std::uint64_t step_ = 0;
  std::uint64_t next_demotion_ = 0;
  unsigned current_ = 0;
  unsigned attached_ = 0;
  bool started_ = false;
  bool free_run_ = false;
  bool perturbed_ = false;
};

/// A preemption point outside the fault-site list: one relaxed load when
/// no seeded run is in flight, a scheduling decision when one is.
inline void preempt_point() {
  if (in_seeded_run()) Scheduler::get().preempt();
}

/// Deterministic seed hook for the library's thread-local RNG streams.
/// Inside a seeded run the scheduler's per-ordinal stream wins. Outside
/// one, this build ignores `fallback` (address entropy) and derives the
/// stream from R2D_FAULT_SEED and a process-wide thread ordinal, so a
/// single-threaded fault sweep probes the same columns, and so reaches
/// the same hook evaluations, on every run.
inline std::uint64_t hop_seed(std::uint64_t fallback) {
  if (in_seeded_run()) return Scheduler::get().stream_seed(fallback);
  static const std::uint64_t seed =
      util::env_u64_strict("R2D_FAULT_SEED", 0);
  static std::atomic<std::uint64_t> ordinal{0};
  return testhooks::mix64(
      seed ^ testhooks::mix64(ordinal.fetch_add(1, std::memory_order_relaxed)));
}

#else  // R2D_TESTHOOKS == 0: the default — the scheduler compiles to nothing.

/// API-parity stub (sizeof == 1, no state): tests assert against the
/// same surface in both builds, and every preempt_point() folds away.
class Scheduler {
 public:
  static Scheduler& get() {
    static Scheduler instance;
    return instance;
  }
  void configure(const std::string&, std::uint64_t, std::uint64_t) {}
  Policy policy() const { return Policy::kOff; }
  std::uint64_t seed() const { return 0; }
  std::uint64_t step_budget() const { return 0; }
  std::uint64_t steps_taken() const { return 0; }
  bool perturbed() const { return false; }
  std::string reproducer() const { return "R2D_SCHED=off"; }
  std::uint64_t run(std::vector<std::function<void()>> bodies) {
    std::vector<std::thread> threads;
    threads.reserve(bodies.size());
    for (auto& b : bodies) threads.emplace_back(std::move(b));
    for (auto& t : threads) t.join();
    return 0;
  }
  void preempt() {}
  std::uint64_t stream_seed(std::uint64_t fallback) { return fallback; }
};

constexpr void preempt_point() {}

constexpr std::uint64_t hop_seed(std::uint64_t fallback) { return fallback; }

#endif  // R2D_TESTHOOKS

}  // namespace r2d::sched
