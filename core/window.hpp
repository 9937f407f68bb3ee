// The shared window-sweep engine: one implementation of the 2D framework's
// probe/hop/certify/shift loop, instantiated by every windowed container in
// this repo (TwoDStack pushes and pops, TwoDQueue puts and gets, TwoDDeque
// operations at either end).
//
// The paper's containers all share the same control structure: probe a
// column for eligibility under the current window, hop between columns
// after an ineligible probe or a lost CAS, and only move the window
// — monotonically, by `shift` — after a *certified failed sweep*, i.e.
// proof that every column was ineligible under an unchanged window value.
// TwoDStack and TwoDQueue used to hand-roll this loop separately, and the
// certification bugs PR 1 fixed crept in exactly through that duplication;
// this header is the single copy.
//
// What stays with the container (the two callbacks of drive_window_sweep):
//   * how a column is probed and operated on (`attempt`),
//   * what a certified failed sweep means (`certified`: shift the window to
//     a new value, redirect to a column a scan found eligible, or stop —
//     e.g. a pop that certified the whole structure empty).
// What the engine owns: the sweep-state machine (hop policy, contention
// restarts, streak counting), the certification threshold, window refresh
// on concurrent shifts, and the monotonic window-shift CAS itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "core/params.hpp"
#include "core/substack.hpp"  // hop_rand
#include "sched/hook.hpp"
#include "obs/metrics.hpp"

namespace r2d::core {

/// Result of one column probe inside a sweep.
enum class Probe : std::uint8_t {
  kSuccess,     ///< the operation completed on this column
  kIneligible,  ///< column outside the window (or empty) — advance the sweep
  kContended    ///< lost a race on an eligible column — restart certification
};

/// A container's verdict after a certified failed sweep (every column
/// proven ineligible under window value `max`).
struct Certified {
  enum class Kind : std::uint8_t {
    kShift,    ///< propose `target` as the new window value (monotonic rule)
    kRestart,  ///< the certification scan found column `index` eligible
    kStop      ///< terminal state observed (e.g. pop of an empty structure)
  };

  Kind kind;
  std::uint64_t target = 0;  ///< kShift: proposed window value
  std::size_t index = 0;     ///< kRestart: column to re-probe

  static constexpr Certified shift_to(std::uint64_t target) {
    return Certified{Kind::kShift, target, 0};
  }
  static constexpr Certified restart_at(std::size_t index) {
    return Certified{Kind::kRestart, 0, index};
  }
  static constexpr Certified stop() { return Certified{Kind::kStop, 0, 0}; }
};

/// Per-operation sweep state: which column to probe next, and how much of a
/// failed sweep has been certified so far.
///
/// The paper's hop policy (DESIGN.md §9): after an ineligible probe, hop to
/// a random column until `width` probes have failed, then switch to a
/// round-robin streak. A streak that covers `width` consecutive ineligible
/// probes under an unchanged window certifies the failed sweep (every
/// column was seen ineligible). A lost CAS (contention) means the observed
/// column *was* eligible, so it hops randomly and restarts certification
/// from scratch.
class SweepState {
 public:
  SweepState(std::size_t width, std::size_t start)
      : width_(width), index_(start % width) {}

  std::size_t index() const { return index_; }

  /// Certification starts over: the window moved, or a column proved
  /// eligible.
  void reset() { failed_ = 0; }

  /// Certification restarts at `index` (a scan found it eligible).
  void restart_at(std::size_t index) {
    reset();
    index_ = index % width_;
  }

  void on_ineligible() {
    if (++failed_ <= width_) {
      obs::count<obs::Counter::kHopsRandom>();
      index_ = static_cast<std::size_t>(hop_rand()) % width_;
    } else {
      obs::count<obs::Counter::kHopsStreak>();
      index_ = (index_ + 1) % width_;
    }
  }

  void on_contended() {
    obs::count<obs::Counter::kHopsContended>();
    reset();
    index_ = static_cast<std::size_t>(hop_rand()) % width_;
  }

  /// True once the round-robin streak has covered every column: `width`
  /// random probes, then `width` consecutive ones.
  bool certification_due() const { return failed_ >= 2 * width_; }

 private:
  std::size_t width_;
  std::size_t index_;
  std::size_t failed_ = 0;  ///< ineligible probes since the last reset
};

/// Drive one operation's sweep to completion.
///
/// `window` is the operation's window counter (e.g. the stack's
/// `window_max_`, the queue's `put_max_` or `get_max_`); `start` the column
/// to sweep from (typically the thread's preferred column, whose fast-path
/// probe already failed with `seed`); `max` the window value that fast path
/// observed.
///
/// Callback contract:
///   Probe attempt(std::size_t index, std::uint64_t max)
///     One probe of `index` under window `max`: check eligibility exactly
///     and try the operation's CAS. On kSuccess the operation's result must
///     have been captured by the callback (the engine returns true).
///   Certified certified(std::uint64_t max)
///     Called after a certified failed sweep; decides shift / redirect /
///     stop. A kShift target must be monotonic in the window's direction of
///     travel and is installed with a single CAS — losing that race is
///     benign (some other thread moved the same window; the sweep restarts
///     under the new value).
///
/// Returns true when `attempt` reported kSuccess, false when `certified`
/// stopped the sweep. The engine re-reads `window` before every probe so a
/// concurrent shift resets the sweep (certification is only valid under an
/// unchanged window value).
///
/// `cause` tags this operation's window shifts in the obs trace ring
/// (obs::ShiftCause::kUnknown when the caller doesn't care); everything
/// else about the instrumentation is the engine's own (DESIGN.md §14):
/// probes, hops by reason, certification consults/failures, and shift attempts split into wins and losses.
template <typename Attempt, typename CertifiedFn>
bool drive_window_sweep(const TwoDParams& p,
                        std::atomic<std::uint64_t>& window, std::size_t start,
                        std::uint64_t max, Probe seed, Attempt&& attempt,
                        CertifiedFn&& certified,
                        obs::ShiftCause cause = obs::ShiftCause::kUnknown) {
  obs::count<obs::Counter::kSweeps>();
  SweepState sweep(p.width, start);
  if (seed == Probe::kContended) {
    sweep.on_contended();
  } else {
    sweep.on_ineligible();
  }
  while (true) {
    // Injected stall: a forced yield between the window re-read and the
    // probe — the worst spot for preemption, where a concurrent shift
    // invalidates the certification this sweep is building.
    if (R2D_HOOK_POINT(kSweepStall)) [[unlikely]] {
      std::this_thread::yield();
    }
    {
      const std::uint64_t cur = window.load(std::memory_order_acquire);
      if (cur != max) {
        max = cur;
        sweep.reset();
      }
    }
    obs::count<obs::Counter::kProbes>();
    switch (attempt(sweep.index(), max)) {
      case Probe::kSuccess:
        obs::count<obs::Counter::kSweepSuccess>();
        return true;
      case Probe::kContended:
        sweep.on_contended();
        continue;
      case Probe::kIneligible:
        break;
    }
    sweep.on_ineligible();
    if (!sweep.certification_due()) continue;
    obs::count<obs::Counter::kCertAttempts>();
    const Certified c = certified(max);
    switch (c.kind) {
      case Certified::Kind::kStop:
        obs::count<obs::Counter::kSweepStop>();
        return false;
      case Certified::Kind::kRestart:
        obs::count<obs::Counter::kCertFails>();
        sweep.restart_at(c.index);
        continue;
      case Certified::Kind::kShift: {
        std::uint64_t expected = max;
        obs::count<obs::Counter::kShiftAttempts>();
        // Injected shift loss: behaves exactly like losing the CAS to a
        // racing shifter, without executing it — the window is re-read
        // and the sweep restarts; monotonicity is untouched.
        const bool won = !R2D_HOOK_POINT(kShiftCas) &&
                         window.compare_exchange_strong(
                             expected, c.target, std::memory_order_acq_rel,
                             std::memory_order_relaxed);
        if (won) {
          obs::count<obs::Counter::kShiftWins>();
        } else {
          obs::count<obs::Counter::kShiftLosses>();
        }
        obs::record_shift(max, c.target, won, cause);
        max = window.load(std::memory_order_acquire);
        sweep.reset();
        continue;
      }
    }
  }
}

}  // namespace r2d::core
