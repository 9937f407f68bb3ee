// Production stall watchdog (DESIGN.md §16) — the non-DST half of
// sched/: a per-container no-progress detector for real runs.
//
// The DST scheduler finds stalls by exploring schedules; the watchdog
// catches the ones that slip through to production. It samples a
// caller-supplied progress counter (completed ops, obs sweep/shift
// counters — anything monotonic) on a monotonic deadline
// (`R2D_WATCHDOG_MS`). If two consecutive judged windows pass with no
// progress while work is outstanding, it captures a diagnostic report —
// the obs counter summary plus the newest shift-trace ring entries —
// and lets policy decide what happens next. One stuck window is not
// enough: a worker starved of CPU for a single deadline (an overloaded
// host) looks exactly like a stuck one, and requiring a second window
// costs one more deadline of detection delay. A window in which the
// monitor itself woke more than half a deadline late is not judged: the
// monitor was descheduled (hypervisor steal, an overloaded host), so the
// window measured the host rather than the container. Every report
// carries the window's wake-up overshoot and the host steal share seen
// during it, so a verdict on a noisy host can be told apart from a real
// livelock:
//
//   * `check()` throws `StallDetected` carrying the report (tests,
//     batch tools — fail loudly with the forensics attached);
//   * the `on_stall` callback fires on the monitor thread (the service
//     harness uses this to widen degradation — composing with the
//     DegradeController's brownout mode instead of falling over).
//
// The monitor is one background thread per Watchdog, asleep on a
// condition variable between samples; it never touches the container
// and costs nothing on the operation path. It is intentionally NOT a
// hook-point consumer: a livelocked retry loop spins *through* hook
// points, which is exactly why progress must be judged from outside.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace r2d::sched {

/// Thrown by Watchdog::check() after a stall: what() carries the full
/// diagnostic report (counter summary + newest trace entries).
class StallDetected : public std::runtime_error {
 public:
  explicit StallDetected(const std::string& report)
      : std::runtime_error(report) {}
};

/// Host-wide CPU time from the aggregate line of /proc/stat, in ticks:
/// the hypervisor's steal and the total. Zeros where it is unreadable.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  static HostTicks read() {
    HostTicks t;
    std::ifstream stat("/proc/stat");
    std::string label;
    // user nice system idle iowait irq softirq steal
    std::uint64_t field[8] = {};
    if (!(stat >> label) || label != "cpu") return t;
    for (std::uint64_t& f : field) {
      if (!(stat >> f)) return HostTicks{};
      t.total += f;
    }
    t.steal = field[7];
    return t;
  }

  /// Share of host CPU time stolen between two reads; 0 when no tick
  /// elapsed (the counters advance every 10 ms per CPU).
  static double steal_share(const HostTicks& from, const HostTicks& to) {
    return to.total > from.total
               ? static_cast<double>(to.steal - from.steal) /
                     static_cast<double>(to.total - from.total)
               : 0.0;
  }
};

/// How the monitor's sampling window itself went: how late it woke past
/// the deadline, and the host steal share during the window.
struct WindowStats {
  std::chrono::microseconds overshoot{0};
  double steal_share = 0.0;
};

/// Build the stall forensics: the window's overshoot and steal, the obs
/// counter summary, and the newest shift-trace ring entries (the
/// freshest evidence of what the window engine was doing when progress
/// stopped). Public so tests can assert on its shape directly.
inline std::string stall_report(std::uint64_t stuck_at,
                                std::chrono::milliseconds deadline,
                                const WindowStats& window = {},
                                std::size_t newest = 8) {
  std::ostringstream out;
  out << "=== r2d watchdog: no progress (counter stuck at " << stuck_at
      << ") for " << deadline.count() << "ms ===\n"
      << "window: woke " << window.overshoot.count()
      << "us past the deadline, host steal " << window.steal_share * 100.0
      << "%\n";
  obs::write_text(out, obs::metrics().snapshot());
  std::vector<std::string> entries;
  std::size_t index = 0;
  obs::metrics().visit_trace([&](const obs::ShiftEvent& e) {
    std::ostringstream line;
    line << "shift[" << index++ << "] tsc=" << e.tsc << " cause="
         << obs::to_string(e.cause) << " " << e.old_max << " -> "
         << e.new_max << (e.won ? " (won)" : " (lost)");
    entries.push_back(line.str());
  });
  if (entries.empty()) {
    out << "(no shift events recorded)\n";
  } else {
    const std::size_t first =
        entries.size() > newest ? entries.size() - newest : 0;
    for (std::size_t i = first; i < entries.size(); ++i) {
      out << entries[i] << '\n';
    }
  }
  return out.str();
}

class Watchdog {
 public:
  using ProgressFn = std::function<std::uint64_t()>;

  /// Consecutive judged windows without progress that make a stall.
  static constexpr unsigned kStuckWindows = 2;

  struct Config {
    std::chrono::milliseconds deadline{1000};
    /// Sampled before each verdict; true suppresses the stall (nothing
    /// outstanding — a quiet container is not a stuck one). Optional.
    std::function<bool()> idle;
    /// Fired once per stall on the monitor thread, with the report.
    std::function<void(const std::string&)> on_stall;
    bool log_stderr = true;
  };

  Watchdog(ProgressFn progress, Config config)
      : progress_(std::move(progress)), config_(std::move(config)) {
    monitor_ = std::thread([this] { loop(); });
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    monitor_.join();
  }

  bool stalled() const { return stalled_.load(std::memory_order_acquire); }

  std::uint64_t stall_count() const {
    return stall_count_.load(std::memory_order_relaxed);
  }

  std::string last_report() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_report_;
  }

  /// Throw the captured diagnosis on the caller's thread. The flag
  /// stays set — every subsequent check() rethrows until the owner
  /// tears the watchdog down.
  void check() const {
    if (stalled()) throw StallDetected(last_report());
  }

 private:
  void loop() {
    using Clock = std::chrono::steady_clock;
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t last = progress_();
    unsigned stuck = 0;  // consecutive judged windows without progress
    while (!stop_) {
      const Clock::time_point start = Clock::now();
      const HostTicks host_start = HostTicks::read();
      cv_.wait_for(lk, config_.deadline, [this] { return stop_; });
      if (stop_) return;
      const std::uint64_t now = progress_();
      const bool idle = config_.idle && config_.idle();
      const WindowStats window{
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - start - config_.deadline),
          HostTicks::steal_share(host_start, HostTicks::read())};
      // A monitor that woke more than half a deadline late was itself
      // descheduled; the window says nothing about the container.
      const bool late = window.overshoot > config_.deadline / 2;
      if (now != last || idle) {
        stuck = 0;
      } else if (!late) {
        ++stuck;
      }
      if (stuck >= kStuckWindows) {
        stuck = 0;
        const std::string report =
            stall_report(now, config_.deadline * kStuckWindows, window);
        last_report_ = report;
        stalled_.store(true, std::memory_order_release);
        stall_count_.fetch_add(1, std::memory_order_relaxed);
        if (config_.log_stderr) {
          std::fputs(report.c_str(), stderr);
        }
        if (config_.on_stall) {
          lk.unlock();  // user callback must not hold the report lock
          config_.on_stall(report);
          lk.lock();
        }
      }
      last = now;
    }
  }

  ProgressFn progress_;
  Config config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread monitor_;
  std::string last_report_;
  std::atomic<bool> stalled_{false};
  std::atomic<std::uint64_t> stall_count_{0};
  bool stop_ = false;
};

}  // namespace r2d::sched
