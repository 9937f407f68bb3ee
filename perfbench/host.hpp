// Host-side probes for the benchmark: hypervisor steal from /proc/stat,
// per-thread CPU time, minor page faults, and a quantile helper. None of
// this touches the library; it reads the process and the kernel around
// the library's calls.
#pragma once

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/// The aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string tag;
  if (!(in >> tag) || tag != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user, so the first eight fields are the whole).
  std::uint64_t field[8] = {};
  for (std::uint64_t& f : field) in >> f;
  for (const std::uint64_t f : field) t.total += f;
  t.steal = field[7];
  return t;
}

/// Share of all CPU time between two readings that the hypervisor stole.
inline double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

/// CPU seconds a (possibly other) thread has run. Steal is not counted: a
/// guest kernel with steal accounting charges it to no task.
inline double thread_cpu_seconds(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Minor page faults (fresh pages touched) by the whole process so far.
inline std::uint64_t minor_faults() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(xs[lo]) * (1.0 - frac) +
         static_cast<double>(xs[hi]) * frac;
}

/// Quantile of whole-number samples (e.g. nanoseconds), each value v
/// taken as spread evenly over [v - 0.5, v + 0.5), so heavy ties do not
/// pin the result to a whole number.
inline double grouped_quantile(std::vector<std::uint32_t> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double target = q * static_cast<double>(xs.size());
  const std::uint32_t v =
      xs[std::min(static_cast<std::size_t>(target), xs.size() - 1)];
  const auto lo = std::lower_bound(xs.begin(), xs.end(), v);
  const auto hi = std::upper_bound(xs.begin(), xs.end(), v);
  const double below = static_cast<double>(lo - xs.begin());
  return static_cast<double>(v) - 0.5 +
         (target - below) / static_cast<double>(hi - lo);
}

template <typename T>
double median(std::vector<T> xs) {
  return quantile(std::move(xs), 0.5);
}

}  // namespace perfbench
