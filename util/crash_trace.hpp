// Fatal-signal backtraces for the benches.
//
// Lock-free bugs tend to surface as SIGSEGV deep inside a measured loop;
// a symbolized backtrace on stderr turns a silent CI failure into a
// actionable report. Uses the async-signal-unsafe backtrace_symbols_fd only
// on the way down, which is the conventional trade-off.
#pragma once

#include <csignal>
#include <cstdio>
#include <cstdlib>

#if defined(__linux__) || defined(__APPLE__)
#include <execinfo.h>
#include <unistd.h>
#define R2D_HAS_BACKTRACE 1
#else
#define R2D_HAS_BACKTRACE 0
#endif

namespace r2d::util {

namespace detail {

/// Installed by obs::Metrics::get() (obs/metrics.hpp): dumps the
/// metrics snapshot + shift-trace rings to `fd` on the way down. A raw
/// function pointer so this header needs nothing from obs/ (which includes
/// the reclaim headers and must stay above us in the include DAG).
inline void (*metrics_crash_hook)(int fd) = nullptr;

inline void crash_handler(int sig) {
  // Restore default disposition first so a fault inside the handler (or the
  // re-raise below) terminates instead of recursing.
  std::signal(sig, SIG_DFL);
#if R2D_HAS_BACKTRACE
  void* frames[64];
  const int n = backtrace(frames, 64);
  const char msg[] = "\n=== r2d crash tracer: fatal signal, backtrace ===\n";
  ssize_t ignored = write(STDERR_FILENO, msg, sizeof(msg) - 1);
  (void)ignored;
  backtrace_symbols_fd(frames, n, STDERR_FILENO);
#endif
  // Post-mortem state, not just a stack: counters + the window-shift trace
  // ring (when metrics are compiled in and enabled).
  if (metrics_crash_hook != nullptr) metrics_crash_hook(STDERR_FILENO);
  std::raise(sig);
}

}  // namespace detail

/// Install handlers for the fatal signals a broken lock-free structure
/// raises. Idempotent; safe to call from every main().
inline void install_crash_tracer() {
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGILL, SIGFPE}) {
    std::signal(sig, &detail::crash_handler);
  }
}

}  // namespace r2d::util
