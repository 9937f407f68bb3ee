// sched/watchdog.hpp suite + the crash/stall dump-path coverage the
// ISSUE calls out: StallDetected::what() and the fatal-handler output
// must actually contain the obs counter summary and the newest
// shift-trace entries (dump_trace content was previously untested).
#include <unistd.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "core/two_d_queue.hpp"
#include "core/two_d_stack.hpp"
#include "harness/service/degrade.hpp"
#include "harness/service/server.hpp"
#include "harness/service/shed.hpp"
#include "obs/metrics.hpp"
#include "sched/watchdog.hpp"
#include "util/crash_trace.hpp"

namespace {

using r2d::sched::StallDetected;
using r2d::sched::Watchdog;

bool tracing_live() {
  return r2d::obs::kCompiled && r2d::obs::metrics().trace_capacity() > 0;
}

/// Force real window shifts so the process-wide shift-trace rings hold
/// events for the dump assertions below.
void generate_shifts() {
  r2d::TwoDStack<std::uint64_t> stack(r2d::core::TwoDParams{2, 1, 1});
  for (std::uint64_t i = 0; i < 64; ++i) stack.push(i);
  for (std::uint64_t i = 0; i < 64; ++i) stack.pop();
}

/// The newest trace entry's tsc — the marker a "newest entries" dump
/// must contain. nullopt when tracing is off or no events exist.
std::optional<std::uint64_t> newest_trace_tsc() {
  std::optional<std::uint64_t> last;
  r2d::obs::metrics().visit_trace(
      [&](const r2d::obs::ShiftEvent& e) { last = e.tsc; });
  return last;
}

/// dump_trace content (previously untested): real events, rendered with
/// cause and transition.
void check_dump_trace_content() {
  if (!tracing_live()) {
    std::puts("dump_trace content: skipped (tracing off)");
    return;
  }
  generate_shifts();
  std::ostringstream out;
  r2d::obs::metrics().dump_trace(out);
  const std::string text = out.str();
  CHECK(text.find("shift[") != std::string::npos);
  CHECK(text.find("cause=stack-p") != std::string::npos);  // push or pop
  CHECK(text.find(" -> ") != std::string::npos);
}

/// A stalled progress counter must produce StallDetected whose what()
/// carries the counter summary and the newest trace entries.
void check_stall_detection_and_report() {
  generate_shifts();
  Watchdog::Config config;
  config.deadline = std::chrono::milliseconds(25);
  config.log_stderr = false;  // keep the test log clean
  Watchdog dog([] { return std::uint64_t{7}; }, std::move(config));
  for (int spin = 0; spin < 400 && !dog.stalled(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  CHECK(dog.stalled());
  CHECK(dog.stall_count() >= 1);
  bool threw = false;
  try {
    dog.check();
  } catch (const StallDetected& e) {
    threw = true;
    const std::string what = e.what();
    CHECK(what.find("r2d watchdog") != std::string::npos);
    CHECK(what.find("stuck at 7") != std::string::npos);
    CHECK(what.find("past the deadline, host steal") != std::string::npos);
    if (r2d::obs::kCompiled) {
      CHECK(what.find("obs: ops=") != std::string::npos);
    } else {
      CHECK(what.find("obs: compiled out") != std::string::npos);
    }
    if (tracing_live()) {
      const auto tsc = newest_trace_tsc();
      CHECK(tsc.has_value());
      // The newest ring entry, specifically — not just any shift line.
      CHECK(what.find("tsc=" + std::to_string(*tsc)) != std::string::npos);
    }
  }
  CHECK(threw);
}

/// Progress advancing, even only every second window -> never stalls;
/// idle() true -> stall suppressed.
void check_no_false_positives() {
  {
    std::atomic<std::uint64_t> progress{0};
    std::atomic<bool> stop{false};
    std::thread worker([&] {
      while (!stop.load(std::memory_order_acquire)) {
        progress.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    Watchdog::Config config;
    config.deadline = std::chrono::milliseconds(20);
    config.log_stderr = false;
    Watchdog dog(
        [&] { return progress.load(std::memory_order_relaxed); },
        std::move(config));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    CHECK(!dog.stalled());
    stop.store(true, std::memory_order_release);
    worker.join();
  }
  {
    // A starved worker: progress shows up in only every second window
    // (the counter advances on every second read). One stuck window in
    // a row is not a stall.
    std::atomic<std::uint64_t> reads{0};
    Watchdog::Config config;
    config.deadline = std::chrono::milliseconds(10);
    config.log_stderr = false;
    Watchdog dog(
        [&] { return reads.fetch_add(1, std::memory_order_relaxed) / 2; },
        std::move(config));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    CHECK(reads.load(std::memory_order_relaxed) >= 4);
    CHECK(!dog.stalled());
  }
  {
    Watchdog::Config config;
    config.deadline = std::chrono::milliseconds(10);
    config.idle = [] { return true; };  // nothing outstanding
    config.log_stderr = false;
    Watchdog dog([] { return std::uint64_t{0}; }, std::move(config));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    CHECK(!dog.stalled());
  }
}

/// The on_stall callback fires with the report, and force_enter widens
/// the admission gate the way the service harness composes them.
void check_stall_widens_degradation() {
  std::atomic<bool> fired{false};
  std::string seen_report;
  std::mutex report_mu;
  Watchdog::Config config;
  config.deadline = std::chrono::milliseconds(15);
  config.log_stderr = false;
  config.on_stall = [&](const std::string& report) {
    std::lock_guard<std::mutex> lk(report_mu);
    seen_report = report;
    fired.store(true, std::memory_order_release);
  };
  Watchdog dog([] { return std::uint64_t{0}; }, std::move(config));
  for (int spin = 0; spin < 400 && !fired.load(std::memory_order_acquire);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  CHECK(fired.load(std::memory_order_acquire));
  {
    std::lock_guard<std::mutex> lk(report_mu);
    CHECK(seen_report.find("r2d watchdog") != std::string::npos);
  }

  using r2d::harness::service::Admission;
  using r2d::harness::service::DegradeController;
  Admission gate(8);
  DegradeController degrade(gate, 4, 16);
  CHECK_EQ(gate.effective_cap(), std::uint64_t{8});
  degrade.force_enter();
  CHECK(degrade.degraded());
  CHECK_EQ(degrade.entries(), std::uint64_t{1});
  CHECK_EQ(gate.effective_cap(), std::uint64_t{32});
  degrade.force_enter();  // idempotent while degraded
  CHECK_EQ(degrade.entries(), std::uint64_t{1});

  // factor 1 = controller disabled: force_enter must not touch the gate.
  Admission gate_off(8);
  DegradeController degrade_off(gate_off, 1, 16);
  degrade_off.force_enter();
  CHECK(!degrade_off.degraded());
  CHECK_EQ(gate_off.effective_cap(), std::uint64_t{8});
}

/// End-to-end: a healthy service run with the watchdog armed completes,
/// conserves, and reports zero stalls.
void check_service_smoke() {
  using namespace r2d::harness::service;
  ServiceConfig config;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 20000.0;
  config.workers = 2;
  config.duration_ms = 40;
  config.shed_cap = 256;
  config.watchdog_ms = 20;
  r2d::TwoDQueue<Task> queue(r2d::core::TwoDParams{4, 16, 4});
  const ServiceResult result = run_service(queue, config);
  CHECK(result.conserved());
  CHECK_EQ(result.stalls, std::uint64_t{0});
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define R2D_TEST_FORK_OK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define R2D_TEST_FORK_OK 0
#endif
#endif
#ifndef R2D_TEST_FORK_OK
#define R2D_TEST_FORK_OK 1
#endif

/// The fatal-handler path: a crashing child process must emit the obs
/// counter summary + trace entries through the crash hook on stderr.
void check_fatal_handler_dump() {
#if R2D_TEST_FORK_OK
  if (!r2d::obs::kCompiled) {
    std::puts("fatal-handler dump: skipped (obs compiled out)");
    return;
  }
  int fds[2];
  CHECK_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  CHECK(pid >= 0);
  if (pid == 0) {
    // Child: route stderr into the pipe, touch a container so the
    // metrics singleton is live and the rings hold shifts, then die the
    // way a real lock-free bug does.
    close(fds[0]);
    dup2(fds[1], 2);
    r2d::util::install_crash_tracer();
    generate_shifts();
    std::raise(SIGABRT);
    _exit(97);  // not reached
  }
  close(fds[1]);
  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  CHECK(WIFSIGNALED(status));
  CHECK(output.find("=== r2d obs: ops=") != std::string::npos);
  if (tracing_live()) {
    CHECK(output.find("shift tsc=") != std::string::npos);
  }
#else
  std::puts("fatal-handler dump: skipped (sanitizer build)");
#endif
}

}  // namespace

int main() {
  check_dump_trace_content();
  check_stall_detection_and_report();
  check_no_false_positives();
  check_stall_widens_degradation();
  check_service_smoke();
  check_fatal_handler_dump();
  return TEST_MAIN_RESULT();
}
