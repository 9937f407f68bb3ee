// The task-dispatch server: any r2d:: container as the run-queue of an
// open-loop service, with coordinated-omission-safe response times.
//
// Topology: ONE generator thread walks an ArrivalProcess schedule
// (arrival.hpp), admits or sheds each arrival (shed.hpp), and pushes
// admitted tasks into the container; `workers` threads pop tasks, spin a
// fixed synthetic service time, and record the response. Worker threads
// may be long-lived (the default) or spawned per request
// (R2D_SPAWN_WORKERS=1): each dispatcher then runs every pop + service on
// a fresh short-lived thread, the thread-pool-per-request shape that
// churns reclaimer/allocator slot leases — the E15 churn experiment, with
// the container's slot high-water mark reported in the result. The
// generator is strictly open-loop: it sleeps/spins until each task's *intended*
// timestamp and then moves on regardless of what the server side is doing
// — if it ever falls behind wall-clock (a push stalled), it does not
// re-space the schedule; it pushes immediately and keeps the original
// intents, which is precisely the coordinated-omission discipline.
//
// Response time of a task = completion wall time − intended arrival time.
// That charges queueing delay, shed-pressure backoff, and every window
// sweep to the task that actually waited, where a closed-loop bench would
// silently excuse them. Quantiles (p50/p99/p999) come from the harness's
// log-linear Histogram, and each result carries the SLO violation count
// against ServiceConfig::slo_us.
//
// Unfairness (the rank-error bound made user-visible): tasks are stamped
// with their admission sequence number; when a worker serves task s while
// some task s' > s was already served, the difference max_served − s is
// the task's *displacement* — how many admissions overtook it, in
// admission order. A FIFO queue keeps displacement near the worker count;
// a relaxed container's displacement tracks its k bound; a LIFO stack
// under sustained load lets it grow without bound. The result reports the
// mean and max so BENCH_service rows can put a number next to Theorem 1.
//
// The container type only needs push/pop or enqueue/dequeue on Task
// (detected below), so TwoDBag, TwoDStack, TwoDQueue, and the strict
// baselines all drop in unmodified.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "harness/latency.hpp"
#include "harness/service/arrival.hpp"
#include "harness/service/degrade.hpp"
#include "harness/service/shed.hpp"
#include "harness/workload.hpp"
#include "sched/watchdog.hpp"

namespace r2d::harness::service {

/// One dispatched unit of work. Default-constructible so queue nodes can
/// hold it; trivially copyable so it moves through any container cheaply.
struct Task {
  std::uint64_t intended_ns = 0;  ///< intended arrival, ns from run origin
  std::uint64_t seq = 0;          ///< admission sequence number
};

struct ServiceConfig {
  ArrivalConfig arrival;
  unsigned workers = 2;
  std::uint64_t duration_ms = 100;  ///< length of the arrival *schedule*
  std::uint64_t shed_cap = 1024;    ///< admission bound (R2D_SHED_CAP)
  std::uint64_t slo_us = 1000;      ///< response-time SLO (R2D_SLO_US)
  std::uint64_t service_ns = 500;   ///< synthetic per-task service time
  /// Spawn a fresh thread per dispatched request instead of reusing the
  /// worker (R2D_SPAWN_WORKERS): the slot-lease churn workload. Reuse is
  /// a throughput choice, not a slot-cap necessity (DESIGN.md §13).
  bool spawn_per_request = false;
  /// Overload-degradation knobs (DESIGN.md §15; harness/service/degrade.hpp).
  /// The defaults — no retries, no deadline, factor 1 — reproduce the
  /// pre-PR-9 admit-or-shed behavior exactly.
  RetryPolicy retry;
  std::uint64_t degrade_factor = 1;    ///< R2D_DEGRADE_FACTOR; 1 = off
  std::uint64_t degrade_window = 256;  ///< R2D_DEGRADE_WINDOW, arrivals
  /// Stall watchdog deadline (R2D_WATCHDOG_MS; 0 = off): a background
  /// monitor samples completions, and two consecutive deadlines with no
  /// progress while tasks are outstanding dump obs forensics and force the
  /// DegradeController into degraded mode (sched/watchdog.hpp).
  std::uint64_t watchdog_ms = 0;

  /// Lift the Workload arrival knobs into a service run shape.
  static ServiceConfig from_workload(const Workload& w) {
    ServiceConfig c;
    c.arrival = ArrivalConfig::from_env();
    c.arrival.kind = arrival_kind_from(w.arrival);
    c.arrival.rate = w.offered_load;
    c.workers = std::max(1u, w.threads);
    c.duration_ms = w.duration_ms;
    c.shed_cap = w.shed_cap;
    c.slo_us = w.slo_us;
    c.service_ns = util::env_u64("R2D_SERVICE_NS", c.service_ns);
    c.spawn_per_request = util::env_u64("R2D_SPAWN_WORKERS", 0) != 0;
    c.retry = RetryPolicy::from_env();
    c.degrade_factor = util::env_u64("R2D_DEGRADE_FACTOR", 1);
    c.degrade_window = util::env_u64("R2D_DEGRADE_WINDOW", 256);
    c.watchdog_ms = util::env_u64("R2D_WATCHDOG_MS", 0);
    return c;
  }
};

struct ServiceResult {
  std::uint64_t generated = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;  ///< deadline passed while retrying admission
  std::uint64_t retries = 0;    ///< admission retries across all arrivals
  std::uint64_t degraded_entries = 0;  ///< times the cap was widened
  bool degraded = false;               ///< any degraded period occurred
  std::uint64_t stalls = 0;            ///< watchdog no-progress verdicts
  std::uint64_t completed = 0;
  Histogram response;               ///< ns from intended arrival
  std::uint64_t slo_violations = 0;
  std::uint64_t displacement_sum = 0;
  std::uint64_t displacement_max = 0;
  std::uint64_t threads_spawned = 0;  ///< ephemeral workers (spawn mode)
  std::size_t slot_hwm = 0;  ///< container slot high-water mark, if leased
  double seconds = 0.0;             ///< wall time, generator start -> drain

  /// The conservation law the harness exists to check: every arrival got
  /// exactly one disposition (admitted, shed, or timed out), and every
  /// admitted task was completed (post-drain). Retries don't appear: one
  /// arrival retried N times is still one disposition.
  bool conserved() const {
    return generated == admitted + shed + timed_out &&
           admitted == completed && response.count() == completed;
  }

  double p50_us() const { return response.quantile(0.50) / 1e3; }
  double p99_us() const { return response.quantile(0.99) / 1e3; }
  double p999_us() const { return response.quantile(0.999) / 1e3; }
  double shed_rate() const {
    return generated == 0 ? 0.0
                          : static_cast<double>(shed) /
                                static_cast<double>(generated);
  }
  double slo_violation_rate() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(slo_violations) /
                                static_cast<double>(completed);
  }
  double mean_displacement() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(displacement_sum) /
                                static_cast<double>(completed);
  }
  double completed_rate() const {
    return seconds == 0.0 ? 0.0 : static_cast<double>(completed) / seconds;
  }
};

namespace detail {

/// Uniform container surface: push/pop (stack, bag, strict baselines) or
/// enqueue/dequeue (queue) — whichever the type has.
template <typename Q>
inline void dispatch_push(Q& queue, Task task) {
  if constexpr (requires { queue.push(task); }) {
    queue.push(task);
  } else {
    queue.enqueue(task);
  }
}

template <typename Q>
inline std::optional<Task> dispatch_pop(Q& queue) {
  if constexpr (requires { queue.pop(); }) {
    return queue.pop();
  } else {
    return queue.dequeue();
  }
}

/// Spin the synthetic service time (too short for sleep syscalls).
inline void spin_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Wait out one backoff interval: spin for short delays, sleep once the
/// interval is long enough that burning a core would distort the run.
inline void backoff_wait(std::uint64_t ns) {
  if (ns > 100'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  } else {
    spin_ns(ns);
  }
}

}  // namespace detail

/// Run one open-loop service scenario against `queue`. Blocks until the
/// schedule is exhausted AND every admitted task has been served (drain),
/// so the returned counters can satisfy admitted == completed exactly.
template <typename Queue>
ServiceResult run_service(Queue& queue, const ServiceConfig& config) {
  using Clock = std::chrono::steady_clock;

  Admission admission(config.shed_cap);
  ArrivalProcess arrivals(config.arrival);
  std::atomic<bool> generator_done{false};
  std::atomic<std::uint64_t> max_served{0};
  const std::uint64_t horizon_ns = config.duration_ms * 1'000'000ull;
  const std::uint64_t slo_ns = config.slo_us * 1'000ull;

  struct alignas(64) WorkerStats {
    Histogram response;
    std::uint64_t slo_violations = 0;
    std::uint64_t displacement_sum = 0;
    std::uint64_t displacement_max = 0;
    std::uint64_t threads_spawned = 0;
  };
  std::vector<WorkerStats> stats(config.workers);
  std::uint64_t generated = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t degraded_entries = 0;

  const auto origin = Clock::now();

  // Stall watchdog (sched/watchdog.hpp): progress = completions; idle
  // while nothing is outstanding (the gate's counters are atomics, safe
  // to sample from the monitor thread). On a stall it dumps forensics
  // to stderr and raises a flag the generator converts into forced
  // degradation at its next arrival.
  std::atomic<bool> stall_flag{false};
  std::unique_ptr<sched::Watchdog> watchdog;
  if (config.watchdog_ms != 0) {
    sched::Watchdog::Config wd;
    wd.deadline = std::chrono::milliseconds(config.watchdog_ms);
    wd.idle = [&admission] {
      return admission.admitted() == admission.completed();
    };
    wd.on_stall = [&stall_flag](const std::string&) {
      stall_flag.store(true, std::memory_order_release);
    };
    watchdog = std::make_unique<sched::Watchdog>(
        [&admission] { return admission.completed(); }, std::move(wd));
  }

  std::thread generator([&] {
    const RetryPolicy retry = config.retry;
    DegradeController degrade(admission, config.degrade_factor,
                              config.degrade_window);
    std::uint64_t seq = 0;
    while (true) {
      const std::uint64_t intended = arrivals.next_ns();
      if (intended >= horizon_ns) break;
      // Pace to the intent: sleep for the bulk of a long gap, spin the
      // rest. If we are already past the intent (the open-loop case of
      // interest), fall straight through — the schedule is never
      // re-spaced.
      const auto due = origin + std::chrono::nanoseconds(intended);
      auto now = Clock::now();
      if (due - now > std::chrono::microseconds(200)) {
        std::this_thread::sleep_for(due - now -
                                    std::chrono::microseconds(100));
      }
      while (Clock::now() < due) {
      }
      ++generated;
      // Admission with bounded retry under a per-request deadline
      // (degrade.hpp). Time spent backing off makes later arrivals late —
      // they are pushed immediately, never re-spaced — so the open-loop
      // coordinated-omission discipline survives retrying. The deadline
      // is measured from the *intended* arrival, charging the request the
      // time it actually spent waiting for the gate.
      bool acquired = admission.try_acquire();
      bool deadline_hit = false;
      if (!acquired && retry.max_retries > 0) {
        Backoff backoff(retry.backoff_ns,
                        0x9E3779B97F4A7C15ull ^ generated);
        const auto deadline =
            due + std::chrono::microseconds(retry.deadline_us);
        for (std::uint32_t r = 0; r < retry.max_retries; ++r) {
          if (retry.deadline_us != 0 && Clock::now() >= deadline) {
            deadline_hit = true;
            break;
          }
          detail::backoff_wait(backoff.next_ns());
          ++retries_total;
          if ((acquired = admission.try_acquire())) break;
        }
        if (!acquired && !deadline_hit && retry.deadline_us != 0 &&
            Clock::now() >= deadline) {
          deadline_hit = true;
        }
      }
      // A watchdog stall verdict forces degraded mode immediately: the
      // service keeps absorbing arrivals at the widened cap instead of
      // shedding everything behind a wedged container.
      if (stall_flag.exchange(false, std::memory_order_acq_rel)) {
        degrade.force_enter();
      }
      if (acquired) {
        try {
          detail::dispatch_push(queue, Task{intended, seq++});
        } catch (...) {
          // OOM (or slot exhaustion) pushing into the run queue: the task
          // was never visible to a worker, so roll the admission back and
          // settle the arrival as shed — conservation holds exactly.
          admission.abandon();
        }
      } else if (deadline_hit) {
        admission.count_timed_out();
      } else {
        admission.count_shed();
      }
      degrade.record(!acquired);
    }
    degraded_entries = degrade.entries();
    generator_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> workers;
  workers.reserve(config.workers);
  for (unsigned t = 0; t < config.workers; ++t) {
    workers.emplace_back([&, t] {
      WorkerStats& local = stats[t];
      // In spawn-per-request mode the dispatcher hands every pop AND its
      // service spin to a fresh short-lived thread — so the container's
      // per-thread slots (reclaimer + allocator) churn at request rate.
      // The dispatcher keeps the bookkeeping: stats are read only after
      // the join.
      auto mode_pop = [&]() -> std::optional<Task> {
        if (!config.spawn_per_request) return detail::dispatch_pop(queue);
        std::optional<Task> popped;
        std::thread([&] {
          popped = detail::dispatch_pop(queue);
          if (popped) detail::spin_ns(config.service_ns);
        }).join();
        ++local.threads_spawned;
        return popped;
      };
      while (true) {
        std::optional<Task> task = mode_pop();
        if (!task) {
          if (generator_done.load(std::memory_order_acquire)) {
            // No new pushes can arrive after generator_done; one more pop
            // closes the race between our empty probe and the flag store.
            task = mode_pop();
            if (!task) break;
          } else if (config.spawn_per_request) {
            // Sleeping (not yielding) bounds the empty-probe spawn rate.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          } else {
            std::this_thread::yield();
            continue;
          }
        }
        if (!config.spawn_per_request) detail::spin_ns(config.service_ns);
        const auto now = Clock::now();
        const std::uint64_t elapsed = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin)
                .count());
        // Pacing guarantees push time >= intended, so elapsed > intended;
        // the guard only shields against a pathological clock.
        const std::uint64_t response_ns =
            elapsed > task->intended_ns ? elapsed - task->intended_ns : 0;
        local.response.add(response_ns);
        if (response_ns > slo_ns) ++local.slo_violations;
        // Admission-order displacement: how many later admissions were
        // already served when this task finally ran.
        std::uint64_t seen = max_served.load(std::memory_order_relaxed);
        while (seen < task->seq &&
               !max_served.compare_exchange_weak(seen, task->seq,
                                                 std::memory_order_relaxed)) {
        }
        if (seen > task->seq) {
          const std::uint64_t displacement = seen - task->seq;
          local.displacement_sum += displacement;
          if (displacement > local.displacement_max) {
            local.displacement_max = displacement;
          }
        }
        admission.complete();
      }
    });
  }

  generator.join();
  for (std::thread& w : workers) w.join();

  ServiceResult result;
  if (watchdog) result.stalls = watchdog->stall_count();
  result.generated = generated;
  result.admitted = admission.admitted();
  result.shed = admission.shed();
  result.timed_out = admission.timed_out();
  result.retries = retries_total;
  result.degraded_entries = degraded_entries;
  result.degraded = degraded_entries > 0;
  result.completed = admission.completed();
  result.seconds =
      std::chrono::duration<double>(Clock::now() - origin).count();
  for (const WorkerStats& s : stats) {
    result.response.merge(s.response);
    result.slo_violations += s.slo_violations;
    result.displacement_sum += s.displacement_sum;
    if (s.displacement_max > result.displacement_max) {
      result.displacement_max = s.displacement_max;
    }
    result.threads_spawned += s.threads_spawned;
  }
  if constexpr (requires { queue.slot_hwm(); }) {
    result.slot_hwm = queue.slot_hwm();
  }
  return result;
}

}  // namespace r2d::harness::service
