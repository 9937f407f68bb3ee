// Measurement runners: run_throughput and run_quality.
//
// Both drive N workers over the concept-checked push/pop surface with the
// same phase structure: per-thread prefill, a start barrier, a timed
// measurement region, a stop flag. Throughput runs count operations;
// quality runs additionally build the ticket log harness/quality.hpp
// replays into rank errors.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/substack.hpp"  // hop_rand
#include "harness/quality.hpp"
#include "harness/workload.hpp"
#include "util/affinity.hpp"

namespace r2d::harness {

/// The shape every measurable structure exposes (DESIGN.md §2): move-in
/// push, optional-out pop, a racy empty probe.
template <typename S>
concept RelaxedStack = requires(S s, typename S::value_type v) {
  typename S::value_type;
  s.push(std::move(v));
  { s.pop() } -> std::same_as<std::optional<typename S::value_type>>;
  { s.empty() } -> std::convertible_to<bool>;
};

/// The double-ended variant (TwoDDeque, on either column backend —
/// DESIGN.md §11): push/pop at either end, same racy empty probe.
/// Workload::front_ratio picks the end per operation.
template <typename D>
concept RelaxedDeque = requires(D d, typename D::value_type v) {
  typename D::value_type;
  d.push_front(std::move(v));
  d.push_back(std::move(v));
  { d.pop_front() } -> std::same_as<std::optional<typename D::value_type>>;
  { d.pop_back() } -> std::same_as<std::optional<typename D::value_type>>;
  { d.empty() } -> std::convertible_to<bool>;
};

/// Per-thread label generator: unique across threads (thread id in the
/// high bits), dense within one.
class LabelSequence {
 public:
  explicit LabelSequence(unsigned thread_id)
      : next_((static_cast<std::uint64_t>(thread_id) + 1) << 40) {}
  std::uint64_t operator()() { return next_++; }

 private:
  std::uint64_t next_;
};

/// Bernoulli(p) draw from the shared per-thread generator.
inline bool bernoulli(double p) {
  return static_cast<double>(core::hop_rand() >> 11) <
         p * 9007199254740992.0;  // 2^53
}

/// Bernoulli(push_ratio) draw from the shared per-thread generator.
inline bool choose_push(double push_ratio) { return bernoulli(push_ratio); }

struct ThroughputResult {
  double mops = 0.0;          ///< million operations per second, all threads
  double seconds = 0.0;
  std::uint64_t total_ops = 0;
};

struct QualityResult {
  double mean_error = 0.0;
  double max_error = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t unknown_labels = 0;
};

namespace detail {

/// Shared run skeleton: prefill -> barrier -> body(t) until stop -> join.
/// The timed window closes only after every worker has completed one
/// body(t) call, so a run whose workers got no CPU after the start gun
/// (a loaded host, a short duration) still measures something instead of
/// nothing. Returns the measured wall-clock interval: start gun to last
/// join (ops are counted until each worker observes stop, so the join
/// tail belongs in the denominator).
template <typename Prefill, typename Body>
std::pair<std::chrono::steady_clock::time_point,
          std::chrono::steady_clock::time_point>
drive(const Workload& w, std::atomic<bool>& stop, Prefill prefill,
      Body body) {
  const unsigned threads = std::max(1u, w.threads);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads) + 1);
  std::atomic<unsigned> ran{0};  // workers past their first body(t)
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (w.pin_threads) util::pin_worker(t);
      prefill(t);
      sync.arrive_and_wait();  // prefill complete
      sync.arrive_and_wait();  // start gun
      body(t);
      ran.fetch_add(1, std::memory_order_relaxed);
      while (!stop.load(std::memory_order_relaxed)) body(t);
    });
  }
  sync.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  sync.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(w.duration_ms));
  while (ran.load(std::memory_order_relaxed) < threads) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  return {start, std::chrono::steady_clock::now()};
}

inline std::uint64_t prefill_share(const Workload& w, unsigned t) {
  const unsigned threads = std::max(1u, w.threads);
  return w.prefill / threads + (t < w.prefill % threads ? 1 : 0);
}

/// Shared throughput accounting over drive(): `prefill(t, labels)` seeds
/// the structure, `op(labels)` performs one measured operation. The
/// stack and deque runners differ only in these two callbacks, so the
/// counter/timing logic cannot drift between them.
template <typename Prefill, typename Op>
ThroughputResult measure_throughput(const Workload& w, Prefill prefill,
                                    Op op) {
  const unsigned threads = std::max(1u, w.threads);
  std::atomic<bool> stop{false};
  struct alignas(64) Counter {
    std::uint64_t ops = 0;
  };
  std::vector<Counter> counters(threads);
  std::vector<LabelSequence> labels;
  labels.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) labels.emplace_back(t);

  const auto [t0, t1] = drive(
      w, stop, [&](unsigned t) { prefill(t, labels[t]); },
      [&](unsigned t) {
        op(labels[t]);
        ++counters[t].ops;
      });

  ThroughputResult r;
  r.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  for (const Counter& c : counters) r.total_ops += c.ops;
  r.mops = r.seconds > 0 ? static_cast<double>(r.total_ops) / 1e6 / r.seconds
                         : 0.0;
  return r;
}

/// One worker's ticket tape. Every operation stamps the shared ticket
/// counter as close to its linearization point as the caller can see:
/// a pop right after it returns; a push both right before it starts
/// (`invoke`) and right after it returns (`ticket`). The response stamp
/// is the tighter one — for a CAS-based push only the return path
/// separates it from the linearizing CAS, while the invoke stamp precedes
/// the whole allocate / CAS-retry loop, so a worker preempted in that loop would otherwise
/// leave its item "live" in the replay for the whole preemption. The
/// invoke stamp is kept as the fallback settle_push_tickets() needs when
/// a racing pop returns and stamps before the push does. The event is
/// appended only after the operation's last stamp, so a log write that
/// page-faults never widens a stamp-to-linearization window.
class TicketTape {
 public:
  struct Entry {
    quality::Event event;
    std::uint64_t invoke = 0;  ///< pushes: the pre-push stamp
  };

  TicketTape(std::atomic<std::uint64_t>& clock, std::vector<Entry>& log)
      : clock_(clock), log_(log) {}

  /// Run `op` (which must push `label`) between two stamps.
  template <typename Op>
  void push(std::uint64_t label, bool front, Op&& op) {
    const std::uint64_t invoke = stamp();
    std::forward<Op>(op)();
    const std::uint64_t response = stamp();
    log_.push_back(Entry{quality::Event{response, label, true, front}, invoke});
  }

  /// Record a pop that has just returned `label`.
  void popped(std::uint64_t label, bool front) {
    const std::uint64_t response = stamp();
    log_.push_back(Entry{quality::Event{response, label, false, front}, 0});
  }

 private:
  std::uint64_t stamp() {
    return clock_.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t>& clock_;
  std::vector<Entry>& log_;
};

/// Turn merged tapes into replayable events: each push keeps its response
/// stamp unless its item's pop stamped earlier, in which case it falls
/// back to its invoke stamp — which precedes the push's linearization,
/// hence the pop's, hence the pop's stamp. Either way a label's push
/// ticket precedes its pop ticket, so no pop replays before its push.
inline std::vector<quality::Event> settle_push_tickets(
    std::vector<TicketTape::Entry> entries) {
  std::unordered_map<std::uint64_t, std::uint64_t> pop_ticket;
  pop_ticket.reserve(entries.size() / 2 + 1);
  for (const TicketTape::Entry& e : entries) {
    if (!e.event.is_push) pop_ticket.emplace(e.event.label, e.event.ticket);
  }
  std::vector<quality::Event> events;
  events.reserve(entries.size());
  for (const TicketTape::Entry& e : entries) {
    quality::Event event = e.event;
    if (event.is_push) {
      const auto it = pop_ticket.find(event.label);
      if (it != pop_ticket.end() && it->second < event.ticket) {
        event.ticket = e.invoke;
      }
    }
    events.push_back(event);
  }
  return events;
}

/// Shared quality accounting: per-thread ticket tapes with the standard
/// event budget (the run ends early when any thread fills its log, so
/// replay memory stays bounded), merged, settled and replayed against
/// `order`. `prefill(t, labels, tape)` and `op(labels, tape)` perform the
/// operations through TicketTape::push / TicketTape::popped.
template <typename Prefill, typename Op>
QualityResult measure_quality(const Workload& w, quality::Order order,
                              Prefill prefill, Op op) {
  const unsigned threads = std::max(1u, w.threads);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ticket{0};
  std::vector<std::vector<TicketTape::Entry>> logs(threads);
  std::vector<std::uint64_t> budgets(threads);
  std::vector<LabelSequence> labels;
  labels.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    labels.emplace_back(t);
    budgets[t] = prefill_share(w, t) + w.quality_events;
  }

  drive(
      w, stop,
      [&](unsigned t) {
        logs[t].reserve(budgets[t] + 1);
        TicketTape tape(ticket, logs[t]);
        prefill(t, labels[t], tape);
      },
      [&](unsigned t) {
        TicketTape tape(ticket, logs[t]);
        op(labels[t], tape);
        if (logs[t].size() >= budgets[t]) {
          stop.store(true, std::memory_order_relaxed);
        }
      });

  std::size_t total = 0;
  for (const auto& log : logs) total += log.size();
  std::vector<TicketTape::Entry> entries;
  entries.reserve(total);
  for (auto& log : logs) {
    entries.insert(entries.end(), log.begin(), log.end());
    log.clear();
    log.shrink_to_fit();
  }
  const quality::ReplayResult replayed =
      quality::replay(settle_push_tickets(std::move(entries)), order);

  QualityResult q;
  q.mean_error = replayed.errors.mean();
  q.max_error = replayed.errors.max();
  q.samples = replayed.errors.count();
  q.unknown_labels = replayed.unknown_labels;
  return q;
}

}  // namespace detail

template <RelaxedStack Stack>
ThroughputResult run_throughput(Stack& stack, const Workload& w) {
  return detail::measure_throughput(
      w,
      [&](unsigned t, LabelSequence& labels) {
        const std::uint64_t share = detail::prefill_share(w, t);
        for (std::uint64_t i = 0; i < share; ++i) stack.push(labels());
      },
      [&](LabelSequence& labels) {
        if (choose_push(w.push_ratio)) {
          stack.push(labels());
        } else {
          stack.pop();
        }
      });
}

/// Quality pass: same workload, plus the ticket log (see
/// detail::measure_quality for the budget rules).
template <RelaxedStack Stack>
QualityResult run_quality(Stack& stack, const Workload& w) {
  return detail::measure_quality(
      w, quality::Order::kLifo,
      [&](unsigned t, LabelSequence& labels, detail::TicketTape& tape) {
        const std::uint64_t share = detail::prefill_share(w, t);
        for (std::uint64_t i = 0; i < share; ++i) {
          const std::uint64_t label = labels();
          tape.push(label, /*front=*/false, [&] { stack.push(label); });
        }
      },
      [&](LabelSequence& labels, detail::TicketTape& tape) {
        if (choose_push(w.push_ratio)) {
          const std::uint64_t label = labels();
          tape.push(label, /*front=*/false, [&] { stack.push(label); });
        } else if (const auto value = stack.pop()) {
          tape.popped(static_cast<std::uint64_t>(*value), /*front=*/false);
        }
      });
}

/// Deque throughput: the standard workload with the end of each operation
/// drawn from front_ratio. Prefill uses push_back so the prefilled state is
/// one FIFO run.
template <RelaxedDeque Deque>
ThroughputResult run_throughput_deque(Deque& deque, const Workload& w) {
  return detail::measure_throughput(
      w,
      [&](unsigned t, LabelSequence& labels) {
        const std::uint64_t share = detail::prefill_share(w, t);
        for (std::uint64_t i = 0; i < share; ++i) deque.push_back(labels());
      },
      [&](LabelSequence& labels) {
        const bool front = bernoulli(w.front_ratio);
        if (choose_push(w.push_ratio)) {
          if (front) {
            deque.push_front(labels());
          } else {
            deque.push_back(labels());
          }
        } else if (front) {
          deque.pop_front();
        } else {
          deque.pop_back();
        }
      });
}

/// Deque quality pass: the ticket log records which end each operation
/// used, and the replay (quality::Order::kDeque) scores each pop by its
/// distance from that end.
template <RelaxedDeque Deque>
QualityResult run_quality_deque(Deque& deque, const Workload& w) {
  return detail::measure_quality(
      w, quality::Order::kDeque,
      [&](unsigned t, LabelSequence& labels, detail::TicketTape& tape) {
        const std::uint64_t share = detail::prefill_share(w, t);
        for (std::uint64_t i = 0; i < share; ++i) {
          const std::uint64_t label = labels();
          tape.push(label, /*front=*/false, [&] { deque.push_back(label); });
        }
      },
      [&](LabelSequence& labels, detail::TicketTape& tape) {
        const bool front = bernoulli(w.front_ratio);
        if (choose_push(w.push_ratio)) {
          const std::uint64_t label = labels();
          tape.push(label, front, [&] {
            if (front) {
              deque.push_front(label);
            } else {
              deque.push_back(label);
            }
          });
        } else if (const auto value =
                       front ? deque.pop_front() : deque.pop_back()) {
          tape.popped(static_cast<std::uint64_t>(*value), front);
        }
      });
}

}  // namespace r2d::harness
