// The rank-error quality oracle.
//
// Methodology: every operation takes a ticket from a shared counter — a
// push immediately BEFORE it executes, a pop immediately AFTER it returns
// — so a popped label's push ticket always precedes its pop ticket in real
// time. Replaying the ticket-ordered log against an ideal structure then
// yields each pop's rank error: for LIFO, the number of still-live items
// pushed more recently than the popped one (0 for a strict stack); for
// FIFO, the number of still-live items enqueued earlier; for a deque, the
// popped item's distance from whichever end the pop used (each event's
// `front` flag records the end). The replay uses a Fenwick tree over push
// order, so a multi-million-event log replays in O(n log n).
//
// The ticket interleaving approximates the linearization, which is the
// standard methodology for measuring relaxed-structure quality; the
// guarantee above means a pop can never replay before its push. The
// closed-loop runners (harness/runner.hpp) stamp a push on both sides and
// keep the post-return stamp unless the item's pop stamped earlier, which
// keeps that guarantee while leaving a preempted push's item out of the
// replay's live set until the push really lands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace r2d::quality {

struct Event {
  std::uint64_t ticket;
  std::uint64_t label;
  bool is_push;
  /// Which end the operation used; only meaningful under Order::kDeque
  /// (LIFO/FIFO replays ignore it).
  bool front = false;
};

class ErrorStats {
 public:
  void add(double error) {
    sum_ += error;
    max_ = std::max(max_, error);
    ++count_;
  }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double max() const { return max_; }
  std::uint64_t count() const { return count_; }

 private:
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

namespace detail {

class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}
  void add(std::size_t i, int delta) {  // 1-based
    for (; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
  }
  std::int64_t prefix(std::size_t i) const {  // sum of [1..i]
    std::int64_t s = 0;
    for (; i > 0; i -= i & (~i + 1)) s += tree_[i];
    return s;
  }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace detail

enum class Order { kLifo, kFifo, kDeque };

struct ReplayResult {
  ErrorStats errors;
  std::uint64_t unknown_labels = 0;
};

namespace detail {

/// Deque replay: items live on a line, front pushes extending it leftward
/// and back pushes rightward; a pop's rank error is the number of
/// still-live items strictly between the popped item and the end the pop
/// used (0 for every pop of a strict deque replayed single-threaded).
/// Positions are preassigned by counting front pushes, so one Fenwick tree
/// over positions answers both ends' distances.
inline ReplayResult replay_deque(const std::vector<Event>& events,
                                 bool truncated) {
  std::size_t pushes = 0;
  std::size_t front_pushes = 0;
  for (const Event& e : events) {
    if (e.is_push) {
      ++pushes;
      front_pushes += e.front ? 1 : 0;
    }
  }

  ReplayResult result;
  Fenwick live(pushes);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(pushes);
  std::size_t next_front = front_pushes;      // assigned descending: 1-based
  std::size_t next_back = front_pushes + 1;   // assigned ascending
  std::int64_t alive = 0;
  for (const Event& e : events) {
    if (e.is_push) {
      const std::size_t idx = e.front ? next_front-- : next_back++;
      index_of[e.label] = idx;
      live.add(idx, 1);
      ++alive;
      continue;
    }
    const auto it = index_of.find(e.label);
    if (it == index_of.end()) {
      if (!truncated) ++result.unknown_labels;
      continue;
    }
    const std::size_t idx = it->second;
    const std::int64_t below = live.prefix(idx);  // includes the item
    const double error = e.front
                             ? static_cast<double>(below - 1)
                             : static_cast<double>(alive - below);
    result.errors.add(error);
    live.add(idx, -1);
    --alive;
    index_of.erase(it);
  }
  return result;
}

}  // namespace detail

/// Replay a ticket-ordered event log. `truncated` suppresses unknown-label
/// accounting (a truncated log legitimately misses pushes).
inline ReplayResult replay(std::vector<Event> events, Order order,
                           bool truncated = false) {
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.ticket < b.ticket; });
  if (order == Order::kDeque) return detail::replay_deque(events, truncated);
  std::size_t pushes = 0;
  for (const Event& e : events) pushes += e.is_push ? 1 : 0;

  ReplayResult result;
  detail::Fenwick live(pushes);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(pushes);
  std::size_t next_index = 0;
  std::int64_t alive = 0;
  for (const Event& e : events) {
    if (e.is_push) {
      const std::size_t idx = ++next_index;  // 1-based, dense push order
      index_of[e.label] = idx;
      live.add(idx, 1);
      ++alive;
      continue;
    }
    const auto it = index_of.find(e.label);
    if (it == index_of.end()) {
      if (!truncated) ++result.unknown_labels;
      continue;
    }
    const std::size_t idx = it->second;
    const std::int64_t below = live.prefix(idx);  // includes the item
    const double error = order == Order::kLifo
                             ? static_cast<double>(alive - below)
                             : static_cast<double>(below - 1);
    result.errors.add(error);
    live.add(idx, -1);
    --alive;
    index_of.erase(it);
  }
  return result;
}

/// Wrap a queue so concurrent enqueue/dequeue build a ticket log, replayed
/// lazily against FIFO order by errors()/unknown_labels(). The log append
/// is mutex-serialized (exact ticket order); the queue operations
/// themselves run outside the lock. Logging stops at the event cap —
/// quality numbers then cover the logged prefix.
template <typename Queue>
class InstrumentedQueue {
 public:
  explicit InstrumentedQueue(Queue& queue, std::uint64_t max_events = 1u << 21)
      : queue_(queue), max_events_(max_events) {
    events_.reserve(std::min<std::uint64_t>(max_events, 1u << 20));
  }

  void enqueue(std::uint64_t label) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (events_.size() < max_events_) {
        events_.push_back(Event{next_ticket_++, label, true});
      } else {
        truncated_ = true;
      }
    }
    queue_.enqueue(label);
  }

  std::optional<std::uint64_t> dequeue() {
    auto value = queue_.dequeue();
    if (value) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (events_.size() < max_events_) {
        events_.push_back(Event{next_ticket_++, *value, false});
      } else {
        truncated_ = true;
      }
    }
    return value;
  }

  const ErrorStats& errors() {
    ensure_replayed();
    return result_.errors;
  }

  std::uint64_t unknown_labels() {
    ensure_replayed();
    return result_.unknown_labels;
  }

 private:
  void ensure_replayed() {
    if (replayed_) return;
    result_ = replay(std::move(events_), Order::kFifo, truncated_);
    events_.clear();
    replayed_ = true;
  }

  Queue& queue_;
  const std::uint64_t max_events_;
  std::mutex mutex_;
  std::vector<Event> events_;
  std::uint64_t next_ticket_ = 0;
  bool truncated_ = false;
  bool replayed_ = false;
  ReplayResult result_;
};

}  // namespace r2d::quality
