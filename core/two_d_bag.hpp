// TwoDBag: the 2D window framework instantiated for an unordered bag
// (pool) — the ROADMAP's "deque minus end ordering", and the natural
// scheduling core for the open-loop service harness (harness/service/).
//
// A bag promises multiset semantics only: every put is eventually taken
// exactly once, takes never fail while items exist, and *no* rank-error
// bound is claimed — there is no order to be out of. What the window buys
// instead is balance: a width-array of packed-head Treiber columns under
// one window over per-column flow counts (for a single-ended column the
// flow coordinate puts − takes IS the occupancy, so the packed head count
// from core/substack.hpp is the flow word — the stacks' one-load
// dereference-free probes carry over unchanged). A put is eligible on a
// column whose count is below the window, a take on a column inside the
// band (count > max − depth), so neither side can herd onto one column
// while siblings sit idle or drained — the property a scheduler run-queue
// actually needs from relaxation.
//
// Dropping the order claim unlocks one certification rule the stack
// cannot use: a take whose certified failed sweep found only columns far
// below the band *snaps* the window down to just above the fullest
// column (hi + depth − 1) in one shift, instead of stepping by `shift`
// per certified sweep. The stack must meter window travel — Theorem 1
// prices rank error per shift — but the bag has no such bound to
// preserve, so a take after a deep drain pays one certification scan, not
// (max − hi)/shift of them. Puts keep the paper's monotonic +shift rule
// (that is what spreads them). Emptiness is certified exactly as the
// stack's: count == 0 <=> empty survives the packed-count saturation
// protocol, so a take that certifies every column at zero returns
// nullopt. All of it drives core/window.hpp — one more predicate pair on
// the shared engine, the family argument's third data point.
//
// put/take are also aliased as push/pop so the bag satisfies the
// harness::RelaxedStack concept and drops into every existing runner and
// into harness/service/ unchanged. Reclamation and node storage follow
// the library-wide policy pipeline (DESIGN.md §10; epoch reclamation and
// PoolAlloc storage by default).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/op_status.hpp"
#include "core/params.hpp"
#include "core/substack.hpp"
#include "core/window.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/slot_registry.hpp"  // next_instance_id

namespace r2d {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class TwoDBag {
  using Node = core::StackNode<T>;
  using Column = core::StackColumn<T>;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Node>;

  explicit TwoDBag(core::TwoDParams params)
      : params_(validated(std::move(params))),
        columns_(std::make_unique<Column[]>(params_.width)) {
    window_max_.store(params_.depth, std::memory_order_relaxed);
  }

  TwoDBag(const TwoDBag&) = delete;
  TwoDBag& operator=(const TwoDBag&) = delete;

  ~TwoDBag() {
    for (std::size_t i = 0; i < params_.width; ++i) {
      core::drain_column(columns_[i], alloc_);
    }
  }

  const core::TwoDParams& params() const { return params_; }

  /// Strong exception guarantee (DESIGN.md §15): same contract as the
  /// stack's push — the node is acquired before any shared state is
  /// touched, and a resource failure after the acquire releases the
  /// still-unlinked node before rethrowing.
  void put(T value) {
    Node* node = alloc_.acquire(nullptr, std::move(value));
    try {
      // Fast path: one probe of the thread's preferred column — identical
      // to the stack's push fast path (same coordinate, same predicate).
      const std::uint64_t max = window_max_.load(std::memory_order_acquire);
      const std::size_t index = preferred_index();
      Column& column = columns_[index];
      std::uint64_t word = column.head.load(std::memory_order_acquire);
      if (core::head_count(word) < max) [[likely]] {
        node->next = core::head_node<T>(word);
        if (column.head.compare_exchange_strong(
                word,
                core::pack_head(node, core::packed_count_after_push(word)),
                std::memory_order_release, std::memory_order_relaxed))
            [[likely]] {
          obs::count<obs::Counter::kFastHits>();
          return;
        }
        put_slow(node, max, index, core::Probe::kContended);
        return;
      }
      put_slow(node, max, index, core::Probe::kIneligible);
    } catch (...) {
      alloc_.release(node);  // never linked: direct release is safe
      throw;
    }
  }

  /// Non-throwing put: resource failure comes back as a status instead of
  /// an exception, same strong guarantee.
  core::OpStatus try_put(T value) {
    try {
      put(std::move(value));
      return core::OpStatus::kOk;
    } catch (const std::bad_alloc&) {
      return core::OpStatus::kNoMemory;
    } catch (const reclaim::SlotsExhausted&) {
      return core::OpStatus::kNoSlots;
    }
  }

  std::optional<T> take() {
    const std::uint64_t max = window_max_.load(std::memory_order_acquire);
    // Invariant: window_max_ never drops below depth (init, +shift puts,
    // and the snap-down all keep it >= depth), so no underflow guard.
    const std::uint64_t low = max - params_.depth;
    const std::size_t index = preferred_index();
    const std::uint64_t word =
        columns_[index].head.load(std::memory_order_acquire);
    if (word != 0 && core::head_count(word) > low) [[likely]] {
      if (auto value = try_take_at(index, low)) [[likely]] {
        obs::count<obs::Counter::kFastHits>();
        return value;
      }
      return take_slow(max, index, core::Probe::kContended);
    }
    return take_slow(max, index, core::Probe::kIneligible);
  }

  // RelaxedStack surface: the bag behind the stack names, so every
  // harness runner and the service dispatcher drive it unmodified.
  void push(T value) { put(std::move(value)); }
  core::OpStatus try_push(T value) { return try_put(std::move(value)); }
  std::optional<T> pop() { return take(); }

  /// True when every column's head was empty at the moment it was read.
  bool empty() const {
    for (std::size_t i = 0; i < params_.width; ++i) {
      if (columns_[i].head.load(std::memory_order_acquire) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Racy sum of the column counts — a pure packed-word scan.
  std::uint64_t approx_size() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < params_.width; ++i) {
      total +=
          core::head_count(columns_[i].head.load(std::memory_order_acquire));
    }
    return total;
  }

  /// Debug/test accessor for the window word (racy read).
  std::uint64_t window() const {
    return window_max_.load(std::memory_order_acquire);
  }

  /// Highest per-thread slot index leased across the reclaimer and the
  /// allocator — the churn harness's bounded-lease gauge (DESIGN.md §13).
  /// HeapAlloc leases no slots and reports zero.
  std::size_t slot_hwm() const {
    return std::max(reclaimer_.slot_hwm(), alloc_.slot_hwm());
  }

 private:
  static core::TwoDParams validated(core::TwoDParams params) {
    params.validate();
    return params;
  }

  /// One guarded take CAS on `index` with band bottom `low` — the stack's
  /// try_pop_at, verbatim semantics: the only place the bag dereferences
  /// a shared node, hence the only place it pins the reclaimer.
  std::optional<T> try_take_at(std::size_t index, std::uint64_t low) {
    Column& column = columns_[index];
    auto guard = reclaimer_.pin();
    std::uint64_t word = guard.protect_word(column.head, core::head_node<T>);
    Node* head = core::head_node<T>(word);
    if (head == nullptr || core::head_count(word) <= low) return std::nullopt;
    Node* next = head->next;
    if (column.head.compare_exchange_strong(
            word,
            core::pack_head(next, core::packed_count_after_pop(word, next)),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      T value = std::move(head->value);
      guard.retire(head, alloc_);
      return value;
    }
    return std::nullopt;
  }

  __attribute__((noinline, cold)) void put_slow(Node* node, std::uint64_t max,
                                                std::size_t start,
                                                core::Probe seed) {
    core::drive_window_sweep(
        params_, window_max_, start, max, seed,
        /*attempt=*/
        [&](std::size_t i, std::uint64_t m) {
          Column& column = columns_[i];
          std::uint64_t word = column.head.load(std::memory_order_acquire);
          if (core::head_count(word) >= m) return core::Probe::kIneligible;
          node->next = core::head_node<T>(word);
          if (column.head.compare_exchange_strong(
                  word,
                  core::pack_head(node, core::packed_count_after_push(word)),
                  std::memory_order_release, std::memory_order_relaxed)) {
            preferred_index() = i;
            return core::Probe::kSuccess;
          }
          return core::Probe::kContended;
        },
        /*certified=*/
        [&](std::uint64_t m) {
          return core::Certified::shift_to(m + params_.shift);
        },
        obs::ShiftCause::kBagPut);
  }

  __attribute__((noinline, cold)) std::optional<T> take_slow(
      std::uint64_t max, std::size_t start, core::Probe seed) {
    std::optional<T> out;
    core::drive_window_sweep(
        params_, window_max_, start, max, seed,
        /*attempt=*/
        [&](std::size_t i, std::uint64_t m) {
          const std::uint64_t low = m - params_.depth;  // max >= depth
          const std::uint64_t word =
              columns_[i].head.load(std::memory_order_acquire);
          if (word == 0 || core::head_count(word) <= low) {
            return core::Probe::kIneligible;
          }
          if ((out = try_take_at(i, low))) {
            preferred_index() = i;
            return core::Probe::kSuccess;
          }
          return core::Probe::kContended;
        },
        /*certified=*/
        [&](std::uint64_t m) { return certify_take(m); },
        obs::ShiftCause::kBagTake);
    return out;
  }

  /// Take-side certification, the bag's one departure from the stack:
  /// one packed-word scan deciding between "missed an in-band column"
  /// (go there), "all empty" (report empty — count == 0 <=> empty, §8
  /// saturation protocol), and "non-empty columns all below the band",
  /// where the window SNAPS down to hi + depth − 1 — just above the
  /// fullest column, so the very next sweep finds it eligible. Monotone
  /// and floored by construction: hi <= m − depth gives a target <= m − 1,
  /// and hi >= 1 gives a target >= depth. The stack cannot do this (its
  /// Theorem-1 bound meters rank error per window shift); the bag has no
  /// order to protect, so a take after a deep drain pays one scan instead
  /// of (m − hi)/shift certified sweeps.
  core::Certified certify_take(std::uint64_t max) {
    std::uint64_t hi = 0;
    for (std::size_t i = 0; i < params_.width; ++i) {
      const std::uint64_t count = core::head_count(
          columns_[i].head.load(std::memory_order_acquire));
      if (count > max - params_.depth) return core::Certified::restart_at(i);
      hi = std::max(hi, count);
    }
    if (hi == 0) return core::Certified::stop();
    return core::Certified::shift_to(hi + params_.depth - 1);
  }

  /// Per-(thread, instance) preferred column, keyed like the stack's
  /// (core::InstanceLocal).
  std::size_t& preferred_index() {
    thread_local core::InstanceLocal<std::size_t> preferred;
    std::size_t& index = preferred.get(id_);
    if (index >= params_.width) [[unlikely]] index = 0;
    return index;
  }

  alignas(64) core::TwoDParams params_;
  std::unique_ptr<Column[]> columns_;
  std::atomic<std::uint64_t> window_max_{0};
  const std::uint64_t id_ = reclaim::detail::next_instance_id();
  // Destruction-order contract (DESIGN.md §10): the reclaimer's destructor
  // drains deferred retires into alloc_, so alloc_ must be declared first.
  [[no_unique_address]] Alloc<Node> alloc_;
  Reclaimer reclaimer_;
};

}  // namespace r2d
