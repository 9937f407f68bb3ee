// TwoDStack: the paper's 2D-stack — a width-array of Treiber sub-stacks
// under a global k-relaxation window.
//
// The window is one shared word, window_max_. A push is eligible on a
// column whose count is below window_max_; a pop is eligible on a column
// whose count is above window_max_ - depth. Threads hop between columns
// (HopMode) and only move the window after certifying a full failed sweep
// — the monotonic window-shift rule: push shifts the window up by
// `shift`, pop shifts it down, never past depth. Theorem 1 then bounds the
// rank error by k = (2*shift + depth) * (width - 1) (see core/params.hpp).
// The probe/hop/certify/shift loop itself is the shared engine in
// core/window.hpp; this file only supplies the stack's two eligibility
// predicates and CAS attempts.
//
// Column heads pack the node pointer with the column count in one word
// (core/substack.hpp), so every eligibility check is a single atomic load
// with no dereference: pushes and window probes run entirely outside the
// reclaimer, and only a pop that found an eligible column pins it to read
// head->next.
//
// Memory reclamation is a template policy (see reclaim/epoch.hpp for the
// contract); the default is epoch-based. Node storage is a second policy
// (reclaim/alloc.hpp): PoolAlloc by default — slab-recycled,
// magazine-cached blocks owned by this instance until it is destroyed —
// or HeapAlloc for plain new/delete. Retired nodes flow back to the
// owning allocator through the reclaimer (DESIGN.md §10).
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
#include "reclaim/slot_registry.hpp"

namespace r2d {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class TwoDStack {
  using Node = core::StackNode<T>;
  using Column = core::StackColumn<T>;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Node>;

  explicit TwoDStack(core::TwoDParams params)
      : params_(validated(std::move(params))),
        columns_(std::make_unique<Column[]>(params_.width)) {
    window_max_.store(params_.depth, std::memory_order_relaxed);
  }

  TwoDStack(const TwoDStack&) = delete;
  TwoDStack& operator=(const TwoDStack&) = delete;

  ~TwoDStack() {
    for (std::size_t i = 0; i < params_.width; ++i) {
      core::drain_column(columns_[i], alloc_);
    }
  }

  const core::TwoDParams& params() const { return params_; }

  /// Strong exception guarantee (DESIGN.md §15): the node is allocated
  /// before any shared state is touched, so bad_alloc/SlotsExhausted out
  /// of the acquire leaves the stack exactly as it was; a resource
  /// failure after the acquire (pushes never pin, but the preferred-index
  /// TLS map can allocate on a thread's first touch) releases the still-
  /// unlinked node before rethrowing. Once the head CAS lands, nothing
  /// after it can throw.
  void push(T value) {
    Node* node = alloc_.acquire(nullptr, std::move(value));
    try {
      // Fast path: one probe of the thread's last successful column under
      // the current window — one window read, one packed-head read, one
      // CAS; no sweep state, no divisions, no reclaimer.
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
        push_slow(node, max, index, core::Probe::kContended);
        return;
      }
      push_slow(node, max, index, core::Probe::kIneligible);
    } catch (...) {
      alloc_.release(node);  // never linked: direct release is safe
      throw;
    }
  }

  /// Non-throwing push: resource failure comes back as a status instead
  /// of an exception, same strong guarantee (the value is consumed either
  /// way; on failure no element was inserted).
  core::OpStatus try_push(T value) {
    try {
      push(std::move(value));
      return core::OpStatus::kOk;
    } catch (const std::bad_alloc&) {
      return core::OpStatus::kNoMemory;
    } catch (const reclaim::SlotsExhausted&) {
      return core::OpStatus::kNoSlots;
    }
  }

  std::optional<T> pop() {
    const std::uint64_t max = window_max_.load(std::memory_order_acquire);
    // Invariant: window_max_ never drops below depth (init and down-shift
    // both clamp), so the band bottom needs no underflow guard.
    const std::uint64_t low = max - params_.depth;
    const std::size_t index = preferred_index();
    const std::uint64_t word =
        columns_[index].head.load(std::memory_order_acquire);
    if (word != 0 && core::head_count(word) > low) [[likely]] {
      if (auto value = try_pop_at(index, low)) [[likely]] {
        obs::count<obs::Counter::kFastHits>();
        return value;
      }
      return pop_slow(max, index, core::Probe::kContended);
    }
    return pop_slow(max, index, core::Probe::kIneligible);
  }

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
      total += core::head_count(columns_[i].head.load(std::memory_order_acquire));
    }
    return total;
  }

  /// Highest per-thread slot index leased across the reclaimer and the
  /// allocator — the churn harness's bounded-lease gauge (DESIGN.md §13).
  /// HeapAlloc leases no slots and reports zero.
  std::size_t slot_hwm() const {
    return std::max(reclaimer_.slot_hwm(), alloc_.slot_hwm());
  }

 private:
  /// Validate before any allocation so a bad shape cannot leak columns_.
  static core::TwoDParams validated(core::TwoDParams params) {
    params.validate();
    return params;
  }

  /// Pin, re-read under protection, and attempt one pop CAS on `index`
  /// with band bottom `low`. Returns the value on success; nullopt when
  /// the column changed under us (contended or no longer eligible) — the
  /// caller re-sweeps. This is the only place an operation dereferences a
  /// shared node, hence the only place that pins the reclaimer. Inlined
  /// into pop()'s fast path (an out-of-line optional<T> return costs ~10%
  /// of the round-trip on this host).
  __attribute__((always_inline)) inline std::optional<T> try_pop_at(
      std::size_t index, std::uint64_t low) {
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

  __attribute__((noinline, cold)) void push_slow(Node* node,
                                                 std::uint64_t max,
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
        [&](std::uint64_t m) { return core::Certified::shift_to(m + params_.shift); },
        obs::ShiftCause::kStackPush);
  }

  __attribute__((noinline, cold)) std::optional<T> pop_slow(
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
          if ((out = try_pop_at(i, low))) {
            preferred_index() = i;
            return core::Probe::kSuccess;
          }
          return core::Probe::kContended;
        },
        /*certified=*/
        [&](std::uint64_t m) {
          if (m == params_.depth) {
            // Window is already at the bottom and every column certified
            // as at-or-below it, i.e. empty (count == 0 <=> empty column,
            // which the saturation protocol preserves).
            return core::Certified::stop();
          }
          return core::Certified::shift_to(
              std::max(params_.depth, m - params_.shift));
        },
        obs::ShiftCause::kStackPop);
    return out;
  }

  /// Per-(thread, instance) preferred column, keyed by this instance's
  /// process-unique id (core::InstanceLocal) so two stacks of the same
  /// instantiation never pollute each other's fast path. Always returns a
  /// value below width.
  std::size_t& preferred_index() {
    thread_local core::InstanceLocal<std::size_t> preferred;
    std::size_t& index = preferred.get(id_);
    if (index >= params_.width) [[unlikely]] index = 0;
    return index;
  }

  // Layout: everything the fast path reads — the shape, the column array
  // base, the window, and the instance id — lives on one cacheline.
  // Window shifts write that line, but a shift is amortized over at least
  // a full sweep of failed probes, and every reader needs the new window
  // value anyway.
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
