// TwoDQueue: the 2D window design applied to FIFO queues — the paper's
// future-work generalization the EXT bench measures.
//
// A width-array of Michael-Scott sub-queues. Each node carries its enqueue
// serial within its column, so the tail's index is the column's enqueue
// count and the dummy head's index is its dequeue count — both change
// atomically with the corresponding CAS, no side counters. Both windows
// only move up, by `shift`, after a certified failed sweep: enqueues are
// eligible on a column whose enqueue count is below put_max; dequeues on a
// non-empty column whose dequeue count is below get_max. The get window is
// additionally clamped by enqueue progress when it shifts, so the FIFO
// rank-error bound stays tight (see certify_dequeue). The
// probe/hop/certify/shift loop itself is the shared engine in
// core/window.hpp.
// With width = 1 every operation is always eligible and the structure is a
// plain strict MS queue.
//
// The node serials are cumulative, so unlike the stack they cannot live in
// a 16-bit packed head field. Instead each column publishes a monotone
// *lower bound* on its enqueue serial in a plain 64-bit word next to the
// head/tail pointers (enq_serial): enqueue eligibility probes and put-side
// certification scans read that word with no dereference — and therefore
// no reclaimer guard — exactly like the stacks' packed heads; only the
// operation CASes themselves still walk nodes under the guard. See
// DESIGN.md §8 for why a stale lower bound is sound.
//
// Reclamation (epoch by default) and node storage (PoolAlloc by default,
// HeapAlloc on request) follow the library-wide policy pipeline
// (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/op_status.hpp"
#include "core/params.hpp"
#include "core/substack.hpp"  // InstanceLocal
#include "core/window.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/slot_registry.hpp"  // next_instance_id

namespace r2d {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class TwoDQueue {
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::uint64_t index = 0;  ///< enqueue serial within the column; dummy = 0
    T value{};
  };

  struct alignas(64) Column {
    std::atomic<Node*> head{nullptr};  ///< dummy node; its index = #dequeued
    std::atomic<Node*> tail{nullptr};
    /// Published lower bound on this column's enqueue serial (tail->index).
    /// Written with plain release stores — concurrent writers may install
    /// values out of order, but every value ever stored *was* the serial of
    /// a reachable tail, so the word never exceeds the true serial. That
    /// one-sided guarantee is all eligibility and certification need: a
    /// stale low value only sends a probe to re-verify exactly (and
    /// refresh the word); a value >= max proves the column ineligible.
    std::atomic<std::uint64_t> enq_serial{0};
  };

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Node>;

  explicit TwoDQueue(core::TwoDParams params)
      : params_(params),
        put_max_(params.depth),
        get_max_(params.depth),
        columns_(new Column[params.width]) {
    params_.validate();
    // Per-column dummies: if an acquire throws partway, release the ones
    // already installed — columns_ only frees the array, not the nodes.
    std::size_t created = 0;
    try {
      for (; created < params_.width; ++created) {
        Node* dummy = alloc_.acquire();
        columns_[created].head.store(dummy, std::memory_order_relaxed);
        columns_[created].tail.store(dummy, std::memory_order_relaxed);
      }
    } catch (...) {
      for (std::size_t i = 0; i < created; ++i) {
        alloc_.release(columns_[i].head.load(std::memory_order_relaxed));
      }
      throw;
    }
  }

  TwoDQueue(const TwoDQueue&) = delete;
  TwoDQueue& operator=(const TwoDQueue&) = delete;

  ~TwoDQueue() {
    for (std::size_t i = 0; i < params_.width; ++i) {
      Node* node = columns_[i].head.load(std::memory_order_relaxed);
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        alloc_.release(node);
        node = next;
      }
    }
  }

  const core::TwoDParams& params() const { return params_; }

  /// Strong exception guarantee (DESIGN.md §15). The guard pins *before*
  /// anything is acquired, so SlotsExhausted out of the slot claim
  /// propagates with nothing held, and any later throw unwinds through the
  /// guard's destructor — no pinned epoch or published hazard survives a
  /// failed enqueue. bad_alloc from the node acquire leaves the queue
  /// untouched; a resource failure after it (value move, preferred-index
  /// TLS map) releases the still-unlinked node before rethrowing. Once the
  /// link CAS lands, nothing after it can throw.
  void enqueue(T value) {
    auto guard = reclaimer_.pin();
    Node* node = alloc_.acquire();
    try {
      node->value = std::move(value);
      const std::uint64_t max = put_max_.load(std::memory_order_acquire);
      const std::size_t start = preferred_enq_index() % params_.width;
      // Fast path: one attempt on the thread's preferred column.
      const core::Probe first = try_enqueue_at(guard, node, start, max);
      if (first == core::Probe::kSuccess) [[likely]] {
        obs::count<obs::Counter::kFastHits>();
        return;
      }
      core::drive_window_sweep(
          params_, put_max_, start, max, first,
          /*attempt=*/
          [&](std::size_t i, std::uint64_t m) {
            return try_enqueue_at(guard, node, i, m);
          },
          /*certified=*/
          [&](std::uint64_t m) { return certify_enqueue(m); },
          obs::ShiftCause::kQueuePut);
    } catch (...) {
      alloc_.release(node);  // never linked: direct release is safe
      throw;
    }
  }

  /// Non-throwing enqueue: resource failure comes back as a status instead
  /// of an exception, same strong guarantee.
  core::OpStatus try_enqueue(T value) {
    try {
      enqueue(std::move(value));
      return core::OpStatus::kOk;
    } catch (const std::bad_alloc&) {
      return core::OpStatus::kNoMemory;
    } catch (const reclaim::SlotsExhausted&) {
      return core::OpStatus::kNoSlots;
    }
  }

  std::optional<T> dequeue() {
    auto guard = reclaimer_.pin();
    const std::uint64_t max = get_max_.load(std::memory_order_acquire);
    const std::size_t start = preferred_deq_index() % params_.width;
    std::optional<T> out;
    const core::Probe first = try_dequeue_at(guard, out, start, max);
    if (first == core::Probe::kSuccess) [[likely]] {
      obs::count<obs::Counter::kFastHits>();
      return out;
    }
    core::drive_window_sweep(
        params_, get_max_, start, max, first,
        /*attempt=*/
        [&](std::size_t i, std::uint64_t m) {
          return try_dequeue_at(guard, out, i, m);
        },
        /*certified=*/
        [&](std::uint64_t m) { return certify_dequeue(guard, m); },
        obs::ShiftCause::kQueueGet);
    return out;
  }

  bool empty() {
    auto guard = reclaimer_.pin();
    for (std::size_t i = 0; i < params_.width; ++i) {
      Node* head = guard.protect(columns_[i].head, 0);
      if (head->next.load(std::memory_order_acquire) != nullptr) return false;
    }
    return true;
  }

  /// Racy sum of (enqueued - dequeued) per column.
  std::uint64_t approx_size() {
    auto guard = reclaimer_.pin();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < params_.width; ++i) {
      Node* head = guard.protect(columns_[i].head, 0);
      Node* tail = guard.protect(columns_[i].tail, 1);
      total += tail->index > head->index ? tail->index - head->index : 0;
    }
    return total;
  }

  /// Debug/test accessors for the two window words (racy reads).
  std::uint64_t put_window() const {
    return put_max_.load(std::memory_order_acquire);
  }
  std::uint64_t get_window() const {
    return get_max_.load(std::memory_order_acquire);
  }

  /// Highest per-thread slot index leased across the reclaimer and the
  /// allocator — the churn harness's bounded-lease gauge (DESIGN.md §13).
  /// HeapAlloc leases no slots and reports zero.
  std::size_t slot_hwm() const {
    return std::max(reclaimer_.slot_hwm(), alloc_.slot_hwm());
  }

 private:
  /// Refresh a column's published enqueue-serial lower bound. A plain
  /// store is enough (see Column::enq_serial); skip it when the word is
  /// already current so probes don't write shared memory.
  static void publish_enq_serial(Column& column, std::uint64_t serial) {
    if (column.enq_serial.load(std::memory_order_relaxed) < serial) {
      column.enq_serial.store(serial, std::memory_order_release);
    }
  }

  /// One enqueue attempt on column `i` under put window `max`: the
  /// dereference-free pre-check, then the exact check on the protected
  /// tail's serial, then the MS-queue link CAS. Helps a lagging tail
  /// forward (retrying the same column) and keeps enq_serial fresh so
  /// certification always converges.
  template <typename Guard>
  core::Probe try_enqueue_at(Guard& guard, Node* node, std::size_t i,
                             std::uint64_t max) {
    Column& column = columns_[i];
    if (column.enq_serial.load(std::memory_order_acquire) >= max) {
      return core::Probe::kIneligible;
    }
    while (true) {
      Node* tail = guard.protect(column.tail, 0);
      Node* next = tail->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // Help the lagging tail forward, then retry the same column.
        column.tail.compare_exchange_strong(tail, next,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
        continue;
      }
      publish_enq_serial(column, tail->index);
      if (tail->index >= max) return core::Probe::kIneligible;
      node->index = tail->index + 1;
      Node* expected = nullptr;
      if (tail->next.compare_exchange_strong(expected, node,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
        column.tail.compare_exchange_strong(tail, node,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
        publish_enq_serial(column, node->index);
        preferred_enq_index() = i;
        return core::Probe::kSuccess;
      }
      return core::Probe::kContended;
    }
  }

  /// One dequeue attempt on column `i` under get window `max`. Winning the
  /// head CAS both takes the item and advances the dequeue count in one
  /// step, so the eligibility check cannot be overtaken by concurrent
  /// dequeuers.
  template <typename Guard>
  core::Probe try_dequeue_at(Guard& guard, std::optional<T>& out,
                             std::size_t i, std::uint64_t max) {
    Column& column = columns_[i];
    Node* head = guard.protect(column.head, 0);
    Node* next = guard.protect(head->next, 1);
    {
      // MS-queue invariant: never move head past a node the tail still
      // references — a retired dummy must be unreachable from both ends
      // before hazard scans may free it.
      Node* tail = column.tail.load(std::memory_order_acquire);
      if (head == tail && next != nullptr) {
        column.tail.compare_exchange_strong(tail, next,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
      }
    }
    if (next == nullptr || head->index >= max) return core::Probe::kIneligible;
    if (column.head.compare_exchange_strong(head, next,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      preferred_deq_index() = i;
      out = std::move(next->value);
      guard.retire(head, alloc_);
      return core::Probe::kSuccess;
    }
    return core::Probe::kContended;
  }

  /// Put-side certification: one dereference-free scan of the published
  /// serial words. A stale word below the window redirects the sweep there
  /// (the attempt verifies exactly and refreshes it), so the scan can only
  /// pass once every column's true serial reached the window.
  core::Certified certify_enqueue(std::uint64_t max) {
    for (std::size_t i = 0; i < params_.width; ++i) {
      if (columns_[i].enq_serial.load(std::memory_order_acquire) < max) {
        return core::Certified::restart_at(i);
      }
    }
    return core::Certified::shift_to(max + params_.shift);
  }

  /// Get-side certification: one guarded scan deciding between "missed an
  /// eligible column" (go there), "all empty" (report empty), and
  /// "non-empty columns all at the window" (shift) — so empty columns can
  /// never pump the window while eligible work exists. The shift target is
  /// clamped by enqueue progress: without the clamp, a shift of `shift`
  /// past a column holding a single just-enqueued item inflates get_max
  /// far beyond any item's serial, and later dequeues run unconstrained by
  /// the window — the FIFO rank-error bound goes loose. A non-empty column
  /// always proves progress >= max + 1 (its head serial certified >= max
  /// and at least one more item was enqueued on top), so the clamped
  /// target still moves the window forward.
  template <typename Guard>
  core::Certified certify_dequeue(Guard& guard, std::uint64_t max) {
    bool any_nonempty = false;
    for (std::size_t i = 0; i < params_.width; ++i) {
      Column& column = columns_[i];
      Node* head = guard.protect(column.head, 0);
      if (head->next.load(std::memory_order_acquire) == nullptr) continue;
      if (head->index < max) return core::Certified::restart_at(i);
      any_nonempty = true;
      // Help the published serial forward so the clamp below can use it.
      Node* tail = guard.protect(column.tail, 1);
      publish_enq_serial(column, tail->index);
    }
    if (!any_nonempty) return core::Certified::stop();
    std::uint64_t enq_progress = 0;
    for (std::size_t i = 0; i < params_.width; ++i) {
      enq_progress = std::max(
          enq_progress, columns_[i].enq_serial.load(std::memory_order_acquire));
    }
    return core::Certified::shift_to(
        std::max(max + 1, std::min(max + params_.shift, enq_progress)));
  }

  // Per-(thread, instance) preferred columns, keyed by this instance's
  // process-unique id so two queues of the same instantiation never
  // pollute each other's fast path (see core::InstanceLocal).
  std::size_t& preferred_enq_index() {
    thread_local core::InstanceLocal<std::size_t> preferred;
    return preferred.get(id_);
  }
  std::size_t& preferred_deq_index() {
    thread_local core::InstanceLocal<std::size_t> preferred;
    return preferred.get(id_);
  }

  const std::uint64_t id_ = reclaim::detail::next_instance_id();
  core::TwoDParams params_;
  alignas(64) std::atomic<std::uint64_t> put_max_;
  alignas(64) std::atomic<std::uint64_t> get_max_;
  std::unique_ptr<Column[]> columns_;
  // alloc_ before reclaimer_: the reclaimer's destructor releases deferred
  // retires into it (DESIGN.md §10).
  [[no_unique_address]] Alloc<Node> alloc_;
  Reclaimer reclaimer_;
};

}  // namespace r2d
