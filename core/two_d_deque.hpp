// TwoDDeque: the 2D window framework instantiated for double-ended queues
// — the next structure on the paper's future-work list, and the first
// container built *on* the shared sweep engine rather than refactored onto
// it.
//
// A width-array of small sub-deques under one window *per end*. A column's
// occupancy says nothing about how out-of-order its front or back item is
// (a column cycling push_front/pop_back keeps its occupancy constant while
// its front segment drifts arbitrarily far behind the other columns'), so
// the windows range over per-column signed *end-flows* instead: the front
// flow f = front-pushes - front-pops and the back flow b likewise (see
// core/deque_flow.hpp for the packed word). That is the stack's height
// coordinate generalized per end — a front push is eligible on a column
// whose front flow is below the front window, a front pop on a non-empty
// column whose front flow is above front-window - depth, and symmetrically
// at the back. Each certified failed sweep shifts its end's window
// monotonically (push up / pop down) by `shift`; a pop whose certification
// scan saw every column empty returns nullopt. The stack's Theorem-1
// argument then applies to each end's flow coordinate, making
// (2*shift + depth) * (width - 1) the per-end rank-error design target;
// the harness's deque oracle mode (quality::Order::kDeque) measures the
// distance each end actually pays. All four operations drive
// core/window.hpp — two window words, four predicate pairs, one engine.
//
// The column representation is a policy (the `Column` template parameter;
// DESIGN.md §11): DwcasDequeColumn — the default where the hardware has a
// 16-byte CAS — keeps {front, back} in one two-word head updated by DWCAS
// with per-end ABA tags, so a preempted thread can never stall a column;
// LockedDequeColumn serializes each column with a one-word TTAS spinlock
// (and is the automatic fallback when R2D_HAS_DWCAS == 0). Both publish
// the same packed flow word, so eligibility probes, certification scans,
// empty() and approx_size() are one atomic load per column — no
// dereference, no lock, no guard — and both route node lifetime through
// the reclaimer/allocator pipeline (retire(node, alloc), DESIGN.md §10;
// epoch reclamation and PoolAlloc storage by default).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/deque_column_dwcas.hpp"
#include "core/deque_column_locked.hpp"
#include "core/deque_flow.hpp"
#include "core/op_status.hpp"
#include "core/params.hpp"
#include "core/substack.hpp"  // InstanceLocal
#include "core/window.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/slot_registry.hpp"  // next_instance_id

namespace r2d {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc,
          template <typename> class Column = core::DefaultDequeColumn>
class TwoDDeque {
  using Col = Column<T>;
  using Node = typename Col::Node;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Node>;
  using column_type = Col;

  /// Which column backend this instantiation runs ("dwcas" | "locked") —
  /// on fallback hosts the dwcas name resolves to the locked backend and
  /// reports itself accordingly.
  static constexpr const char* backend_name() { return Col::kBackendName; }
  static constexpr bool lock_free_columns() { return Col::kLockFree; }

  explicit TwoDDeque(core::TwoDParams params)
      : params_(validated(std::move(params))),
        columns_(std::make_unique<Col[]>(params_.width)) {
    front_max_.store(core::kFlowBias + params_.depth,
                     std::memory_order_relaxed);
    back_max_.store(core::kFlowBias + params_.depth,
                    std::memory_order_relaxed);
  }

  TwoDDeque(const TwoDDeque&) = delete;
  TwoDDeque& operator=(const TwoDDeque&) = delete;

  ~TwoDDeque() {
    for (std::size_t i = 0; i < params_.width; ++i) {
      columns_[i].drain(alloc_);
    }
  }

  const core::TwoDParams& params() const { return params_; }

  void push_front(T value) { push<true>(std::move(value)); }
  void push_back(T value) { push<false>(std::move(value)); }
  core::OpStatus try_push_front(T value) {
    return try_push<true>(std::move(value));
  }
  core::OpStatus try_push_back(T value) {
    return try_push<false>(std::move(value));
  }
  std::optional<T> pop_front() { return pop<true>(); }
  std::optional<T> pop_back() { return pop<false>(); }

  /// True when every column's occupancy was zero at the moment its flow
  /// word was read — a pure atomic scan, no locks, either backend.
  bool empty() const {
    for (std::size_t i = 0; i < params_.width; ++i) {
      if (core::flow_occupancy(
              columns_[i].flows.load(std::memory_order_acquire)) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Racy sum of the column occupancies.
  std::uint64_t approx_size() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < params_.width; ++i) {
      total += core::flow_occupancy(
          columns_[i].flows.load(std::memory_order_acquire));
    }
    return total;
  }

  /// Debug/test accessors: the two windows on the signed (unbiased) flow
  /// scale — racy reads.
  std::int64_t front_window() const {
    return static_cast<std::int64_t>(
        front_max_.load(std::memory_order_acquire) - core::kFlowBias);
  }
  std::int64_t back_window() const {
    return static_cast<std::int64_t>(
        back_max_.load(std::memory_order_acquire) - core::kFlowBias);
  }

 private:
  static core::TwoDParams validated(core::TwoDParams params) {
    params.validate();
    return params;
  }

  template <bool kFront>
  std::atomic<std::uint64_t>& window_word() {
    return kFront ? front_max_ : back_max_;
  }

  /// Strong exception guarantee (DESIGN.md §15): the node is acquired
  /// before any shared state is touched, and — unlike the stack — the
  /// column attempts pin the reclaimer per probe, so SlotsExhausted can
  /// surface mid-sweep; the catch below releases the still-unlinked node
  /// before rethrowing (a column attempt that fails leaves the column
  /// untouched and never keeps a reference to the node). Once a column
  /// CAS/splice lands, nothing after it can throw.
  template <bool kFront>
  void push(T value) {
    Node* node = alloc_.acquire(nullptr, nullptr, std::move(value));
    try {
      std::atomic<std::uint64_t>& window = window_word<kFront>();
      const std::uint64_t max = window.load(std::memory_order_acquire);
      const std::size_t start = preferred_index();
      // Fast path: one attempt on the thread's preferred column.
      const core::Probe first =
          columns_[start].template try_push<kFront>(node, max, reclaimer_,
                                                    alloc_);
      if (first == core::Probe::kSuccess) [[likely]] {
        obs::count<obs::Counter::kFastHits>();
        preferred_index() = start;
        return;
      }
      core::drive_window_sweep(
          params_, window, start, max, first,
          /*attempt=*/
          [&](std::size_t i, std::uint64_t m) {
            const core::Probe p =
                columns_[i].template try_push<kFront>(node, m, reclaimer_,
                                                      alloc_);
            if (p == core::Probe::kSuccess) preferred_index() = i;
            return p;
          },
          /*certified=*/
          [&](std::uint64_t m) {
            return core::Certified::shift_to(m + params_.shift);
          },
          kFront ? obs::ShiftCause::kDequeFrontPush
                 : obs::ShiftCause::kDequeBackPush);
    } catch (...) {
      alloc_.release(node);  // never linked: direct release is safe
      throw;
    }
  }

  template <bool kFront>
  core::OpStatus try_push(T value) {
    try {
      push<kFront>(std::move(value));
      return core::OpStatus::kOk;
    } catch (const std::bad_alloc&) {
      return core::OpStatus::kNoMemory;
    } catch (const reclaim::SlotsExhausted&) {
      return core::OpStatus::kNoSlots;
    }
  }

  template <bool kFront>
  std::optional<T> pop() {
    std::atomic<std::uint64_t>& window = window_word<kFront>();
    const std::uint64_t max = window.load(std::memory_order_acquire);
    const std::size_t start = preferred_index();
    std::optional<T> out;
    const core::Probe first = columns_[start].template try_pop<kFront>(
        out, max, params_.depth, reclaimer_, alloc_);
    if (first == core::Probe::kSuccess) [[likely]] {
      obs::count<obs::Counter::kFastHits>();
      preferred_index() = start;
      return out;
    }
    core::drive_window_sweep(
        params_, window, start, max, first,
        /*attempt=*/
        [&](std::size_t i, std::uint64_t m) {
          const core::Probe p = columns_[i].template try_pop<kFront>(
              out, m, params_.depth, reclaimer_, alloc_);
          if (p == core::Probe::kSuccess) preferred_index() = i;
          return p;
        },
        /*certified=*/
        [&](std::uint64_t m) { return certify_pop<kFront>(m); },
        kFront ? obs::ShiftCause::kDequeFrontPop
               : obs::ShiftCause::kDequeBackPop);
    return out;
  }

  /// Pop-side certification: one flow-word scan deciding between "missed
  /// an eligible column" (go there), "all empty" (report empty — unlike
  /// the stack, end-flows have no floor the window could bottom out at,
  /// so emptiness is certified by occupancy directly), and "non-empty
  /// columns all below the band" (shift this end's window down) — so
  /// empty columns can never pump the window while eligible work exists.
  template <bool kFront>
  core::Certified certify_pop(std::uint64_t max) {
    bool any_nonempty = false;
    for (std::size_t i = 0; i < params_.width; ++i) {
      const std::uint64_t word =
          columns_[i].flows.load(std::memory_order_acquire);
      if (core::flow_occupancy(word) == 0) continue;
      if (core::end_flow<kFront>(word) > max - params_.depth) {
        return core::Certified::restart_at(i);
      }
      any_nonempty = true;
    }
    if (!any_nonempty) return core::Certified::stop();
    return core::Certified::shift_to(max - params_.shift);
  }

  /// Per-(thread, instance) preferred column shared by all four operations
  /// (pop locality follows push), keyed like the stack's (see
  /// core::InstanceLocal).
  std::size_t& preferred_index() {
    thread_local core::InstanceLocal<std::size_t> preferred;
    std::size_t& index = preferred.get(id_);
    if (index >= params_.width) [[unlikely]] index = 0;
    return index;
  }

  alignas(64) core::TwoDParams params_;
  std::unique_ptr<Col[]> columns_;
  std::atomic<std::uint64_t> front_max_{0};
  std::atomic<std::uint64_t> back_max_{0};
  const std::uint64_t id_ = reclaim::detail::next_instance_id();
  // Destruction-order contract (DESIGN.md §10): the reclaimer's destructor
  // drains deferred retires into alloc_, so alloc_ must be declared first.
  [[no_unique_address]] Alloc<Node> alloc_;
  Reclaimer reclaimer_;
};

}  // namespace r2d
