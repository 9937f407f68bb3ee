// HazardReclaimer: classic hazard pointers (Michael 2004).
//
// protect() publishes the pointer with a sequentially-consistent store and
// re-validates the source — a per-dereference cost, where EBR pays per
// operation. retire() batches nodes per thread; once a batch reaches
// kScanThreshold the thread scans all published hazards and frees every
// non-hazardous node.
//
// Policy contract: see reclaim/epoch.hpp. Bounded garbage: at most
// kScanThreshold + (#threads * kMaxProtected) nodes per thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sched/hook.hpp"
#include "obs/metrics.hpp"
#include "reclaim/slot_registry.hpp"

namespace r2d::reclaim {

class HazardReclaimer : private detail::Lessor {
  static constexpr std::size_t kScanThreshold = 128;

  struct Retired {
    void* node;
    void* ctx;  ///< owning allocator (nullptr: plain delete)
    void (*destroy)(void*, void*);
  };

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> owner{0};
    std::atomic<void*> hazard[4] = {};
    // Owned exclusively by the claiming thread:
    std::vector<Retired> retired;
  };

 public:
  static constexpr unsigned kMaxProtected = 4;

  HazardReclaimer() {
    // release_thread counts into obs while the exit walk holds the
    // registry mutex; the metrics singleton registers under that mutex,
    // so it must exist before any walk can reach this instance.
    obs::metrics();
    detail::ChurnRegistry::get().add_lessor(id_, this);
  }
  HazardReclaimer(const HazardReclaimer&) = delete;
  HazardReclaimer& operator=(const HazardReclaimer&) = delete;

  ~HazardReclaimer() {
    // Unregister first so no thread-exit walk can race teardown.
    detail::ChurnRegistry::get().remove_lessor(id_);
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      for (const Retired& r : slots_[i].retired) destroy_retired(r);
      slots_[i].retired.clear();
    }
    // Orphans from exited threads that no scan adopted: destruction is
    // quiesced by contract, so no hazard can still protect them.
    for (const Retired& r : orphans_) destroy_retired(r);
    orphans_.clear();
  }

  /// Highest slot index ever claimed — the churn harness's bounded-lease
  /// gauge (EXPERIMENTS.md E15).
  std::size_t slot_hwm() const { return hwm_.load(std::memory_order_acquire); }

  class Guard {
   public:
    Guard(HazardReclaimer* r, Slot* s) : r_(r), s_(s) {}
    Guard(Guard&& o) noexcept : r_(o.r_), s_(o.s_) { o.s_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

    ~Guard() {
      if (s_ == nullptr) return;
      for (auto& h : s_->hazard) h.store(nullptr, std::memory_order_release);
    }

    template <typename T>
    T* protect(const std::atomic<T*>& src, unsigned slot = 0) {
      T* p = src.load(std::memory_order_acquire);
      while (true) {
        s_->hazard[slot].store(p, std::memory_order_seq_cst);
        T* q = src.load(std::memory_order_acquire);
        if (q == p) return p;
        p = q;
      }
    }

    /// Safe load of a packed head word: publishes the node pointer
    /// `unpack` extracts from it as the hazard, with the usual
    /// publish-and-revalidate loop on the whole word.
    template <typename Unpack>
    std::uint64_t protect_word(const std::atomic<std::uint64_t>& src,
                               Unpack unpack, unsigned slot = 0) {
      std::uint64_t w = src.load(std::memory_order_acquire);
      while (true) {
        s_->hazard[slot].store(unpack(w), std::memory_order_seq_cst);
        const std::uint64_t w2 = src.load(std::memory_order_acquire);
        if (w2 == w) return w;
        w = w2;
      }
    }

    /// Safe snapshot of a two-word (16-byte) head: `load` returns the word
    /// pair (already internally consistent — e.g. core::dwcas_snapshot),
    /// `unpack` the two node pointers to shield. Publishes both into
    /// slots first_slot / first_slot + 1 and revalidates the pair, the
    /// protect_word loop widened to two words. Tags inside the words make
    /// "unchanged" mean "no successful CAS in between", so both pointers
    /// are still reachable from the head when the loop exits.
    template <typename Load, typename Unpack>
    auto protect_pair(Load&& load, Unpack&& unpack, unsigned first_slot = 0) {
      auto w = load();
      while (true) {
        const auto ptrs = unpack(w);
        s_->hazard[first_slot].store(ptrs.first, std::memory_order_seq_cst);
        s_->hazard[first_slot + 1].store(ptrs.second,
                                         std::memory_order_seq_cst);
        const auto w2 = load();
        if (w2 == w) return w;
        w = w2;
      }
    }

    /// Publish one extra raw pointer (e.g. the old end node a deque
    /// stabilization bridges, or a freshly pushed node a helper may pop
    /// before its owner stabilizes). The caller must revalidate that the
    /// node is still reachable after publication before dereferencing —
    /// publication alone cannot shield memory that was already freed.
    void protect_raw(void* node, unsigned slot) {
      s_->hazard[slot].store(node, std::memory_order_seq_cst);
    }

    template <typename T>
    void retire(T* node) {
      r_->retire_at(s_, node, nullptr,
                    [](void* p, void*) { delete static_cast<T*>(p); });
    }

    /// Retire a node owned by an allocator policy: the deferred free
    /// returns the block to `alloc` (which must outlive this reclaimer)
    /// instead of heap-deleting it.
    template <typename T, typename Alloc>
    void retire(T* node, Alloc& alloc) {
      r_->retire_at(s_, node, &alloc, [](void* p, void* a) {
        static_cast<Alloc*>(a)->release(static_cast<T*>(p));
      });
    }

   private:
    HazardReclaimer* r_;
    Slot* s_;
  };

  Guard pin() {
    obs::count<obs::Counter::kHazardPins>();
    return Guard(this, local_slot());
  }

 private:
  /// Release the slot `token` holds on this instance (thread-exit walk or
  /// post-abandon race, arbitrated by the owner CAS).
  void release_thread(std::uint64_t token) noexcept override {
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i].owner.load(std::memory_order_relaxed) != token) continue;
      if (detail::acquire_for_cleanse(slots_[i], token)) {
        obs::count<obs::Counter::kSlotExitReleases>();
        cleanse_slot(slots_[i]);
        slots_[i].owner.store(0, std::memory_order_release);
      }
      return;
    }
  }

  /// Null the slot's protections and move its retirees to the orphan
  /// list; the next scan adopts them (re-checking live hazards before any
  /// free, as for its own retirees). Caller holds the arbitration CAS.
  void cleanse_slot(Slot& s) noexcept {
    for (auto& h : s.hazard) h.store(nullptr, std::memory_order_release);
    if (!s.retired.empty()) {
      std::lock_guard<std::mutex> lock(orphan_mu_);
      // Runs on the noexcept exit walk: reach capacity before moving
      // anything; if even that fails, leak the retirees visibly rather
      // than terminate (DESIGN.md §15).
      try {
        orphans_.reserve(orphans_.size() + s.retired.size());
        orphans_.insert(orphans_.end(), s.retired.begin(), s.retired.end());
      } catch (const std::bad_alloc&) {
        obs::count<obs::Counter::kRetireLeaks>(s.retired.size());
      }
      s.retired.clear();
      orphan_count_.store(orphans_.size(), std::memory_order_release);
    }
  }

  /// Destroy one retiree, absorbing resource failure: a pooled release
  /// can throw SlotsExhausted after the node's destructor has run —
  /// leak the block and keep going (DESIGN.md §15), counted.
  static void destroy_retired(const Retired& r) noexcept {
    try {
      r.destroy(r.node, r.ctx);
    } catch (...) {
      obs::count<obs::Counter::kRetireLeaks>();
    }
  }

  /// Never lets a resource exception escape: called after a pop has
  /// linearized, so a throw here would lose a delivered element.
  void retire_at(Slot* s, void* node, void* ctx,
                 void (*destroy)(void*, void*)) noexcept {
    try {
      s->retired.push_back(Retired{node, ctx, destroy});
    } catch (const std::bad_alloc&) {
      obs::count<obs::Counter::kRetireLeaks>();
      return;
    }
    if (s->retired.size() >= kScanThreshold) scan(s);
  }

  void scan(Slot* s) noexcept {
    // Injected deferral: a skipped scan only delays frees; the retired
    // list keeps growing until a later scan succeeds — exactly the
    // real-bad_alloc fallback below.
    if (R2D_HOOK_POINT(kHazardScan)) [[unlikely]] return;
    obs::count<obs::Counter::kHazardScans>();
    // Adopt orphaned retirees first: they get the same hazard re-check as
    // our own, so a node a live thread still protects survives the scan.
    if (orphan_count_.load(std::memory_order_acquire) != 0) {
      std::lock_guard<std::mutex> lock(orphan_mu_);
      if (!orphans_.empty()) {
        bool adopted = true;
        try {
          s->retired.reserve(s->retired.size() + orphans_.size());
        } catch (const std::bad_alloc&) {
          adopted = false;  // skip adoption; orphans stay queued
        }
        if (adopted) {
          obs::count<obs::Counter::kHazardOrphansAdopted>(orphans_.size());
          s->retired.insert(s->retired.end(), orphans_.begin(),
                            orphans_.end());
          orphans_.clear();
          orphan_count_.store(0, std::memory_order_release);
        }
      }
    }
    std::vector<void*> hazards;
    std::vector<Retired> keep;
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    try {
      hazards.reserve(n * kMaxProtected);
      keep.reserve(s->retired.size());
    } catch (const std::bad_alloc&) {
      return;  // defer the whole scan; retirees stay parked in the slot
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& h : slots_[i].hazard) {
        void* p = h.load(std::memory_order_seq_cst);
        if (p != nullptr) hazards.push_back(p);
      }
    }
    std::sort(hazards.begin(), hazards.end());
    for (const Retired& r : s->retired) {
      if (std::binary_search(hazards.begin(), hazards.end(), r.node)) {
        keep.push_back(r);
      } else {
        destroy_retired(r);
      }
    }
    s->retired.swap(keep);
  }

  Slot* local_slot() {
    thread_local detail::SlotCache<Slot> cache;
    Slot* s = cache.lookup(id_, detail::thread_token());
    if (s == nullptr) {
      s = detail::claim_slot(
          slots_.get(), max_slots_, hwm_, id_,
          static_cast<detail::Lessor*>(this),
          [](const Slot& slot) {
            // Quiesced = no protection published: a thread that died
            // mid-protect leaks its slot rather than risking a freed node
            // it still shields.
            for (const auto& h : slot.hazard) {
              if (h.load(std::memory_order_acquire) != nullptr) return false;
            }
            return true;
          },
          [this](Slot& slot) {
            obs::count<obs::Counter::kSlotSteals>();
            cleanse_slot(slot);
          });
      cache.insert(id_, s);
    }
    return s;
  }

  const std::uint64_t id_ = detail::next_instance_id();
  // R2D_MAX_SLOTS, read once per process; declared before slots_ (which
  // it sizes). claim_slot throws SlotsExhausted past this many threads.
  const std::size_t max_slots_ = detail::max_slots();
  std::atomic<std::size_t> hwm_{0};
  std::unique_ptr<Slot[]> slots_{new Slot[max_slots_]};
  // Retirees handed over by exited threads, adopted by the next scan.
  std::mutex orphan_mu_;
  std::vector<Retired> orphans_;
  std::atomic<std::size_t> orphan_count_{0};
};

}  // namespace r2d::reclaim
