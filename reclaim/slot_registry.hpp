// Per-thread slot leases shared by the epoch/hazard reclaimers and the
// pool allocator.
//
// Each lessor instance owns a fixed array of cache-line-sized slots; a
// thread claims one slot per instance on first use and caches the mapping
// in a small thread-local ring keyed by a process-unique instance id (so a
// destroyed instance's cache entry can never be mistaken for a live one,
// even if the allocator reuses the address).
//
// Slots are *leases*, not lifetime bindings (DESIGN.md §13). Three layers
// make a slot a renewable resource under unbounded thread churn:
//
//  1. A process-wide ChurnRegistry of live lessor instances plus live
//     thread tokens. A pthread-key exit hook walks the dying thread's
//     leases and releases each slot back to any still-live instance —
//     epoch slots hand their retired buckets to the instance's orphan
//     queue, hazard slots null their protections and transfer retirees,
//     pool slots flush their magazines. Both destruction orders are safe:
//     an instance destroyed first unregisters, so the exit walk skips it;
//     a thread exiting first leaves nothing behind for the instance's
//     destructor to special-case.
//  2. Slot *stealing* in claim_slot (the R2D_SLOT_STEAL knob, default on):
//     before throwing SlotsExhausted, the claimer scans for slots whose
//     owner token is dead (a thread that skipped its exit hook — killed,
//     or claiming past PTHREAD_DESTRUCTOR_ITERATIONS) and quiesced, and
//     reclaims them.
//  3. An owner-arbitration protocol: every transition away from a claimed
//     owner — steal, exit-walk release, or the owner itself retaking a
//     slot after being marked dead — goes through one CAS
//     (owner: token -> kSlotStealing), so exactly one party cleanses the
//     slot and a revenant thread can never write through a stolen slot.
//     The thread-local SlotCache revalidates owner (and the thread's own
//     liveness) on every hit for the same reason.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sched/hook.hpp"
#include "util/env.hpp"

namespace r2d::reclaim {

namespace detail {
/// Installed by obs::Metrics::get() (obs/metrics.hpp): returns a
/// metrics-snapshot suffix appended to SlotsExhausted's message (steal /
/// exit-release / orphan-queue counts) so post-mortems carry state. A raw
/// function pointer because obs/ includes this header, not vice versa.
inline std::string (*slots_exhausted_annotator)() = nullptr;

inline std::string slots_exhausted_message(std::size_t max_slots,
                                           std::size_t live,
                                           std::size_t leaked,
                                           std::size_t stealable) {
  std::string message =
      "r2d::reclaim: all " + std::to_string(max_slots) +
      " per-thread slots of this instance are claimed: " +
      std::to_string(live) + " by live threads, " + std::to_string(stealable) +
      " stealable (exited threads; enable R2D_SLOT_STEAL=1 to reclaim "
      "them), " +
      std::to_string(leaked) +
      " leaked (threads that died mid-operation or without their exit "
      "hook). Slots are leases released at thread exit, so only live "
      "threads should count against the cap; raise R2D_MAX_SLOTS if "
      "the live demand is real.";
  if (slots_exhausted_annotator != nullptr) {
    message += slots_exhausted_annotator();
  }
  return message;
}
}  // namespace detail

/// Thrown when a reclaimer/allocator instance has no per-thread slot left
/// for the calling thread. Since slots are leases (released at thread
/// exit, stolen from dead threads when R2D_SLOT_STEAL is on), this means
/// the *live* demand exceeded the cap — or stealing is disabled and dead
/// threads' slots are parked. The message reports the split so the remedy
/// (raise R2D_MAX_SLOTS, or enable R2D_SLOT_STEAL) is readable off the
/// exception — plus, when metrics are enabled, an obs snapshot suffix.
class SlotsExhausted : public std::runtime_error {
 public:
  SlotsExhausted(std::size_t max_slots, std::size_t live, std::size_t leaked,
                 std::size_t stealable)
      : std::runtime_error(
            detail::slots_exhausted_message(max_slots, live, leaked,
                                            stealable)) {}
};

namespace detail {

/// Per-instance slot-array size: the R2D_MAX_SLOTS knob (default 256),
/// read once per process and clamped to a sane range. Every reclaimer or
/// PoolAlloc instance constructed afterwards sizes its registry from it.
inline std::size_t max_slots() {
  static const std::size_t cached = [] {
    const std::uint64_t raw = util::env_u64("R2D_MAX_SLOTS", 256);
    return static_cast<std::size_t>(raw < 1 ? 1 : (raw > 65536 ? 65536 : raw));
  }();
  return cached;
}

/// R2D_SLOT_STEAL (default 1): whether claim_slot may reclaim slots whose
/// owner token is dead and whose state is quiesced, instead of throwing.
inline bool slot_steal_enabled() {
  static const bool cached = util::env_u64("R2D_SLOT_STEAL", 1) != 0;
  return cached;
}

inline std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t thread_token() {
  static std::atomic<std::uint64_t> counter{1};
  thread_local std::uint64_t token =
      counter.fetch_add(1, std::memory_order_relaxed);
  return token;
}

/// Owner-word sentinel held while a slot is being cleansed (stolen,
/// released at exit, or retaken by a resurrected owner). Tokens start at 1
/// and never reach it. Any party moving a slot away from a claimed owner
/// must win CAS(owner: token -> kSlotStealing) first — that one word
/// arbitrates every racing transition.
inline constexpr std::uint64_t kSlotStealing = ~std::uint64_t{0};

/// What a lessor (reclaimer / pool allocator) exposes to the churn
/// registry: release whatever slot the given thread token holds on this
/// instance. Called at thread exit for instances still registered; must be
/// a no-op when the token holds nothing (its slot may already be stolen).
class Lessor {
 public:
  virtual void release_thread(std::uint64_t token) noexcept = 0;

 protected:
  ~Lessor() = default;
};

/// The calling thread's lease book: its token, a liveness flag mirrored
/// into the registry's live-token set, and the (instance id, lessor) pairs
/// it holds slots on. Owned by the thread (only the owner appends/reads
/// the vector); `live` is written under the registry mutex so stealers get
/// a happens-before edge to everything the thread did before abandoning.
struct ThreadLeases {
  std::uint64_t token = 0;
  std::atomic<bool> live{true};
  std::vector<std::pair<std::uint64_t, Lessor*>> leases;
};

/// Thread-local handle to this thread's lease book. Raw trivially-
/// destructible pointer so it stays readable during TLS teardown; nulled
/// by the exit hook when the book is freed.
inline thread_local ThreadLeases* tl_leases = nullptr;

/// Process-wide registry of live lessor instances and live thread tokens.
/// Leaked singleton (never destroyed) so threads exiting after main can
/// still walk it. All cold-path: claims on a fresh (thread, instance)
/// pair, thread exit, instance construction/destruction, steal scans.
class ChurnRegistry {
 public:
  static ChurnRegistry& get() {
    static ChurnRegistry* instance = new ChurnRegistry;
    return *instance;
  }

  void add_lessor(std::uint64_t id, Lessor* lessor) {
    std::lock_guard<std::mutex> lock(mu_);
    lessors_.emplace(id, lessor);
  }

  /// Instance destructors call this FIRST, before tearing anything down:
  /// the mutex serializes against exit walks mid-release on this instance.
  void remove_lessor(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    lessors_.erase(id);
  }

  /// Record, on the calling thread, that `token` is live and holds (or is
  /// about to claim) a slot on instance `id`. Must complete before the
  /// slot can be observed owned by `token`, or a stealer could reap the
  /// slot out from under the claimer. Returns true when the thread had
  /// been marked dead (abandoned) and was resurrected — the caller must
  /// then retake any previously owned slot through the arbitration CAS,
  /// because a stealer may already have sampled the token as dead.
  bool note_claim(std::uint64_t token, std::uint64_t id, Lessor* lessor) {
    ThreadLeases* tl = tl_leases;
    if (tl == nullptr) {
      tl = new ThreadLeases;
      tl->token = token;
      pthread_setspecific(key_, tl);
      tl_leases = tl;
      std::lock_guard<std::mutex> lock(mu_);
      live_.insert(token);
      tl->leases.emplace_back(id, lessor);
      return false;
    }
    bool has_lease = false;
    for (const auto& lease : tl->leases) {
      if (lease.first == id) {
        has_lease = true;
        break;
      }
    }
    if (tl->live.load(std::memory_order_relaxed) && has_lease) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const bool resurrected = !tl->live.load(std::memory_order_relaxed);
    if (resurrected) {
      live_.insert(token);
      tl->live.store(true, std::memory_order_relaxed);
      // The exit hook may have already fired and freed the book's pthread
      // slot; re-arm it so this claim is released too (pthread re-runs
      // destructors for re-set keys, PTHREAD_DESTRUCTOR_ITERATIONS deep).
      if (pthread_getspecific(key_) == nullptr) pthread_setspecific(key_, tl);
    }
    if (!has_lease) tl->leases.emplace_back(id, lessor);
    return resurrected;
  }

  /// Is this token's thread still live? Steal candidates must answer no.
  /// Taken under the mutex so a false answer happens-after everything the
  /// thread published before it was marked dead.
  bool is_live(std::uint64_t token) {
    std::lock_guard<std::mutex> lock(mu_);
    return live_.count(token) != 0;
  }

  /// Mark the CALLING thread dead without releasing its leases — what a
  /// thread killed without running TLS destructors looks like to the rest
  /// of the process. Its slots become steal candidates once quiesced. The
  /// thread may come back (a "revenant"): its next claim resurrects it via
  /// note_claim and retakes or replaces its slots safely. Exists for the
  /// steal path's regression tests; real code never needs it.
  void abandon_current_thread() {
    ThreadLeases* tl = tl_leases;
    if (tl == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(tl->token);
    tl->live.store(false, std::memory_order_relaxed);
  }

 private:
  ChurnRegistry() { pthread_key_create(&key_, &key_destructor); }

  static void key_destructor(void* value) {
    auto* tl = static_cast<ThreadLeases*>(value);
    get().thread_exited(tl);
    tl_leases = nullptr;
    delete tl;
  }

  /// The exit walk: runs on the dying thread. Releases every lease whose
  /// instance is still registered; instances destroyed earlier were
  /// unregistered and are skipped (their ids are never reused).
  void thread_exited(ThreadLeases* tl) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(tl->token);
    tl->live.store(false, std::memory_order_relaxed);
    for (const auto& [id, lessor] : tl->leases) {
      auto it = lessors_.find(id);
      if (it != lessors_.end()) it->second->release_thread(tl->token);
    }
  }

  std::mutex mu_;
  std::unordered_map<std::uint64_t, Lessor*> lessors_;
  std::unordered_set<std::uint64_t> live_;
  pthread_key_t key_;
};

/// Win ownership of `slot` away from `expected_owner` (which may be the
/// calling thread's own token, when resurrecting). True means the caller
/// is now the unique cleanser and must store the new owner when done.
template <typename Slot>
bool acquire_for_cleanse(Slot& slot, std::uint64_t expected_owner) {
  return slot.owner.compare_exchange_strong(expected_owner, kSlotStealing,
                                            std::memory_order_acq_rel);
}

/// Claim-or-reuse a slot in `slots[0..max_slots)` for the calling thread.
/// `Slot` must expose `std::atomic<std::uint64_t> owner` (0 = free).
/// `hwm` tracks the number of slots ever claimed so scans stay short.
/// `quiesced(slot)` says whether a dead owner's slot holds no in-flight
/// operation state (e.g. epoch == idle) and may be cleansed; `cleanse`
/// transfers its parked resources (retired lists, magazines) back to the
/// instance. Both run only on slots won through the arbitration CAS.
template <typename Slot, typename Quiesced, typename Cleanse>
Slot* claim_slot(Slot* slots, std::size_t max_slots,
                 std::atomic<std::size_t>& hwm, std::uint64_t instance_id,
                 Lessor* lessor, Quiesced&& quiesced, Cleanse&& cleanse) {
  // Injected exhaustion: what every claim site must absorb — thrown at
  // entry, before any registry or slot state is touched, so unwinding
  // observes exactly the pre-call container state.
  if (R2D_HOOK_POINT(kSlotClaim)) [[unlikely]] {
    throw SlotsExhausted(max_slots, max_slots, 0, 0);
  }
  const std::uint64_t token = thread_token();
  ChurnRegistry& registry = ChurnRegistry::get();
  const bool resurrected = registry.note_claim(token, instance_id, lessor);

  // Reuse the thread's already-claimed slot. A resurrected thread must
  // retake it through the arbitration CAS — a stealer that sampled this
  // token as dead may be racing us for it, and only one side may win.
  const std::size_t seen = hwm.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < seen; ++i) {
    if (slots[i].owner.load(std::memory_order_relaxed) != token) continue;
    if (!resurrected) return &slots[i];
    if (acquire_for_cleanse(slots[i], token)) {
      slots[i].owner.store(token, std::memory_order_release);
      return &slots[i];
    }
    break;  // lost the retake; fall through and claim another slot
  }

  auto claim_free = [&]() -> Slot* {
    for (std::size_t i = 0; i < max_slots; ++i) {
      std::uint64_t expected = 0;
      if (slots[i].owner.load(std::memory_order_relaxed) == 0 &&
          slots[i].owner.compare_exchange_strong(expected, token,
                                                 std::memory_order_acq_rel)) {
        std::size_t cur = hwm.load(std::memory_order_relaxed);
        while (cur < i + 1 &&
               !hwm.compare_exchange_weak(cur, i + 1,
                                          std::memory_order_acq_rel)) {
        }
        return &slots[i];
      }
    }
    return nullptr;
  };
  if (Slot* s = claim_free()) return s;

  // Injected steal failure: skipping the pass models losing every
  // arbitration CAS; the claimer then reports exhaustion exactly as if
  // the dead slots were not quiesced.
  if (slot_steal_enabled() && !R2D_HOOK_POINT(kSlotSteal)) {
    // Steal pass: reclaim a slot whose owner's thread is gone and whose
    // state is quiesced. is_live under the registry mutex gives the edge
    // that makes the dead owner's parked state safe to read after the CAS.
    for (std::size_t i = 0; i < max_slots; ++i) {
      const std::uint64_t owner =
          slots[i].owner.load(std::memory_order_acquire);
      if (owner == 0 || owner == kSlotStealing || owner == token) continue;
      if (registry.is_live(owner)) continue;
      if (!quiesced(slots[i])) continue;
      if (!acquire_for_cleanse(slots[i], owner)) continue;
      cleanse(slots[i]);
      slots[i].owner.store(token, std::memory_order_release);
      return &slots[i];
    }
    // Exit walks may have freed slots while we scanned; one more pass
    // before giving up.
    if (Slot* s = claim_free()) return s;
  }

  // Diagnostic failure, not an opaque abort: report the live / stealable /
  // leaked split and the two knobs, and propagate out of the container
  // operation that needed the slot so callers can catch it at a clean
  // boundary. Regression-tested by tests/test_slot_exhaustion.
  std::size_t live = 0, leaked = 0, stealable = 0;
  for (std::size_t i = 0; i < max_slots; ++i) {
    const std::uint64_t owner = slots[i].owner.load(std::memory_order_acquire);
    if (owner == 0 || owner == kSlotStealing) continue;
    if (registry.is_live(owner)) {
      ++live;
    } else if (quiesced(slots[i])) {
      ++stealable;
    } else {
      ++leaked;
    }
  }
  throw SlotsExhausted(max_slots, live, leaked, stealable);
}

/// Claim-only variant for *process-lifetime static* pools (the elimination
/// stack's collision records): no registry participation, because the
/// caller releases the slot itself from a thread_local destructor — safe
/// precisely because the pool is never destroyed, so there is no
/// destruction order to arbitrate. A thread killed without running TLS
/// destructors parks its slot for good (sequence tags keep any reuse
/// safe), hence the throw reports every claimed slot as live.
template <typename Slot>
Slot* claim_slot(Slot* slots, std::size_t max_slots,
                 std::atomic<std::size_t>& hwm) {
  const std::uint64_t token = thread_token();
  const std::size_t seen = hwm.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < seen; ++i) {
    if (slots[i].owner.load(std::memory_order_relaxed) == token) {
      return &slots[i];
    }
  }
  for (std::size_t i = 0; i < max_slots; ++i) {
    std::uint64_t expected = 0;
    if (slots[i].owner.load(std::memory_order_relaxed) == 0 &&
        slots[i].owner.compare_exchange_strong(expected, token,
                                               std::memory_order_acq_rel)) {
      std::size_t cur = hwm.load(std::memory_order_relaxed);
      while (cur < i + 1 &&
             !hwm.compare_exchange_weak(cur, i + 1,
                                        std::memory_order_acq_rel)) {
      }
      return &slots[i];
    }
  }
  throw SlotsExhausted(max_slots, max_slots, 0, 0);
}

/// Thread-local (instance id -> slot) cache. Small ring with LRU-ish
/// eviction; a miss falls back to claim_slot (which reuses the thread's
/// already-claimed slot if it has one). Every hit revalidates that the
/// slot still belongs to this thread AND that this thread is still marked
/// live — a stolen, released, or abandoned slot must never be used through
/// the ring (DESIGN.md §13).
template <typename Slot, unsigned kWays = 8>
class SlotCache {
 public:
  Slot* lookup(std::uint64_t instance_id, std::uint64_t token) {
    // Last-hit fast path: back-to-back operations on one instance — the
    // per-op common case — pay the liveness flag, one compare, and one
    // owner load (the slot line the operation touches anyway), no scan.
    if (last_id_ == instance_id) {
      if (validate(last_slot_, token)) [[likely]] return last_slot_;
      purge(instance_id);
      return nullptr;
    }
    for (unsigned i = 0; i < kWays; ++i) {
      if (entries_[i].id == instance_id) {
        Slot* slot = entries_[i].slot;
        if (!validate(slot, token)) {
          entries_[i] = Entry{};
          return nullptr;
        }
        last_id_ = instance_id;
        last_slot_ = slot;
        return slot;
      }
    }
    return nullptr;
  }

  void insert(std::uint64_t instance_id, Slot* slot) {
    entries_[next_] = Entry{instance_id, slot};
    next_ = (next_ + 1) % kWays;
    last_id_ = instance_id;
    last_slot_ = slot;
  }

 private:
  static bool validate(Slot* slot, std::uint64_t token) {
    const ThreadLeases* tl = tl_leases;
    return tl != nullptr && tl->live.load(std::memory_order_relaxed) &&
           slot->owner.load(std::memory_order_acquire) == token;
  }

  void purge(std::uint64_t instance_id) {
    last_id_ = 0;
    last_slot_ = nullptr;
    for (unsigned i = 0; i < kWays; ++i) {
      if (entries_[i].id == instance_id) entries_[i] = Entry{};
    }
  }

  struct Entry {
    std::uint64_t id = 0;
    Slot* slot = nullptr;
  };
  Entry entries_[kWays];
  std::uint64_t last_id_ = 0;
  Slot* last_slot_ = nullptr;
  unsigned next_ = 0;
};

}  // namespace detail
}  // namespace r2d::reclaim
