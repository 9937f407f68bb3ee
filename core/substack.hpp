// Packed-head Treiber sub-stacks: the columns every distributed stack in
// this repo is built from.
//
// A column's head is one 64-bit word packing the 48-bit node pointer with
// a 16-bit saturating item count (the same canonical-address assumption
// reclaim::Pool static_asserts). Pointer and count change together in one
// CAS, so eligibility checks (count < max, count > low) read a single
// atomic word with *no dereference* — pushes and window probes need no SMR
// guard at all; only a pop, which must read head->next, pins its
// reclaimer. See DESIGN.md §8 for the layout and saturation protocol.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "sched/dst.hpp"

namespace r2d::core {

static_assert(sizeof(void*) == 8,
              "packed column heads put a 16-bit count above 48-bit pointers");

/// Low bits of the head word holding the node pointer (x86-64 / AArch64
/// canonical user addresses fit in 48 bits).
inline constexpr unsigned kPackedPtrBits = 48;
inline constexpr std::uint64_t kPackedPtrMask =
    (std::uint64_t{1} << kPackedPtrBits) - 1;

/// Saturation ceiling of the packed per-column count. A stored count of
/// kPackedCountMax means "at least this many" and is sticky until the
/// column drains empty (see packed_count_after_pop), preserving the
/// count == 0 <=> empty invariant the pop certification relies on.
inline constexpr std::uint64_t kPackedCountMax =
    (std::uint64_t{1} << (64 - kPackedPtrBits)) - 1;

template <typename T>
struct StackNode {
  StackNode* next;
  T value;
};

/// Head word -> node pointer. 0 packs to nullptr, so an empty column is
/// word == 0.
template <typename T>
inline StackNode<T>* head_node(std::uint64_t word) {
  return reinterpret_cast<StackNode<T>*>(word & kPackedPtrMask);
}

/// Head word -> column count.
inline std::uint64_t head_count(std::uint64_t word) {
  return word >> kPackedPtrBits;
}

/// (node pointer, count) -> head word. The canonical-address assumption is
/// asserted in debug builds: an allocator handing out addresses above 2^48
/// (e.g. arm64 52-bit VA) would be silently truncated otherwise.
template <typename T>
inline std::uint64_t pack_head(StackNode<T>* node, std::uint64_t count) {
  assert((reinterpret_cast<std::uint64_t>(node) & ~kPackedPtrMask) == 0 &&
         "node pointer exceeds the 48-bit packed-head range");
  return (reinterpret_cast<std::uint64_t>(node) & kPackedPtrMask) |
         (count << kPackedPtrBits);
}

/// Count to store when pushing on top of head word `word`: exact below the
/// ceiling, saturating at it.
inline std::uint64_t packed_count_after_push(std::uint64_t word) {
  const std::uint64_t count = head_count(word);
  return count >= kPackedCountMax ? kPackedCountMax : count + 1;
}

/// Count to store when popping head word `word`, whose successor is
/// `next`. Below the ceiling counts are exact and decrement; a saturated
/// count stays saturated (the true occupancy beyond it is unknown) until
/// the column empties, which resets it to zero.
template <typename T>
inline std::uint64_t packed_count_after_pop(std::uint64_t word,
                                            const StackNode<T>* next) {
  if (next == nullptr) return 0;
  const std::uint64_t count = head_count(word);
  return count >= kPackedCountMax ? kPackedCountMax : count - 1;
}

template <typename T>
struct alignas(64) StackColumn {
  /// Packed head word (see pack_head); 0 = empty column.
  std::atomic<std::uint64_t> head{0};
};

/// Single-threaded teardown helper for container destructors: every node
/// goes back to the allocator policy that produced it.
template <typename T, typename Alloc>
inline void drain_column(StackColumn<T>& column, Alloc& alloc) {
  StackNode<T>* node =
      head_node<T>(column.head.load(std::memory_order_relaxed));
  column.head.store(0, std::memory_order_relaxed);
  while (node != nullptr) {
    StackNode<T>* next = node->next;
    alloc.release(node);
    node = next;
  }
}

/// Thread-local (instance id -> value) map for per-thread container state
/// such as the preferred column index. Keyed by a process-unique instance
/// id the way reclaim::detail::SlotCache keys reclaimer slots: a bare
/// thread_local would be shared by every instance of the same
/// instantiation, letting two containers pollute each other's state (and a
/// destroyed container's entry alias a new one). Small ring with LRU-ish
/// eviction; the returned reference stays valid until this thread's next
/// lookup for a different instance.
template <typename V, unsigned kWays = 8>
class InstanceLocal {
 public:
  V& get(std::uint64_t instance_id) {
    // Last-hit fast path: repeat access to the same instance — the per-op
    // common case — is one compare, no scan.
    if (last_ != nullptr && last_->id == instance_id) return last_->value;
    return lookup(instance_id);
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    V value{};
  };

  V& lookup(std::uint64_t instance_id) {
    for (Entry& e : entries_) {
      if (e.id == instance_id) {
        last_ = &e;
        return e.value;
      }
    }
    Entry& e = entries_[next_];
    next_ = (next_ + 1) % kWays;
    e = Entry{instance_id, V{}};
    last_ = &e;
    return e.value;
  }

  Entry entries_[kWays];
  Entry* last_ = nullptr;
  unsigned next_ = 0;
};

/// Thread-local PRNG for hop decisions (xorshift64*; cheap, no libc state).
inline std::uint64_t hop_rand() {
  // Address entropy (ASLR) decorrelates threads for free in production;
  // the test-hook build substitutes a deterministic per-ordinal seed (the
  // DST schedule's inside a seeded run, R2D_FAULT_SEED's outside one) so
  // hop sequences replay (sched/dst.hpp). The init runs at each fresh
  // thread's first call, i.e. while attached.
  thread_local std::uint64_t state = sched::hop_seed(
      0x9e3779b97f4a7c15ull ^
      reinterpret_cast<std::uint64_t>(&state));
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

}  // namespace r2d::core
