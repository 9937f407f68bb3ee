// Non-throwing operation status (DESIGN.md §15).
//
// Every container's `try_push` family reports resource failure as a
// value instead of an exception: `kNoMemory` for allocation failure
// (bad_alloc from an exhausted, non-growable pool or from HeapAlloc) and
// `kNoSlots` for reclaimer/allocator slot-lease exhaustion
// (SlotsExhausted past R2D_MAX_SLOTS). Both map onto the same strong
// guarantee the throwing form documents: the container is unchanged and
// no node is leaked.
#pragma once

#include <cstdint>

namespace r2d::core {

enum class OpStatus : std::uint8_t {
  kOk = 0,      ///< the element was inserted
  kNoMemory,    ///< allocation failed; container unchanged
  kNoSlots,     ///< slot lease exhausted (SlotsExhausted); unchanged
};

constexpr const char* to_string(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kNoMemory: return "no-memory";
    case OpStatus::kNoSlots: return "no-slots";
  }
  return "?";
}

}  // namespace r2d::core
