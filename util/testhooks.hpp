// What fault/ and sched/ share beneath the hook layer (DESIGN.md §15/§16):
// the one compile switch, the one "armed" word every hook point reads,
// and the seeded RNG steps both subsystems draw from.
//
// `-DR2D_TESTHOOKS=1` (CMake option, default OFF) compiles the fault
// injector and the deterministic scheduler in together. In that build a
// dormant `R2D_HOOK_POINT(site)` (sched/hook.hpp) is one relaxed load of
// `armed`; the fault bit is set while a non-off injection policy is
// configured, the sched bit while a seeded run() is in flight. The
// default build folds every hook point to `false` and has no armed word.
//
// Layering: standard library only, so fault/ and sched/ both include it
// without including each other.
#pragma once

#include <atomic>
#include <cstdint>

#ifndef R2D_TESTHOOKS
#define R2D_TESTHOOKS 0
#endif

namespace r2d::testhooks {

inline constexpr bool kCompiled = R2D_TESTHOOKS != 0;

/// splitmix64: turns any seed (including 0) into a full-entropy xorshift
/// state; also used to decorrelate per-thread streams.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One xorshift64* step: advances `state` and returns the scrambled draw.
inline std::uint64_t xorshift64star(std::uint64_t& state) {
  std::uint64_t x = state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  state = x;
  return x * 0x2545f4914f6cdd1dull;
}

#if R2D_TESTHOOKS

inline constexpr unsigned kFaultArmed = 1u;
inline constexpr unsigned kSchedArmed = 2u;

/// Which test hooks are live. Written only at quiescence (configure, run
/// start/end), so relaxed ordering suffices: threads that evaluate hook
/// points are spawned after the write.
inline std::atomic<unsigned> armed{0};

inline void set_armed(unsigned bit, bool on) {
  if (on) {
    armed.fetch_or(bit, std::memory_order_relaxed);
  } else {
    armed.fetch_and(~bit, std::memory_order_relaxed);
  }
}

#endif  // R2D_TESTHOOKS

}  // namespace r2d::testhooks
