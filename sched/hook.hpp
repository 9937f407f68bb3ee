// The shared hook-point layer (DESIGN.md §15/§16).
//
// One site list feeds three consumers: fault injection decides whether
// this evaluation should *fail* (fault/inject.hpp), obs counts what got
// injected (via fault's on_inject hook), and the deterministic
// scheduler treats every hook as a potential *preemption point*
// (sched/dst.hpp). `R2D_HOOK_POINT(site)` reads as a predicate:
//
//   if (R2D_HOOK_POINT(kHeapAlloc)) throw std::bad_alloc{};
//
// but first gives the scheduler a chance to deschedule the calling
// thread — so the site catalogue in fault/inject.hpp doubles as the
// scheduler's interleaving vocabulary, and a site added for fault
// torture becomes an adversarial schedule point for free.
//
// In the default build (R2D_TESTHOOKS=0) the whole expression folds to
// `false` and dead-code-eliminates. In the -DR2D_TESTHOOKS=1 build a
// dormant site is one relaxed load of the shared armed word
// (util/testhooks.hpp); the ci.sh overhead guard holds that to ≤5%.
#pragma once

#include "fault/inject.hpp"
#include "sched/dst.hpp"
#include "util/testhooks.hpp"

#if R2D_TESTHOOKS

namespace r2d::testhooks {

/// Preemption point + fault point, in that order: the scheduler may
/// interleave another thread *before* the fault decision, so the
/// injected failure lands in the freshest adversarial state.
template <fault::Site S>
inline bool hook_point() {
  const unsigned live = armed.load(std::memory_order_relaxed);
  if (live == 0) [[likely]] return false;
  if ((live & kSchedArmed) != 0) sched::Scheduler::get().preempt();
  return (live & kFaultArmed) != 0 && fault::injector().evaluate(S);
}

}  // namespace r2d::testhooks

#define R2D_HOOK_POINT(site) \
  (::r2d::testhooks::hook_point<::r2d::fault::Site::site>())

#else

/// A constant false that still requires `site` to name a real Site.
#define R2D_HOOK_POINT(site) \
  (static_cast<void>(::r2d::fault::Site::site), false)

#endif  // R2D_TESTHOOKS
