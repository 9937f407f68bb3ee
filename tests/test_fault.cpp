// Fault-injection correctness (DESIGN.md §15): injector policy semantics
// and API parity across the test-hook on/off builds, the deterministic
// nth-site OOM sweep (fail exactly the Nth resource acquisition, for every
// N the scripted run reaches, and prove multiset conservation after each),
// a forced-DWCAS helping hammer, and the 4-thread retry/backoff/deadline
// service smoke with the extended conservation identity.
//
// Two modes: when the R2D_FAULT env var selects a live policy (ci.sh's
// rate-torture stage), the process-wide injector self-configures from the
// environment and this binary runs only the concurrent hammers under it.
// Otherwise it runs the full deterministic suite; in the default build
// (R2D_TESTHOOKS=0) the injection-dependent checks degenerate to single
// clean passes through the same code paths (API parity is still asserted).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/two_d_bag.hpp"
#include "core/two_d_deque.hpp"
#include "core/two_d_queue.hpp"
#include "core/two_d_stack.hpp"
#include "fault/inject.hpp"
#include "harness/service/server.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "sched/hook.hpp"
#include "check.hpp"

namespace {

using r2d::fault::Site;
using r2d::reclaim::EpochReclaimer;
using r2d::reclaim::HazardReclaimer;
using r2d::reclaim::HeapAlloc;
using r2d::reclaim::PoolAlloc;

r2d::core::TwoDParams small_params() {
  r2d::core::TwoDParams p;
  p.width = 4;
  p.depth = 16;
  p.shift = 4;
  return p;
}

// ---- generic container surface -------------------------------------------

/// Insert via the non-throwing status API (the surface under test);
/// true when the element actually entered the container.
template <typename C>
bool checked_insert(C& c, std::uint64_t v) {
  if constexpr (requires { c.try_push_front(v); }) {
    return c.try_push_front(v) == r2d::core::OpStatus::kOk;
  } else if constexpr (requires { c.try_push(v); }) {
    return c.try_push(v) == r2d::core::OpStatus::kOk;
  } else {
    return c.try_enqueue(v) == r2d::core::OpStatus::kOk;
  }
}

/// Remove with resource failures absorbed: nullopt means "nothing came
/// out" — empty, contended-and-gave-up, or a SlotsExhausted pin. The
/// strong guarantee makes all three equivalent for conservation.
template <typename C>
std::optional<std::uint64_t> checked_remove(C& c) {
  try {
    if constexpr (requires { c.pop_back(); }) {
      return c.pop_back();
    } else if constexpr (requires { c.pop(); }) {
      return c.pop();
    } else {
      return c.dequeue();
    }
  } catch (const std::bad_alloc&) {
    return std::nullopt;
  } catch (const r2d::reclaim::SlotsExhausted&) {
    return std::nullopt;
  }
}

// ---- injector policy + parity --------------------------------------------

void check_api_parity() {
  auto& inj = r2d::fault::injector();
  inj.configure("off", 0);
  CHECK(!inj.evaluate(Site::kHeapAlloc));
  CHECK_EQ(inj.evals(), std::uint64_t{0});
  CHECK_EQ(inj.injected(), std::uint64_t{0});
  CHECK_EQ(inj.injected(Site::kHeapAlloc), std::uint64_t{0});
  inj.reset_counts();
  CHECK(!R2D_HOOK_POINT(kHeapAlloc));
#if !R2D_TESTHOOKS
  // Off-build parity: the stub is stateless and the hook point folds to
  // a compile-time constant at every call site.
  static_assert(sizeof(r2d::fault::Injector) <= sizeof(void*));
  static_assert(!R2D_HOOK_POINT(kShiftCas));
#endif
  // The site name table is total and invertible.
  for (unsigned i = 0; i < r2d::fault::kSiteCount; ++i) {
    const Site s = static_cast<Site>(i);
    CHECK(r2d::fault::site_from_name(r2d::fault::site_name(s)) == s);
  }
  CHECK(r2d::fault::site_from_name("no-such-site") == Site::kCount);
}

void check_policies() {
  auto& inj = r2d::fault::injector();
  if constexpr (r2d::fault::kCompiled) {
    // nth:K fires exactly once, at the Kth evaluation, deterministically.
    inj.configure("nth:3", 1);
    int fired = -1;
    for (int i = 0; i < 5; ++i) {
      if (inj.evaluate(Site::kHeapAlloc)) fired = i;
    }
    CHECK_EQ(fired, 2);
    CHECK_EQ(inj.injected(), std::uint64_t{1});
    CHECK_EQ(inj.injected(Site::kHeapAlloc), std::uint64_t{1});

    // site:NAME:K ignores other sites and fires once on the Kth of NAME.
    inj.configure("site:shift-cas:2", 1);
    CHECK(!inj.evaluate(Site::kShiftCas));
    CHECK(!inj.evaluate(Site::kHeapAlloc));
    CHECK(inj.evaluate(Site::kShiftCas));
    CHECK(!inj.evaluate(Site::kShiftCas));
    CHECK_EQ(inj.injected(), std::uint64_t{1});
    CHECK_EQ(inj.injected(Site::kShiftCas), std::uint64_t{1});

    // rate:1.0 fires every evaluation; rate:0 and junk parse to off.
    inj.configure("rate:1.0", 99);
    CHECK(inj.evaluate(Site::kDwcasHead));
    CHECK(inj.evaluate(Site::kSlotClaim));
    inj.configure("rate:0", 99);
    CHECK(!inj.evaluate(Site::kDwcasHead));
    inj.configure("bogus:policy", 3);
    CHECK(!inj.evaluate(Site::kHeapAlloc));
    inj.configure("off", 0);
  } else {
    // Disabled build: the same calls compile and never fire.
    inj.configure("nth:1", 1);
    CHECK(!inj.evaluate(Site::kHeapAlloc));
    CHECK_EQ(inj.injected(), std::uint64_t{0});
    inj.configure("off", 0);
  }
}

// ---- deterministic nth OOM sweep -----------------------------------------

/// For N = 1, 2, ... run one scripted single-threaded workload with the
/// Nth fault-point evaluation forced to fail, then disable injection,
/// drain, and assert multiset conservation: every element that entered
/// came out exactly once, nothing duplicated, nothing lost. The sweep
/// ends at the first N no evaluation reaches (the script's last site).
template <typename C>
void oom_sweep(const char* label) {
  auto& inj = r2d::fault::injector();
  std::uint64_t injected_runs = 0;
  std::uint64_t n = 1;
  constexpr std::uint64_t kMaxN = 4000;  // terminates long before this
  for (; n <= kMaxN; ++n) {
    inj.configure("nth:" + std::to_string(n), 42);
    std::multiset<std::uint64_t> expect;
    std::unique_ptr<C> c;
    try {
      c = std::make_unique<C>(small_params());
    } catch (const std::bad_alloc&) {
    } catch (const r2d::reclaim::SlotsExhausted&) {
    }
    if (c) {
      for (std::uint64_t v = 0; v < 24; ++v) {
        if (checked_insert(*c, v)) expect.insert(v);
      }
      for (int i = 0; i < 8; ++i) {
        if (const auto v = checked_remove(*c)) {
          CHECK(expect.count(*v) > 0);
          expect.erase(expect.find(*v));
        }
      }
      for (std::uint64_t v = 100; v < 108; ++v) {
        if (checked_insert(*c, v)) expect.insert(v);
      }
    }
    const std::uint64_t fired = inj.injected();
    inj.configure("off", 0);
    if (c) {
      while (const auto v = checked_remove(*c)) {
        CHECK(expect.count(*v) > 0);
        expect.erase(expect.find(*v));
      }
      CHECK(expect.empty());
      CHECK(c->empty());
    } else {
      CHECK(fired > 0);  // construction only fails when injection fired
    }
    c.reset();  // destroy with injection off
    if (fired == 0) break;  // N is past the script's last evaluation
    ++injected_runs;
  }
  if constexpr (r2d::fault::kCompiled) {
    CHECK(injected_runs > 0);
    CHECK(n <= kMaxN);
  }
  std::printf("  oom sweep %-40s sites=%llu\n", label,
              static_cast<unsigned long long>(injected_runs));
}

void check_oom_sweeps() {
  oom_sweep<r2d::TwoDStack<std::uint64_t, EpochReclaimer, HeapAlloc>>(
      "stack/epoch/heap");
  oom_sweep<r2d::TwoDStack<std::uint64_t, HazardReclaimer, PoolAlloc>>(
      "stack/hazard/pool");
  oom_sweep<r2d::TwoDQueue<std::uint64_t, EpochReclaimer, HeapAlloc>>(
      "queue/epoch/heap");
  oom_sweep<r2d::TwoDQueue<std::uint64_t, HazardReclaimer, PoolAlloc>>(
      "queue/hazard/pool");
  oom_sweep<r2d::TwoDDeque<std::uint64_t, EpochReclaimer, HeapAlloc>>(
      "deque/epoch/heap");
  oom_sweep<r2d::TwoDDeque<std::uint64_t, HazardReclaimer, PoolAlloc>>(
      "deque/hazard/pool");
}

// ---- concurrent hammers ---------------------------------------------------

/// 4 threads hammer `c` with inserts and removes while the current
/// injection policy fires; then injection is disabled, the container is
/// drained, and the union of everything popped plus everything drained
/// must equal — as a multiset — everything successfully pushed. Returns
/// how many faults the policy injected during the hammer.
template <typename C>
std::uint64_t conservation_hammer(C& c, const char* label) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 20000;
  std::vector<std::vector<std::uint64_t>> pushed(kThreads);
  std::vector<std::vector<std::uint64_t>> popped(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const std::uint64_t v = t * 1'000'000'000ull + i;
        if (i % 3 != 2) {
          if (checked_insert(c, v)) pushed[t].push_back(v);
        } else if (const auto got = checked_remove(c)) {
          popped[t].push_back(*got);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t fired = r2d::fault::injector().injected();
  r2d::fault::injector().configure("off", 0);

  std::multiset<std::uint64_t> expect;
  std::multiset<std::uint64_t> got;
  for (unsigned t = 0; t < kThreads; ++t) {
    expect.insert(pushed[t].begin(), pushed[t].end());
    got.insert(popped[t].begin(), popped[t].end());
  }
  while (const auto v = checked_remove(c)) got.insert(*v);
  CHECK(c.empty());
  CHECK_EQ(expect.size(), got.size());
  CHECK(expect == got);
  std::printf("  hammer %-30s pushed=%zu injected=%llu\n", label,
              expect.size(), static_cast<unsigned long long>(fired));
  return fired;
}

/// Forced-DWCAS failures drive the deque's helping/bridge machinery far
/// more often than contention alone would; conservation must survive it.
void check_dwcas_helping_hammer() {
  if constexpr (!r2d::fault::kCompiled) return;
  r2d::TwoDDeque<std::uint64_t> deque(small_params());
  r2d::fault::injector().configure("rate:0.05", 7);
  CHECK(conservation_hammer(deque, "deque forced-dwcas") > 0);
}

/// ci.sh rate-torture entry: the injector already self-configured from
/// the R2D_FAULT env var before main; hammer a stack and a deque under
/// it. The stack hammer runs first, so the env policy must have fired
/// there without any explicit configure() call.
void run_env_torture() {
  {
    r2d::TwoDStack<std::uint64_t, EpochReclaimer, HeapAlloc> stack(
        small_params());
    CHECK(conservation_hammer(stack, "stack env-policy") > 0);
  }
  // Reinstate the env policy (the hammer leaves injection off).
  r2d::fault::injector().configure(
      r2d::util::env_str("R2D_FAULT", "off"),
      r2d::util::env_u64("R2D_FAULT_SEED", 0));
  {
    r2d::TwoDDeque<std::uint64_t, HazardReclaimer, PoolAlloc> deque(
        small_params());
    conservation_hammer(deque, "deque env-policy");
  }
}

// ---- service degradation --------------------------------------------------

/// 4-worker overload smoke: a tiny admission cap under 5x offered load
/// with bounded retries, per-request deadlines, and the degrade
/// controller enabled. The extended conservation identity must hold
/// exactly, and every degradation mechanism must actually engage.
void check_service_degradation() {
  using namespace r2d::harness::service;
  r2d::TwoDBag<Task> bag(small_params());
  ServiceConfig config;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 100000.0;
  config.arrival.seed = 17;
  config.workers = 4;
  config.duration_ms = 60;
  config.shed_cap = 2;
  config.slo_us = 500;
  config.service_ns = 100000;
  config.retry.max_retries = 50;
  config.retry.backoff_ns = 2000;
  config.retry.deadline_us = 2000;
  config.degrade_factor = 4;
  config.degrade_window = 64;

  const ServiceResult r = run_service(bag, config);
  CHECK(r.conserved());
  CHECK(r.generated > 0);
  CHECK_EQ(r.generated, r.admitted + r.shed + r.timed_out);
  CHECK_EQ(r.admitted, r.completed);
  CHECK_EQ(r.response.count(), r.completed);
  CHECK(r.completed > 0);
  CHECK(r.shed + r.timed_out > 0);  // the cap must have actually bound
  CHECK(r.retries > 0);             // the retry loop ran
  CHECK(r.timed_out > 0);           // deadlines actually fired
  CHECK(r.degraded);                // sustained pressure entered degraded
  CHECK(r.degraded_entries >= 1);
  std::printf(
      "  service: gen=%llu adm=%llu shed=%llu timeout=%llu retries=%llu "
      "degraded_entries=%llu\n",
      static_cast<unsigned long long>(r.generated),
      static_cast<unsigned long long>(r.admitted),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.timed_out),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.degraded_entries));
}

}  // namespace

int main() {
  const char* env = std::getenv("R2D_FAULT");
  if (r2d::fault::kCompiled && env != nullptr &&
      std::string(env) != "off" && std::string(env) != "") {
    run_env_torture();
    return TEST_MAIN_RESULT();
  }
  check_api_parity();
  check_policies();
  check_oom_sweeps();
  check_dwcas_helping_hammer();
  check_service_degradation();
  return TEST_MAIN_RESULT();
}
