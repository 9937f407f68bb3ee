// Reclamation-layer tests: Pool recycling, and the epoch and hazard
// policies driven through a contended stack (the ASan configuration
// of this test is what would catch a use-after-free or double-free). The
// epoch policy is exercised under both fence modes — membarrier-based
// asymmetric pin() and the symmetric seq_cst fallback forced by
// R2D_MEMBARRIER=0.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/pool.hpp"
#include "stacks/treiber_stack.hpp"
#include "check.hpp"

namespace {

struct Tracked {
  static std::atomic<int> live;
  std::uint64_t payload;
  explicit Tracked(std::uint64_t p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

template <typename Reclaimer>
void hammer_with_reclaimer(const char* name) {
  r2d::stacks::TreiberStack<std::uint64_t, Reclaimer> stack;
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 20000;
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        stack.push((static_cast<std::uint64_t>(t) << 32) | i);
        if (i % 2 == 0 && stack.pop()) popped.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t drained = 0;
  while (stack.pop()) ++drained;
  if (popped.load() + drained != kThreads * kOps) {
    std::fprintf(stderr, "FAIL: %s dropped operations\n", name);
    ++r2d::test::failures();
  }
}

}  // namespace

int main() {
  {
    // The pool constructs/destroys exactly once per acquire/release and
    // recycles memory.
    r2d::reclaim::Pool<Tracked> pool;
    Tracked* a = pool.acquire(std::uint64_t{1});
    CHECK_EQ(Tracked::live.load(), 1);
    CHECK_EQ(a->payload, std::uint64_t{1});
    pool.release(a);
    CHECK_EQ(Tracked::live.load(), 0);
    Tracked* b = pool.acquire(std::uint64_t{2});
    CHECK(b == a);  // same-thread recycle hits the same shard
    pool.release(b);

    // Burst: everything released is reusable.
    std::vector<Tracked*> batch;
    for (std::uint64_t i = 0; i < 512; ++i) {
      batch.push_back(pool.acquire(i));
    }
    CHECK_EQ(Tracked::live.load(), 512);
    std::set<Tracked*> first_round(batch.begin(), batch.end());
    for (Tracked* p : batch) pool.release(p);
    CHECK_EQ(Tracked::live.load(), 0);
    batch.clear();
    for (std::uint64_t i = 0; i < 512; ++i) batch.push_back(pool.acquire(i));
    for (Tracked* p : batch) CHECK(first_round.count(p) == 1);
    for (Tracked* p : batch) pool.release(p);
  }
  {
    // Concurrent pool hammer.
    r2d::reclaim::Pool<Tracked> pool;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 4; ++t) {
      workers.emplace_back([&] {
        for (std::uint64_t i = 0; i < 50000; ++i) {
          Tracked* p = pool.acquire(i);
          pool.release(p);
        }
      });
    }
    for (auto& w : workers) w.join();
    CHECK_EQ(Tracked::live.load(), 0);
  }

  {
    // Default mode: membarrier-based asymmetric fencing wherever the
    // kernel supports it, the symmetric fence elsewhere.
    r2d::reclaim::EpochReclaimer r;
    std::fprintf(stderr, "epoch pin fence mode: %s\n",
                 r.uses_membarrier() ? "membarrier" : "seq_cst fallback");
  }
  hammer_with_reclaimer<r2d::reclaim::EpochReclaimer>("epoch/auto");

  // R2D_MEMBARRIER=0 must force the symmetric fallback (the knob is read
  // per reclaimer construction), and the policy must stay correct on it.
  setenv("R2D_MEMBARRIER", "0", 1);
  {
    r2d::reclaim::EpochReclaimer r;
    CHECK(!r.uses_membarrier());
  }
  hammer_with_reclaimer<r2d::reclaim::EpochReclaimer>("epoch/fallback");
  unsetenv("R2D_MEMBARRIER");

  hammer_with_reclaimer<r2d::reclaim::HazardReclaimer>("hazard");

  return TEST_MAIN_RESULT();
}
