// Allocation-policy tests: the slab Pool + magazine PoolAlloc layer
// (reclaim/alloc.hpp) and containers mounted on it.
//
// Covers the batch splice machinery (magazine -> spare -> depot and back:
// no block lost or duplicated across refill/flush), cross-thread release
// (acquire on T1, release + reuse on T2), ABA tag hammers that shuttle
// blocks between threads through an exchange slot, on PoolAlloc and on a
// bare Pool with shared shards (the TSan configuration of this test is
// what would catch a torn free-list splice), coexisting pools of one node
// type (the instance-keyed shard fix), run carving (runs that ramp up to
// a magazine, each one cursor advance; concurrent carvers
// never share a block; an injected slab-growth failure at a run boundary
// keeps the strong guarantee), ASan poisoning of free blocks, the 2D
// containers' PoolAlloc default, and end-to-end no-loss/no-dup runs of the
// stack, queue, and deque on PoolAlloc — including the destruction-order
// contract: the allocator member outlives the reclaimer whose destructor
// drains deferred retires into it.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_bag.hpp"
#include "core/two_d_deque.hpp"
#include "core/two_d_queue.hpp"
#include "core/two_d_stack.hpp"
#include "fault/inject.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/pool.hpp"
#include "stacks/elimination_stack.hpp"
#include "stacks/ksegment_stack.hpp"
#include "stacks/treiber_stack.hpp"
#include "check.hpp"

namespace {

using r2d::reclaim::Pool;
using r2d::reclaim::PoolAlloc;

template <typename A>
constexpr bool kIsPoolAlloc = false;
template <typename N>
constexpr bool kIsPoolAlloc<PoolAlloc<N>> = true;

// The 2D containers ship on the pool (DESIGN.md §10).
static_assert(kIsPoolAlloc<r2d::TwoDStack<std::uint64_t>::allocator_type>);
static_assert(kIsPoolAlloc<r2d::TwoDQueue<std::uint64_t>::allocator_type>);
static_assert(kIsPoolAlloc<r2d::TwoDDeque<std::uint64_t>::allocator_type>);
static_assert(kIsPoolAlloc<r2d::TwoDBag<std::uint64_t>::allocator_type>);

struct Tracked {
  static std::atomic<int> live;
  std::uint64_t payload;
  explicit Tracked(std::uint64_t p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

/// Acquire `n` blocks, release them all, re-acquire `n`: the second round
/// must hand back exactly the first round's blocks — every magazine park,
/// depot flush, and refill splice conserved the set.
void splice_round_trip(r2d::reclaim::PoolAlloc<Tracked>& alloc,
                       std::size_t n) {
  std::vector<Tracked*> batch;
  batch.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) batch.push_back(alloc.acquire(i));
  CHECK_EQ(Tracked::live.load(), static_cast<int>(n));
  const std::set<Tracked*> first_round(batch.begin(), batch.end());
  CHECK_EQ(first_round.size(), n);  // all distinct
  for (Tracked* p : batch) alloc.release(p);
  CHECK_EQ(Tracked::live.load(), 0);
  batch.clear();
  for (std::uint64_t i = 0; i < n; ++i) batch.push_back(alloc.acquire(i));
  const std::set<Tracked*> second_round(batch.begin(), batch.end());
  CHECK(first_round == second_round);
  for (Tracked* p : batch) alloc.release(p);
  CHECK_EQ(Tracked::live.load(), 0);
}

/// No-loss/no-dup hammer, shared with the container-on-PoolAlloc suites:
/// the popped + drained multiset must equal the pushed multiset.
template <typename PushFn, typename PopFn>
void hammer(const char* name, unsigned threads, std::uint64_t per_thread,
            PushFn push, PopFn pop) {
  std::vector<std::vector<std::uint64_t>> popped(threads);
  std::vector<std::thread> workers;
  std::atomic<unsigned> ready{0};
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      std::uint64_t label = (static_cast<std::uint64_t>(t) << 32) + 1;
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        push(label++);
        if (i % 2 == 1) {
          if (const auto v = pop()) popped[t].push_back(*v);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<std::uint64_t> seen;
  for (const auto& p : popped) seen.insert(seen.end(), p.begin(), p.end());
  while (const auto v = pop()) seen.push_back(*v);

  std::vector<std::uint64_t> expected;
  expected.reserve(threads * per_thread);
  for (unsigned t = 0; t < threads; ++t) {
    for (std::uint64_t i = 1; i <= per_thread; ++i) {
      expected.push_back((static_cast<std::uint64_t>(t) << 32) + i);
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  if (seen != expected) {
    std::fprintf(stderr, "FAIL: %s lost, duplicated, or invented labels\n",
                 name);
    ++r2d::test::failures();
  }
}

std::ptrdiff_t blocks_between(const void* from, const void* to) {
  return (static_cast<const char*>(to) - static_cast<const char*>(from)) /
         static_cast<std::ptrdiff_t>(Pool<Tracked>::kBlockStride);
}

/// A slot's slab runs double from one block up to a whole magazine, each
/// claimed with a single cursor advance: once the ramp reaches the
/// magazine size, the next thread to carve starts a magazine further on.
/// A thread that acquires once and exits carves one block, so it strands
/// nothing. Runs first in main: the helper thread's exit walk is then the
/// process's first obs count, which used to self-deadlock on the registry
/// mutex.
void check_cold_start_run() {
  setenv("R2D_MAGAZINE", "4", 1);
  PoolAlloc<Tracked> alloc;
  std::vector<Tracked*> held;
  const auto at = [&](std::size_t i) { return blocks_between(held[0], held[i]); };
  for (std::uint64_t i = 0; i < 4; ++i) held.push_back(alloc.acquire(i));
  // Runs of 1, 2 and then 4 (the magazine): blocks 0, 1-2, 3-6.
  for (std::size_t i = 0; i < 4; ++i) {
    CHECK_EQ(at(i), static_cast<std::ptrdiff_t>(i));
  }
  Tracked* other = nullptr;
  std::thread([&] { other = alloc.acquire(std::uint64_t{9}); }).join();
  CHECK_EQ(blocks_between(held[0], other), std::ptrdiff_t{7});
  for (std::uint64_t i = 4; i < 8; ++i) held.push_back(alloc.acquire(i));
  CHECK_EQ(at(6), std::ptrdiff_t{6});
  CHECK_EQ(at(7), std::ptrdiff_t{8});  // next magazine-sized run
  alloc.release(other);
  for (Tracked* p : held) alloc.release(p);
  CHECK_EQ(Tracked::live.load(), 0);
  unsetenv("R2D_MAGAZINE");
}

/// Four threads carve runs of assorted sizes from one cold pool at once:
/// every run is as long as its chain, and no block is handed out twice.
void check_concurrent_runs() {
  Pool<Tracked> pool;
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<void*>> got(kThreads);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> carvers;
  for (unsigned t = 0; t < kThreads; ++t) {
    carvers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t i = 0; i < 300; ++i) {
        const auto run = pool.alloc_run(1 + (i * 7 + t) % 40);
        std::size_t chain = 0;
        for (void* b = run.head; b != nullptr;
             b = Pool<Tracked>::chain_next(b).load(std::memory_order_relaxed)) {
          got[t].push_back(b);
          ++chain;
        }
        CHECK(run.count >= 1);
        CHECK_EQ(chain, run.count);
      }
    });
  }
  for (auto& c : carvers) c.join();
  std::set<void*> all;
  std::size_t total = 0;
  for (const auto& g : got) {
    all.insert(g.begin(), g.end());
    total += g.size();
  }
  CHECK_EQ(all.size(), total);
}

/// A slab-growth failure injected exactly where a run would start a new
/// slab: the acquire throws bad_alloc and changes nothing (held blocks
/// intact, the container as it was), and both serve again once injection
/// is off. Test-hook build only.
void check_run_boundary_fault() {
  if constexpr (!r2d::fault::kCompiled) return;
  constexpr std::uint64_t kSlab = 64;  // Pool's blocks per slab
  auto& inj = r2d::fault::injector();
  setenv("R2D_MAGAZINE", "4", 1);
  {
    PoolAlloc<Tracked> alloc;
    inj.configure("site:slab-grow:2", 1);  // the first slab grows, the next fails
    std::vector<Tracked*> held;
    for (std::uint64_t i = 0; i < kSlab; ++i) held.push_back(alloc.acquire(i));
    bool threw = false;
    try {
      held.push_back(alloc.acquire(kSlab));
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    CHECK(threw);
    CHECK_EQ(inj.injected(r2d::fault::Site::kSlabGrow), std::uint64_t{1});
    inj.configure("off", 0);
    CHECK_EQ(held.size(), kSlab);
    CHECK_EQ(Tracked::live.load(), static_cast<int>(kSlab));
    for (std::uint64_t i = 0; i < kSlab; ++i) CHECK_EQ(held[i]->payload, i);
    Tracked* after = alloc.acquire(kSlab);
    CHECK(std::find(held.begin(), held.end(), after) == held.end());
    held.push_back(after);
    for (Tracked* p : held) alloc.release(p);
    CHECK_EQ(Tracked::live.load(), 0);
  }
  {
    r2d::TwoDStack<std::uint64_t> stack(r2d::core::TwoDParams::for_k(64, 4));
    inj.configure("site:slab-grow:2", 1);
    for (std::uint64_t v = 0; v < kSlab; ++v) stack.push(v);
    bool threw = false;
    try {
      stack.push(kSlab);
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    CHECK(threw);
    inj.configure("off", 0);
    stack.push(kSlab + 1);
    std::multiset<std::uint64_t> drained;
    while (const auto v = stack.pop()) drained.insert(*v);
    std::multiset<std::uint64_t> expect;
    for (std::uint64_t v = 0; v < kSlab; ++v) expect.insert(v);
    expect.insert(kSlab + 1);
    CHECK(drained == expect);
  }
  unsetenv("R2D_MAGAZINE");
}

/// Under AddressSanitizer a free block's T footprint is poisoned on every
/// release path and unpoisoned on acquire; the tail chain words never are.
void check_asan_poisoning() {
#ifdef R2D_POOL_ASAN
  {
    PoolAlloc<Tracked> alloc;
    Tracked* p = alloc.acquire(std::uint64_t{7});
    CHECK(!__asan_address_is_poisoned(p));
    alloc.release(p);
    CHECK(__asan_address_is_poisoned(p));
    CHECK(__asan_address_is_poisoned(&p->payload));
    CHECK(!__asan_address_is_poisoned(&Pool<Tracked>::chain_next(p)));
    CHECK(!__asan_address_is_poisoned(&Pool<Tracked>::chain_next2(p)));
    Tracked* q = alloc.acquire(std::uint64_t{8});
    CHECK(q == p);  // LIFO magazine hands the same block back
    CHECK(!__asan_address_is_poisoned(q));
    alloc.release(q);
  }
  {
    Pool<Tracked> pool;
    Tracked* p = pool.acquire(std::uint64_t{1});
    pool.release(p);
    CHECK(__asan_address_is_poisoned(p));
    CHECK(pool.acquire(std::uint64_t{2}) == p);
    CHECK(!__asan_address_is_poisoned(p));
    pool.release(p);
  }
  {
    Pool<Tracked> pool;
    void* block = pool.alloc_block();
    CHECK(!__asan_address_is_poisoned(block));
    pool.free_block(block);
    CHECK(__asan_address_is_poisoned(block));
  }
  std::puts("asan poisoning: checked");
#endif
}

}  // namespace

int main() {
  check_cold_start_run();
  check_concurrent_runs();
  check_run_boundary_fault();
  check_asan_poisoning();

  {
    // R2D_MAGAZINE is read per instance; a tiny magazine makes every few
    // operations cross a park/flush/refill boundary.
    setenv("R2D_MAGAZINE", "4", 1);
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    CHECK_EQ(alloc.magazine_size(), 4u);
    splice_round_trip(alloc, 3);    // inside one magazine
    splice_round_trip(alloc, 4);    // exactly one magazine
    splice_round_trip(alloc, 9);    // mag + spare + depot
    splice_round_trip(alloc, 64);   // many depot magazines
    unsetenv("R2D_MAGAZINE");
  }
  {
    // Default magazine size, large batch: splices cross slab boundaries.
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    CHECK_EQ(alloc.magazine_size(), 32u);
    splice_round_trip(alloc, 500);
  }

  {
    // Cross-thread release: blocks acquired on the main thread, released
    // AND reused on a second thread — release feeds the releasing
    // thread's own magazines, so the reuse set must still be conserved.
    setenv("R2D_MAGAZINE", "4", 1);
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    constexpr std::size_t kBlocks = 40;
    std::vector<Tracked*> batch;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      batch.push_back(alloc.acquire(i));
    }
    const std::set<Tracked*> acquired(batch.begin(), batch.end());
    std::thread other([&] {
      for (Tracked* p : batch) alloc.release(p);
      CHECK_EQ(Tracked::live.load(), 0);
      std::vector<Tracked*> reused;
      for (std::uint64_t i = 0; i < kBlocks; ++i) {
        reused.push_back(alloc.acquire(i));
      }
      const std::set<Tracked*> second(reused.begin(), reused.end());
      CHECK(acquired == second);
      for (Tracked* p : reused) alloc.release(p);
    });
    other.join();
    CHECK_EQ(Tracked::live.load(), 0);
    unsetenv("R2D_MAGAZINE");
  }

  {
    // ABA tag hammer: four threads shuttle blocks through one exchange
    // slot while churning acquire/release, so free lists and depots see
    // concurrent pop/push of recycled blocks with interleaved owners. A
    // missing tag bump or torn splice shows up as a duplicate handout
    // (live-count drift) or a sanitizer report.
    setenv("R2D_MAGAZINE", "4", 1);  // maximal depot traffic
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    std::atomic<Tracked*> swap_slot{nullptr};
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOps = 20000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (std::uint64_t i = 0; i < kOps; ++i) {
          Tracked* mine = alloc.acquire(i);
          Tracked* theirs = swap_slot.exchange(mine);
          if (theirs != nullptr) alloc.release(theirs);
        }
      });
    }
    for (auto& w : workers) w.join();
    if (Tracked* last = swap_slot.exchange(nullptr)) alloc.release(last);
    CHECK_EQ(Tracked::live.load(), 0);
    unsetenv("R2D_MAGAZINE");
  }

  {
    // Bare Pool splice hammer: more threads than the pool's 16 shards, so
    // some shard heads are pushed and popped by two threads at once, and
    // blocks shuttle through one exchange slot, so most are released onto
    // another thread's shard than the one they came from. A missing tag
    // bump or torn splice shows up as a duplicate handout (live-count
    // drift) or a sanitizer report.
    r2d::reclaim::Pool<Tracked> pool;
    std::atomic<Tracked*> swap_slot{nullptr};
    constexpr unsigned kThreads = 20;
    constexpr std::uint64_t kOps = 5000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (std::uint64_t i = 0; i < kOps; ++i) {
          Tracked* mine = pool.acquire(i);
          Tracked* theirs = swap_slot.exchange(mine);
          if (theirs != nullptr) pool.release(theirs);
        }
      });
    }
    for (auto& w : workers) w.join();
    if (Tracked* last = swap_slot.exchange(nullptr)) pool.release(last);
    CHECK_EQ(Tracked::live.load(), 0);
  }

  {
    // Two pools of the same T must recycle independently: shard
    // assignment is keyed per instance, so interleaved use on one thread
    // cannot cross-wire their free lists.
    r2d::reclaim::Pool<Tracked> a;
    r2d::reclaim::Pool<Tracked> b;
    Tracked* pa = a.acquire(std::uint64_t{1});
    Tracked* pb = b.acquire(std::uint64_t{2});
    CHECK(pa != pb);
    a.release(pa);
    b.release(pb);
    Tracked* pa2 = a.acquire(std::uint64_t{3});
    Tracked* pb2 = b.acquire(std::uint64_t{4});
    CHECK(pa2 == pa);
    CHECK(pb2 == pb);
    a.release(pa2);
    b.release(pb2);
    CHECK_EQ(Tracked::live.load(), 0);
  }

  // Containers end-to-end on the pool policy (epoch default + one hazard
  // configuration): no operation lost or duplicated, and teardown obeys
  // the §10 destruction order — the reclaimer's deferred frees (all of
  // them, under TSan's deferred-EBR mode) drain into the pool before the
  // pool itself dies.
  {
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        stack(r2d::core::TwoDParams::for_k(256, 4));
    hammer(
        "2d-stack/epoch/pool", 4, 20000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::HazardReclaimer,
                   r2d::reclaim::PoolAlloc>
        stack(r2d::core::TwoDParams::for_k(256, 4));
    hammer(
        "2d-stack/hazard/pool", 4, 10000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    r2d::stacks::TreiberStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                              r2d::reclaim::PoolAlloc>
        stack;
    hammer(
        "treiber/epoch/pool", 4, 20000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    // Two PoolAlloc instances of different block sizes (items + segments);
    // the segment-retire path must release into the segment pool, never
    // the item pool, and teardown must drain leftover cell items.
    r2d::stacks::KSegmentStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                               r2d::reclaim::PoolAlloc>
        stack(16);
    hammer(
        "k-segment/epoch/pool", 4, 10000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    // The eliminated-push path releases a never-shared node straight back
    // to the pool, next to retires flowing through the reclaimer.
    r2d::stacks::EliminationStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                                  r2d::reclaim::PoolAlloc>
        stack(r2d::stacks::EliminationParams{8, 128, 1});
    hammer(
        "elimination/epoch/pool", 4, 10000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    r2d::core::TwoDParams p;
    p.width = 8;
    p.depth = 8;
    p.shift = 4;
    r2d::TwoDQueue<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        queue(p);
    hammer(
        "2d-queue/epoch/pool", 4, 20000,
        [&](std::uint64_t v) { queue.enqueue(v); },
        [&] { return queue.dequeue(); });
  }
  {
    // Both deque ends, steered by label parity; pops retire through the
    // reclaimer back into the pool on either column backend (DESIGN.md
    // §10/§11).
    r2d::core::TwoDParams p;
    p.width = 8;
    p.depth = 8;
    p.shift = 4;
    r2d::TwoDDeque<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        deque(p);
    hammer(
        "2d-deque/pool", 4, 20000,
        [&](std::uint64_t v) {
          if (v & 1) {
            deque.push_front(v);
          } else {
            deque.push_back(v);
          }
        },
        [&]() -> std::optional<std::uint64_t> {
          if (auto v = deque.pop_back()) return v;
          return deque.pop_front();
        });
  }
  {
    // Destruction-order regression: retire nodes and destroy the
    // container while frees are still deferred inside the reclaimer (the
    // TSan build defers every EBR free to the reclaimer destructor). The
    // member order must hand them to a still-live pool.
    r2d::stacks::TreiberStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                              r2d::reclaim::PoolAlloc>
        stack;
    for (std::uint64_t i = 0; i < 1000; ++i) stack.push(i);
    for (std::uint64_t i = 0; i < 500; ++i) stack.pop();
    // 500 nodes still linked, up to 500 retired-but-not-freed; scope exit
    // runs ~stack (drains the column), then ~EpochReclaimer (deferred
    // frees -> pool), then ~PoolAlloc/~Pool (slabs).
  }

  return TEST_MAIN_RESULT();
}
