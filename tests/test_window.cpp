// Unit tests for the shared window-sweep engine (core/window.hpp) against
// scripted mock columns — the hybrid hop policy's streak, the
// certification threshold, contention restarts, and the monotonic window
// shift — so engine regressions fail without a full container. Plus the
// 2D-queue put/get window coupling: the get window must stay bounded by
// enqueue progress.
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_queue.hpp"
#include "core/window.hpp"
#include "check.hpp"

namespace {

using r2d::core::Certified;
using r2d::core::Probe;
using r2d::core::TwoDParams;

TwoDParams shape(std::size_t width) {
  TwoDParams p;
  p.width = width;
  p.depth = 4;
  p.shift = 2;
  return p;
}

/// The last `width` probes before a certification form one round-robin
/// streak: consecutive columns, so every column was seen ineligible.
bool ends_in_streak(const std::vector<std::size_t>& probes,
                    std::size_t width) {
  if (probes.size() < width) return false;
  const std::size_t first = probes.size() - width;
  std::set<std::size_t> covered;
  for (std::size_t k = first; k < probes.size(); ++k) {
    covered.insert(probes[k]);
    if (k > first && probes[k] != (probes[k - 1] + 1) % width) return false;
  }
  return covered.size() == width;
}

/// A sweep of an all-ineligible structure certifies exactly once: `width`
/// random probes (the seeding fast-path failure counts as the first), then
/// a streak of exactly `width` consecutive columns, then certification.
void check_hybrid_streak() {
  for (const std::size_t width : {std::size_t{1}, std::size_t{4},
                                  std::size_t{7}}) {
    const TwoDParams p = shape(width);
    std::atomic<std::uint64_t> window{p.depth};
    std::vector<std::size_t> probes;
    unsigned certified_calls = 0;
    std::size_t probes_at_certify = 0;
    const bool success = r2d::core::drive_window_sweep(
        p, window, /*start=*/0, window.load(), Probe::kIneligible,
        [&](std::size_t i, std::uint64_t) {
          CHECK(i < width);
          probes.push_back(i);
          return Probe::kIneligible;
        },
        [&](std::uint64_t) {
          ++certified_calls;
          probes_at_certify = probes.size();
          return Certified::stop();
        });
    CHECK(!success);
    CHECK_EQ(certified_calls, 1u);
    CHECK_EQ(probes_at_certify, 2 * width - 1);
    CHECK(ends_in_streak(probes, width));
  }
}

/// A lost CAS (contention) restarts certification: the observed column was
/// eligible, so the sweep re-runs its full random phase and streak.
void check_contention_restart() {
  const TwoDParams p = shape(4);
  std::atomic<std::uint64_t> window{p.depth};
  std::vector<std::size_t> probes;
  const bool success = r2d::core::drive_window_sweep(
      p, window, /*start=*/0, window.load(), Probe::kIneligible,
      [&](std::size_t i, std::uint64_t) {
        probes.push_back(i);
        // The 6th probe (inside the streak) pretends to lose a CAS on an
        // eligible column.
        return probes.size() == 6 ? Probe::kContended : Probe::kIneligible;
      },
      [&](std::uint64_t) { return Certified::stop(); });
  CHECK(!success);
  // 6 probes up to the contention, then 4 random + 4 streak.
  CHECK_EQ(probes.size(), std::size_t{6 + 8});
  CHECK(ends_in_streak(probes, p.width));
}

/// A sweep seeded by a contended fast path starts with no credit: the
/// seed was an eligible column, so all `width` random probes follow.
void check_contended_seed() {
  const TwoDParams p = shape(4);
  std::atomic<std::uint64_t> window{p.depth};
  std::vector<std::size_t> probes;
  const bool success = r2d::core::drive_window_sweep(
      p, window, /*start=*/0, window.load(), Probe::kContended,
      [&](std::size_t i, std::uint64_t) {
        probes.push_back(i);
        return Probe::kIneligible;
      },
      [&](std::uint64_t) { return Certified::stop(); });
  CHECK(!success);
  CHECK_EQ(probes.size(), std::size_t{2 * 4});
  CHECK(ends_in_streak(probes, p.width));
}

/// Certified shifts install the proposed window value with one CAS and the
/// sweep restarts under it; the window only ever moves through proposed
/// values (monotonic rule).
void check_monotonic_shift() {
  const TwoDParams p = shape(2);
  std::atomic<std::uint64_t> window{10};
  std::vector<std::uint64_t> seen_max;
  std::vector<std::uint64_t> shifts;
  const bool success = r2d::core::drive_window_sweep(
      p, window, /*start=*/0, window.load(), Probe::kIneligible,
      [&](std::size_t, std::uint64_t m) {
        seen_max.push_back(m);
        return m >= 14 ? Probe::kSuccess : Probe::kIneligible;
      },
      [&](std::uint64_t m) {
        shifts.push_back(m + 2);
        return Certified::shift_to(m + 2);
      });
  CHECK(success);
  CHECK_EQ(window.load(), std::uint64_t{14});
  CHECK(shifts == (std::vector<std::uint64_t>{12, 14}));
  for (std::size_t k = 1; k < seen_max.size(); ++k) {
    CHECK(seen_max[k] >= seen_max[k - 1]);  // never observed moving back
  }
  // Each shift followed a full certification under its window value:
  // 3 probes under 10 (seed included), 4 under 12, then success at 14.
  CHECK_EQ(seen_max.size(), std::size_t{3 + 4 + 1});
}

/// A concurrent window move (simulated mid-sweep) resets certification:
/// the engine re-reads the window before every probe and must re-cover
/// every column under the new value before certifying.
void check_window_change_resets() {
  const TwoDParams p = shape(3);
  std::atomic<std::uint64_t> window{5};
  std::vector<std::size_t> probes;
  std::uint64_t certified_max = 0;
  const bool success = r2d::core::drive_window_sweep(
      p, window, /*start=*/0, /*max=*/5, Probe::kIneligible,
      [&](std::size_t i, std::uint64_t) {
        probes.push_back(i);
        // "Another thread" shifts mid-sweep.
        if (probes.size() == 3) window.store(7);
        return Probe::kIneligible;
      },
      [&](std::uint64_t m) {
        certified_max = m;
        return Certified::stop();
      });
  CHECK(!success);
  CHECK_EQ(certified_max, std::uint64_t{7});
  // 3 probes under the old window + 3 random and 3 streak under the new.
  CHECK_EQ(probes.size(), std::size_t{3 + 6});
  CHECK(ends_in_streak(probes, p.width));
}

/// Certified::restart_at sends the next probe to the named column and
/// starts certification over.
void check_certified_restart() {
  const TwoDParams p = shape(4);
  std::atomic<std::uint64_t> window{p.depth};
  std::vector<std::size_t> probes;
  std::vector<std::size_t> certified_at;
  const bool success = r2d::core::drive_window_sweep(
      p, window, /*start=*/0, window.load(), Probe::kIneligible,
      [&](std::size_t i, std::uint64_t) {
        probes.push_back(i);
        return Probe::kIneligible;
      },
      [&](std::uint64_t) {
        certified_at.push_back(probes.size());
        return certified_at.size() == 1 ? Certified::restart_at(3)
                                        : Certified::stop();
      });
  CHECK(!success);
  CHECK(certified_at == (std::vector<std::size_t>{7, 7 + 8}));
  CHECK_EQ(probes[7], std::size_t{3});  // first probe after the redirect
  CHECK(ends_in_streak(probes, p.width));
}

/// Satellite regression: the get window is bounded by enqueue progress.
/// Shape one column to hold 9 items and the other 8; after a full drain
/// the get window must sit at the 9th serial, not at get_max + shift (the
/// untightened rule would inflate it to 16 and leave later dequeues
/// unconstrained by the window — the FIFO bound goes loose).
void check_queue_window_coupling() {
  r2d::core::TwoDParams p;
  p.width = 2;
  p.depth = 8;
  p.shift = 8;
  r2d::TwoDQueue<std::uint64_t> queue(p);
  for (std::uint64_t i = 0; i < 17; ++i) queue.enqueue(i);
  // 8 serials per column fill the initial put window; the 17th forced a
  // put shift, so one column holds 9 items — max enqueue serial 9.
  CHECK_EQ(queue.put_window(), std::uint64_t{16});
  CHECK_EQ(queue.approx_size(), std::uint64_t{17});

  std::set<std::uint64_t> outstanding;
  for (std::uint64_t i = 0; i < 17; ++i) outstanding.insert(i);
  for (std::uint64_t i = 0; i < 17; ++i) {
    const auto v = queue.dequeue();
    CHECK(v.has_value());
    CHECK(outstanding.erase(*v) == 1);
  }
  CHECK(outstanding.empty());
  CHECK(!queue.dequeue().has_value());
  // Draining needed the get window to pass serial 8 but never past the
  // max enqueue serial: tightened bound get_max <= 9.
  CHECK(queue.get_window() > std::uint64_t{8});
  CHECK(queue.get_window() <= std::uint64_t{9});
}

}  // namespace

int main() {
  check_hybrid_streak();
  check_contention_restart();
  check_contended_seed();
  check_monotonic_shift();
  check_window_change_resets();
  check_certified_restart();
  check_queue_window_coupling();
  return TEST_MAIN_RESULT();
}
