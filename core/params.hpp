// TwoDParams: the (width, depth, shift) shape of a 2D window structure.
//
// The paper's Theorem 1 bounds the rank error of a 2D stack by
//
//     k = (2*shift + depth) * (width - 1)
//
// so one relaxation budget k can be spent horizontally (more sub-stacks)
// or vertically (deeper windows). for_k() implements the mapping DESIGN.md
// §4 documents: grow width first (throughput-optimal) until the empirical
// ceiling width = 4P, then grow depth with shift = depth/2.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/substack.hpp"  // kPackedCountMax: the column-count ceiling

namespace r2d::core {

/// Deepest window a shape may request: every count inside a full window
/// must be exactly representable below the packed head word's saturation
/// ceiling (see core/substack.hpp).
inline constexpr std::uint64_t kMaxWindowDepth = kPackedCountMax - 1;

struct TwoDParams {
  std::size_t width = 1;     ///< number of sub-stacks (columns)
  std::uint64_t depth = 1;   ///< window height (rows)
  std::uint64_t shift = 1;   ///< window jump on a failed sweep, 1..depth

  /// The width ceiling the paper found throughput-optimal: 4 sub-stacks
  /// per thread.
  static std::size_t max_width_for(unsigned threads) {
    return std::size_t{4} * std::max(1u, threads);
  }

  /// Rank-error bound of this shape (Theorem 1). Zero iff width == 1
  /// (strict LIFO).
  std::uint64_t k_bound() const {
    if (width <= 1) return 0;
    return (2 * shift + depth) * (static_cast<std::uint64_t>(width) - 1);
  }

  /// Map a requested relaxation bound k onto a shape whose k_bound() never
  /// exceeds k (monotonic k-relaxation): horizontal growth first, with the
  /// minimal window (depth = shift = 1, so k_bound = 3*(width-1)), then
  /// vertical growth at width = 4P with shift = depth/2.
  static TwoDParams for_k(std::uint64_t k, unsigned threads) {
    TwoDParams p;
    if (k == 0) return p;  // width 1: strict
    const std::size_t max_width = max_width_for(threads);
    const std::size_t horizontal_width =
        static_cast<std::size_t>(k / 3 + 1);
    if (horizontal_width <= max_width) {
      p.width = horizontal_width;
      p.depth = 1;
      p.shift = 1;
      return p;
    }
    p.width = max_width;
    const std::uint64_t span = static_cast<std::uint64_t>(max_width) - 1;
    // With shift = depth/2 (floored), k_bound <= 2*depth*span <= k. The
    // depth is clamped to the packed-count ceiling, so an outsized k maps
    // to the deepest valid window rather than an invalid shape.
    p.depth = std::min(kMaxWindowDepth,
                       std::max<std::uint64_t>(1, k / (2 * span)));
    p.shift = std::max<std::uint64_t>(1, p.depth / 2);
    return p;
  }

  /// Throws std::invalid_argument when the shape violates the paper's
  /// constraints (width >= 1, depth >= 1, 1 <= shift <= depth) or the
  /// packed-head ceiling (depth <= kMaxWindowDepth, so no window can hold
  /// more items than the 16-bit packed column count can represent).
  void validate() const {
    if (width < 1) throw std::invalid_argument("TwoDParams: width must be >= 1");
    if (depth < 1) throw std::invalid_argument("TwoDParams: depth must be >= 1");
    if (depth > kMaxWindowDepth) {
      throw std::invalid_argument(
          "TwoDParams: depth must be <= " + std::to_string(kMaxWindowDepth) +
          " (the packed column-count ceiling), got depth=" +
          std::to_string(depth));
    }
    if (shift < 1 || shift > depth) {
      throw std::invalid_argument(
          "TwoDParams: shift must be in [1, depth], got shift=" +
          std::to_string(shift) + " depth=" + std::to_string(depth));
    }
  }
};

}  // namespace r2d::core
