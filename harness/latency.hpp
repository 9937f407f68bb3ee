// A log-linear latency histogram: the service harness records its
// response times into it.
//
// Buckets are power-of-two decades with 16 linear sub-buckets each
// (HdrHistogram-style, ~6% resolution), covering 1 ns to the full uint64
// range in 1 KiB of counters, so recording is two shifts and an increment
// — cheap enough to time every operation.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace r2d::harness {

class Histogram {
  static constexpr unsigned kSubBits = 4;  // 16 sub-buckets per decade
  // Decades beyond 2^36 ns (~69 s) clamp into the top bucket and are
  // tallied as `saturated` — any sample that long is overload, not a
  // latency to resolve, and honesty about the clamp beats a wider table.
  static constexpr std::size_t kBuckets = 528;

 public:
  /// First ns value past the last un-clamped bucket: 2^36 for the table
  /// above (kBuckets must stay a multiple of 1 << kSubBits).
  static constexpr std::uint64_t kSaturateNs =
      std::uint64_t{1} << ((kBuckets >> kSubBits) + kSubBits - 1);

  void add(std::uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++total_;
    if (ns >= kSaturateNs) ++saturated_;
    if (ns > max_) max_ = ns;
  }

  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    saturated_ += other.saturated_;
    if (other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const { return total_; }
  std::uint64_t max() const { return max_; }

  /// Samples that clamped into the top bucket (beyond its own decade's
  /// width): quantiles at or above their mass report the bucket floor,
  /// not a real latency.
  std::uint64_t saturated() const { return saturated_; }

  /// Lower bound of the bucket containing the q-quantile (q in [0, 1]).
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cumulative += static_cast<double>(counts_[i]);
      if (cumulative >= target) return static_cast<double>(bucket_floor(i));
    }
    return static_cast<double>(max_);
  }

 private:
  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns < (1u << kSubBits)) return static_cast<std::size_t>(ns);
    const unsigned exp = 63 - static_cast<unsigned>(std::countl_zero(ns));
    const std::uint64_t sub = (ns >> (exp - kSubBits)) & ((1u << kSubBits) - 1);
    const std::size_t idx =
        ((exp - kSubBits + 1) << kSubBits) + static_cast<std::size_t>(sub);
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  static std::uint64_t bucket_floor(std::size_t index) {
    if (index < (1u << kSubBits)) return index;
    const unsigned exp =
        static_cast<unsigned>(index >> kSubBits) + kSubBits - 1;
    const std::uint64_t sub = index & ((1u << kSubBits) - 1);
    return (std::uint64_t{1} << exp) | (sub << (exp - kSubBits));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t saturated_ = 0;
};

}  // namespace r2d::harness
