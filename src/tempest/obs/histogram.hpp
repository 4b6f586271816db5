#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace tempest::obs {

/// Log-linear latency histogram with a *fixed* bucket layout.
///
/// The layout is a compile-time constant of the format (not of the data):
/// every histogram ever constructed has exactly the same kNumBuckets
/// boundaries, so merging two histograms is element-wise integer addition —
/// associative, commutative, and therefore invariant under how a sample set
/// was partitioned across threads or shots. This is the same discipline the
/// engine applies to its work counters (PR 7's bit-stability): aggregation
/// order can never change an aggregate.
///
/// Bucket layout (HdrHistogram-style base-2 log-linear):
///   * values 0 .. 15 land in exact singleton buckets (index == value);
///   * beyond that, each power-of-two octave [2^e, 2^(e+1)) is split into
///     kSubCount = 8 equal linear sub-buckets, so the relative width of any
///     bucket is at most 2^-3 = 12.5%.
/// Values are non-negative int64 (negative records clamp to 0); the metrics
/// registry stores nanoseconds, but the structure is unit-agnostic.
///
/// Quantile rule (the one jobs::report documents and pins in tests):
/// quantile(q) returns the *inclusive upper bound* of the first bucket whose
/// cumulative count reaches ceil(q * N), clamped to the observed [min, max].
/// It is a nearest-rank estimate with a deterministic upward bias of less
/// than one bucket width (<= 12.5% relative), and it depends only on the
/// bucket counts — so any two equal histograms agree on every quantile.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubCount = 1 << kSubBits;  // 8 sub-buckets per octave
  /// Octaves e = kSubBits .. 62 plus the 2*kSubCount singleton buckets.
  static constexpr int kNumBuckets = (62 - kSubBits + 1) * kSubCount + 8;

  /// Bucket index of value `v` (clamped to >= 0). Monotone in `v`.
  [[nodiscard]] static constexpr int bucket_index(std::int64_t v) noexcept {
    if (v < 2 * kSubCount) return v < 0 ? 0 : static_cast<int>(v);
    const int e = 63 - std::countl_zero(static_cast<std::uint64_t>(v));
    const int shift = e - kSubBits;
    const int sub = static_cast<int>(
        (static_cast<std::uint64_t>(v) >> shift) & (kSubCount - 1));
    return ((e - kSubBits + 1) << kSubBits) + sub;
  }

  /// Smallest value mapping to bucket `index`.
  [[nodiscard]] static constexpr std::int64_t bucket_lower(int index) noexcept {
    if (index < 2 * kSubCount) return index;
    const int top = index >> kSubBits;   // >= 2
    const int sub = index & (kSubCount - 1);
    const int scale = top - 1;
    return static_cast<std::int64_t>(kSubCount + sub) << scale;
  }

  /// Largest value mapping to bucket `index` (inclusive); INT64_MAX for
  /// the top bucket.
  [[nodiscard]] static constexpr std::int64_t bucket_upper(int index) noexcept {
    if (index < 2 * kSubCount) return index;
    const int scale = (index >> kSubBits) - 1;
    return bucket_lower(index) + ((std::int64_t{1} << scale) - 1);
  }

  constexpr void record(std::int64_t v) noexcept { record_n(v, 1); }

  constexpr void record_n(std::int64_t v, std::uint64_t n) noexcept {
    if (n == 0) return;
    if (v < 0) v = 0;
    buckets_[static_cast<std::size_t>(bucket_index(v))] += n;
    count_ += n;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    sum_ = saturating_add(
        sum_, v == 0 || n <= static_cast<std::uint64_t>(kMax / v)
                  ? v * static_cast<std::int64_t>(n)
                  : kMax);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  /// Element-wise addition: associative and commutative, so the merged
  /// result is independent of thread count and merge order.
  constexpr void merge(const Histogram& other) noexcept {
    for (int i = 0; i < kNumBuckets; ++i) {
      buckets_[static_cast<std::size_t>(i)] +=
          other.buckets_[static_cast<std::size_t>(i)];
    }
    count_ += other.count_;
    sum_ = saturating_add(sum_, other.sum_);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  constexpr void clear() noexcept { *this = Histogram{}; }

  [[nodiscard]] constexpr std::uint64_t count() const noexcept {
    return count_;
  }
  /// Sum of the recorded values, saturating at INT64_MAX.
  [[nodiscard]] constexpr std::int64_t sum() const noexcept { return sum_; }
  [[nodiscard]] constexpr std::int64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] constexpr std::int64_t max() const noexcept { return max_; }
  [[nodiscard]] constexpr std::uint64_t bucket_count(int index) const noexcept {
    return buckets_[static_cast<std::size_t>(index)];
  }

  /// See the class comment for the exact rule. q outside [0, 1] clamps.
  [[nodiscard]] std::int64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::uint64_t cum = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      cum += buckets_[static_cast<std::size_t>(i)];
      if (cum >= rank) return std::clamp(bucket_upper(i), min_, max_);
    }
    return max_;
  }

  [[nodiscard]] bool operator==(const Histogram&) const = default;

 private:
  /// a + b for non-negative a and b, clamped to INT64_MAX. Still
  /// associative and commutative, so merges stay partition-invariant.
  static constexpr std::int64_t saturating_add(std::int64_t a,
                                               std::int64_t b) noexcept {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return a > kMax - b ? kMax : a + b;
  }

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
};

}  // namespace tempest::obs
