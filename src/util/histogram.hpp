// Latency statistics: an exact-percentile recorder (stores samples) for
// per-flow series, and a fixed-footprint streaming histogram for
// per-packet distributions.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace speedybox::util {

/// Records every sample; supports exact percentiles. Use only where the
/// sample count is bounded by something other than packets — per-flow
/// series (Fig. 9 CDFs), bench probe lists. Per-packet distributions go
/// into LogHistogram, whose footprint does not grow with the run.
class SampleRecorder {
 public:
  void add(double value);
  void clear() noexcept { samples_.clear(); sorted_ = true; }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double sum() const noexcept;
  double mean() const noexcept;
  double min() const;
  double max() const;

  /// Exact percentile by rank (nearest-rank method), p clamped to
  /// [0, 100]: p=0 returns the minimum sample, p=100 the maximum.
  /// Throws std::out_of_range when empty (as do min()/max()): an empty
  /// distribution has no percentiles, and silently returning 0 would
  /// corrupt merged results. LogHistogram, by contrast, is a streaming
  /// approximation and reports 0 when empty.
  double percentile(double p) const;

  /// CDF points (value at each of the given percentiles) — the series the
  /// Fig. 9 benches print.
  std::vector<std::pair<double, double>> cdf(
      const std::vector<double>& percentiles) const;

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-footprint streaming histogram (HDR-style): O(1) insert, O(buckets)
/// merge, approximate percentiles with a bounded relative error. Backs
/// RunStats' per-packet distributions and, through the raw geometry below,
/// the telemetry subsystem's atomic CycleHistogram mirrors.
///
/// Geometry: 32 linear sub-buckets per power-of-two octave over
/// [2^-10, 2^38), plus one underflow bucket (values below 2^-10: zero,
/// negatives, denormals, NaN) and one overflow bucket (2^38 and above,
/// +inf). The index comes straight from the IEEE-754 exponent and the top
/// five mantissa bits — no log, no libm call on the insert path.
///
/// Error bound: a percentile resolves to the midpoint of the bucket that
/// holds the nearest-rank sample, so in range it is within
/// kRelativeError = 1/64 (~1.6%) of SampleRecorder's exact answer. count,
/// sum, mean, min and max are exact; p0 and p100 return min and max
/// exactly. Values in the underflow bucket resolve to [min, 2^-10], values
/// in the overflow bucket to the exact max. NaN samples are recorded as 0.
///
/// Footprint: ~64 bytes until the first add. Buckets are then allocated
/// only for the whole octaves the samples span (256 bytes per octave, at
/// most 12 KiB for the full range), so it depends on the value range and
/// never on how many samples are recorded.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // per octave
  static constexpr int kMinExponent = -10;  // lowest octave [2^-10, 2^-9)
  static constexpr int kMaxExponent = 38;   // 2^38 and above overflow
  static constexpr double kMinValue = 0x1p-10;
  static constexpr double kMaxValue = 0x1p38;
  static constexpr double kRelativeError = 1.0 / (2 * kSubBuckets);

  void add(double value);
  /// Absorb another histogram's buckets (per-shard result merging).
  void merge(const LogHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Exact extremes; 0 when empty.
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Nearest-rank percentile (the rank SampleRecorder::percentile picks),
  /// p clamped to [0, 100], within kRelativeError of the exact answer.
  /// A streaming approximation reports 0 when empty instead of throwing.
  double percentile(double p) const noexcept;

  /// Raw bucket geometry, exposed so external single-writer mirrors (the
  /// telemetry subsystem's atomic per-shard histograms) can accumulate into
  /// the same buckets and materialize a LogHistogram on snapshot.
  static constexpr int raw_bucket_count() noexcept { return kBuckets; }
  static constexpr int raw_bucket_index(double value) noexcept {
    // The negated compare also routes NaN to the underflow bucket.
    if (!(value >= kMinValue)) return 0;
    if (value >= kMaxValue) return kBuckets - 1;
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const int exponent = static_cast<int>(bits >> kMantissaBits) - kBias;
    const int sub = static_cast<int>(
        (bits >> (kMantissaBits - kSubBucketBits)) & (kSubBuckets - 1));
    return 1 + (exponent - kMinExponent) * kSubBuckets + sub;
  }
  /// Raw bucket counts in the full geometry (raw_bucket_count() long, or
  /// empty when nothing was recorded) and the exact value sum — what
  /// window-delta consumers (the autoscaling controller) subtract between
  /// successive cumulative snapshots before rebuilding the interval
  /// histogram via from_raw().
  std::vector<std::uint64_t> raw_bucket_counts() const;
  /// Buckets currently allocated: 0 until the first add, then whole
  /// octaves covering the recorded range.
  std::size_t allocated_buckets() const noexcept { return buckets_.size(); }
  /// Rebuild from externally accumulated raw buckets. `bucket_counts` holds
  /// `n` leading buckets (missing trailing buckets are zero); `sum` is the
  /// exact sum of the recorded values (kept for mean()). Without exact
  /// extremes, min and max become the representative values of the lowest
  /// and highest non-empty buckets.
  static LogHistogram from_raw(const std::uint64_t* bucket_counts, int n,
                               double sum);
  static LogHistogram from_raw(const std::uint64_t* bucket_counts, int n,
                               double sum, double min, double max);

 private:
  static constexpr int kMantissaBits = 52;
  static constexpr int kBias = 1023;
  static constexpr int kBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;

  /// The value a bucket's samples resolve to before clamping to
  /// [min, max]: the midpoint of its range.
  static double representative(int index) noexcept;
  /// Widen the allocated window to whole octaves covering raw buckets
  /// [low, high].
  void cover(int low, int high);

  /// Counts of raw buckets [offset_, offset_ + buckets_.size()).
  std::vector<std::uint64_t> buckets_;
  int offset_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Renders "p50=… p90=… p99=…" for log lines and bench output.
std::string summarize_percentiles(const LogHistogram& histogram);

}  // namespace speedybox::util
