#include "util/histogram.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace speedybox::util {
namespace {

TEST(SampleRecorder, BasicStats) {
  SampleRecorder rec;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) rec.add(v);
  EXPECT_EQ(rec.count(), 4u);
  EXPECT_DOUBLE_EQ(rec.sum(), 10.0);
  EXPECT_DOUBLE_EQ(rec.mean(), 2.5);
  EXPECT_DOUBLE_EQ(rec.min(), 1.0);
  EXPECT_DOUBLE_EQ(rec.max(), 4.0);
}

TEST(SampleRecorder, PercentileNearestRank) {
  SampleRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(rec.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(rec.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(rec.percentile(0), 1.0);
}

TEST(SampleRecorder, PercentileUnsortedInsertOrder) {
  SampleRecorder rec;
  for (const double v : {9.0, 1.0, 5.0, 3.0, 7.0}) rec.add(v);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 5.0);
}

TEST(SampleRecorder, AddAfterPercentileStillCorrect) {
  SampleRecorder rec;
  rec.add(10.0);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 10.0);
  rec.add(1.0);
  rec.add(2.0);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 2.0);
}

TEST(SampleRecorder, EmptyThrows) {
  const SampleRecorder rec;
  EXPECT_THROW(rec.percentile(50), std::out_of_range);
  EXPECT_THROW(rec.min(), std::out_of_range);
  EXPECT_THROW(rec.max(), std::out_of_range);
}

TEST(SampleRecorder, CdfPoints) {
  SampleRecorder rec;
  for (int i = 1; i <= 10; ++i) rec.add(i);
  const auto points = rec.cdf({10, 50, 90});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].second, 1.0);
  EXPECT_DOUBLE_EQ(points[1].second, 5.0);
  EXPECT_DOUBLE_EQ(points[2].second, 9.0);
}

TEST(SampleRecorder, PercentileClampsOutOfRangeP) {
  SampleRecorder rec;
  for (int i = 1; i <= 10; ++i) rec.add(i);
  EXPECT_DOUBLE_EQ(rec.percentile(-5), rec.percentile(0));
  EXPECT_DOUBLE_EQ(rec.percentile(250), rec.percentile(100));
}

TEST(LogHistogram, ApproximatePercentiles) {
  LogHistogram hist;
  for (int i = 1; i <= 10000; ++i) hist.add(i);
  EXPECT_EQ(hist.count(), 10000u);
  // 32 sub-buckets per octave: within 1/64 relative error.
  EXPECT_NEAR(hist.percentile(50), 5000.0, 5000.0 * 0.10);
  EXPECT_NEAR(hist.percentile(99), 9900.0, 9900.0 * 0.10);
}

TEST(LogHistogram, MeanIsExact) {
  LogHistogram hist;
  for (const double v : {2.0, 4.0, 6.0}) hist.add(v);
  EXPECT_DOUBLE_EQ(hist.mean(), 4.0);
}

TEST(LogHistogram, EmptyIsZero) {
  const LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(LogHistogram, PercentileEndpointsClampAndOrder) {
  LogHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.add(i);
  // p is clamped to [0, 100]; endpoints bracket the distribution within
  // bucket resolution.
  EXPECT_DOUBLE_EQ(hist.percentile(-10), hist.percentile(0));
  EXPECT_DOUBLE_EQ(hist.percentile(200), hist.percentile(100));
  EXPECT_LE(hist.percentile(0), hist.percentile(50));
  EXPECT_LE(hist.percentile(50), hist.percentile(100));
  EXPECT_NEAR(hist.percentile(100), 1000.0, 1000.0 * 0.10);
}

TEST(LogHistogram, MergeDisjointRanges) {
  LogHistogram low, high;
  for (int i = 1; i <= 100; ++i) low.add(i);
  for (int i = 10000; i <= 10100; ++i) high.add(i);
  low.merge(high);
  EXPECT_EQ(low.count(), 201u);
  // Lower half of the merged mass is the small range, upper half the big.
  EXPECT_NEAR(low.percentile(25), 50.0, 50.0 * 0.15);
  EXPECT_NEAR(low.percentile(75), 10050.0, 10050.0 * 0.10);
}

TEST(LogHistogram, MergeThenPercentileEqualsSingleHistogram) {
  // Bucket math is deterministic, so merged percentiles must equal the
  // single-histogram percentiles exactly — not just approximately.
  LogHistogram a, b, all;
  for (int i = 1; i <= 5000; ++i) {
    ((i % 3 == 0) ? a : b).add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(LogHistogram, FromRawRoundTrip) {
  // Accumulating raw buckets through the static geometry then rebuilding
  // with the exact extremes must reproduce the directly built histogram
  // (the telemetry subsystem's atomic mirror relies on this). Without
  // extremes, the rebuild still matches every interior percentile.
  LogHistogram direct;
  std::vector<std::uint64_t> raw(
      static_cast<std::size_t>(LogHistogram::raw_bucket_count()), 0);
  double sum = 0.0;
  for (const double v : {0.5, 1.0, 3.0, 17.0, 900.0, 1e6, 1e18}) {
    direct.add(v);
    ++raw[static_cast<std::size_t>(LogHistogram::raw_bucket_index(v))];
    sum += v;
  }
  const int n = static_cast<int>(raw.size());
  const LogHistogram rebuilt =
      LogHistogram::from_raw(raw.data(), n, sum, direct.min(), direct.max());
  EXPECT_EQ(rebuilt.count(), direct.count());
  EXPECT_EQ(rebuilt.raw_bucket_counts(), direct.raw_bucket_counts());
  EXPECT_DOUBLE_EQ(rebuilt.mean(), direct.mean());
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(rebuilt.percentile(p), direct.percentile(p));
  }
  const LogHistogram no_extremes = LogHistogram::from_raw(raw.data(), n, sum);
  EXPECT_EQ(no_extremes.raw_bucket_counts(), direct.raw_bucket_counts());
  for (const double p : {30.0, 50.0, 70.0}) {
    EXPECT_DOUBLE_EQ(no_extremes.percentile(p), direct.percentile(p));
  }
}

TEST(LogHistogram, FromRawShortPrefixTreatsTailAsZero) {
  std::vector<std::uint64_t> raw(4, 0);
  raw[0] = 2;  // two values in the underflow bucket (below 2^-10)
  const LogHistogram hist = LogHistogram::from_raw(raw.data(), 4, 2.2);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1.1);
  EXPECT_LT(hist.percentile(100), 2.0);
}

// -- Streaming-histogram properties ------------------------------------------

/// Every checked percentile of `samples` lies within the documented
/// relative error of SampleRecorder's exact nearest-rank answer.
void expect_within_error(const std::vector<double>& samples) {
  SampleRecorder exact;
  LogHistogram hist;
  for (const double v : samples) {
    exact.add(v);
    hist.add(v);
  }
  for (const double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    const double want = exact.percentile(p);
    EXPECT_LE(std::abs(hist.percentile(p) - want),
              want * LogHistogram::kRelativeError)
        << "p=" << p << " exact=" << want;
  }
  EXPECT_EQ(hist.percentile(0), exact.min());
  EXPECT_EQ(hist.percentile(100), exact.max());
}

TEST(LogHistogramProperty, UniformWithinDocumentedError) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(1.0 + 999.0 * rng.uniform());
  }
  expect_within_error(samples);
}

TEST(LogHistogramProperty, LognormalWithinDocumentedError) {
  // Sub-microsecond to tens of microseconds: the fast-path latency range.
  Rng rng(12);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.lognormal(-1.0, 1.5));
  expect_within_error(samples);
}

TEST(LogHistogramProperty, BimodalWithinDocumentedError) {
  // Chain 2's mix: most packets take the consolidated fast path (~300
  // cycles), a minority are scanned by the IDS (~20,000 cycles).
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(rng.chance(0.8) ? 300.0 + 40.0 * rng.normal()
                                      : 20000.0 + 3000.0 * rng.normal());
  }
  expect_within_error(samples);
}

TEST(LogHistogramProperty, CountSumMeanMinMaxAreExact) {
  Rng rng(14);
  LogHistogram hist;
  double sum = 0.0;
  double lo = 1e300;
  double hi = -1e300;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.lognormal(3.0, 2.0);
    hist.add(v);
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(hist.count(), 10000u);
  EXPECT_EQ(hist.sum(), sum);
  EXPECT_EQ(hist.mean(), sum / 10000.0);
  EXPECT_EQ(hist.min(), lo);
  EXPECT_EQ(hist.max(), hi);
  EXPECT_EQ(hist.percentile(0), lo);
  EXPECT_EQ(hist.percentile(100), hi);
}

TEST(LogHistogramProperty, MergingShardsEqualsOneHistogram) {
  constexpr int kShards = 5;
  Rng rng(15);
  LogHistogram shards[kShards];
  LogHistogram all;
  for (int i = 0; i < 20000; ++i) {
    // Integer-valued samples keep every partial sum exact, so the merged
    // sum must match bit for bit whatever the grouping.
    const double v = std::floor(rng.lognormal(5.0, 1.0));
    shards[rng.below(kShards)].add(v);
    all.add(v);
  }
  LogHistogram merged;
  for (const LogHistogram& shard : shards) merged.merge(shard);
  EXPECT_EQ(merged.raw_bucket_counts(), all.raw_bucket_counts());
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(LogHistogramProperty, MergeWidensEitherSideOfTheWindow) {
  // Bucket windows are allocated per histogram, so merging must line up
  // raw buckets whether the other window sits below, above or around.
  LogHistogram middle, below, above, all;
  for (const double v : {40.0, 50.0, 60.0}) {
    middle.add(v);
    all.add(v);
  }
  below.add(0.01);
  above.add(1e7);
  all.add(0.01);
  all.add(1e7);
  LogHistogram merged;
  merged.merge(middle);
  merged.merge(below);
  merged.merge(above);
  EXPECT_EQ(merged.raw_bucket_counts(), all.raw_bucket_counts());
  EXPECT_EQ(merged.count(), 5u);
  EXPECT_EQ(merged.min(), 0.01);
  EXPECT_EQ(merged.max(), 1e7);
  LogHistogram wide = above;
  wide.merge(below);
  wide.merge(middle);
  EXPECT_EQ(wide.raw_bucket_counts(), all.raw_bucket_counts());
}

TEST(LogHistogramProperty, SubUnitValuesGetTheirOwnBuckets) {
  // Sub-microsecond fast-path latencies must not collapse into one bucket.
  EXPECT_NE(LogHistogram::raw_bucket_index(0.3),
            LogHistogram::raw_bucket_index(0.6));
  LogHistogram hist;
  for (int i = 0; i < 99; ++i) hist.add(0.3);
  hist.add(0.6);
  EXPECT_NEAR(hist.percentile(50), 0.3, 0.3 * LogHistogram::kRelativeError);
}

TEST(LogHistogramProperty, BucketIndexIsMonotoneOverTheRange) {
  int previous = 0;
  for (double v = LogHistogram::kMinValue / 4; v < LogHistogram::kMaxValue * 4;
       v *= 1.01) {
    const int index = LogHistogram::raw_bucket_index(v);
    EXPECT_GE(index, previous) << "v=" << v;
    previous = index;
  }
  EXPECT_EQ(LogHistogram::raw_bucket_index(LogHistogram::kMinValue), 1);
  EXPECT_EQ(LogHistogram::raw_bucket_index(
                std::nextafter(LogHistogram::kMaxValue, 0.0)),
            LogHistogram::raw_bucket_count() - 2);
}

TEST(LogHistogramProperty, EdgeValuesClampToTheEndBuckets) {
  const int last = LogHistogram::raw_bucket_count() - 1;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denormal = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(LogHistogram::raw_bucket_index(0.0), 0);
  EXPECT_EQ(LogHistogram::raw_bucket_index(-0.0), 0);
  EXPECT_EQ(LogHistogram::raw_bucket_index(-5.0), 0);
  EXPECT_EQ(LogHistogram::raw_bucket_index(denormal), 0);
  EXPECT_EQ(LogHistogram::raw_bucket_index(nan), 0);
  EXPECT_EQ(LogHistogram::raw_bucket_index(-inf), 0);
  EXPECT_EQ(LogHistogram::raw_bucket_index(inf), last);
  EXPECT_EQ(LogHistogram::raw_bucket_index(1e300), last);
  EXPECT_EQ(LogHistogram::raw_bucket_index(LogHistogram::kMaxValue), last);

  LogHistogram hist;
  for (const double v : {0.0, -5.0, denormal, nan, 1e300, 7.0}) hist.add(v);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_EQ(hist.min(), -5.0);
  EXPECT_EQ(hist.max(), 1e300);  // above range: the exact max survives
  EXPECT_EQ(hist.raw_bucket_counts()[0], 4u);  // NaN is recorded as 0
  EXPECT_EQ(hist.raw_bucket_counts()[static_cast<std::size_t>(last)], 1u);
  EXPECT_TRUE(std::isfinite(hist.mean()));
  EXPECT_LE(hist.percentile(50), LogHistogram::kMinValue);
  hist.add(inf);
  hist.add(-inf);
  EXPECT_EQ(hist.percentile(100), inf);
  EXPECT_EQ(hist.percentile(0), -inf);
}

TEST(LogHistogramProperty, FootprintFollowsRangeNotCount) {
  LogHistogram hist;
  LogHistogram other;
  hist.merge(other);
  EXPECT_EQ(hist.allocated_buckets(), 0u);
  EXPECT_TRUE(hist.raw_bucket_counts().empty());
  // A million samples within one octave keep one octave of buckets.
  for (int i = 0; i < 1000000; ++i) hist.add(1.0 + (i % 1000) / 1000.0);
  EXPECT_EQ(hist.allocated_buckets(),
            static_cast<std::size_t>(LogHistogram::kSubBuckets));
  // Widening the range allocates whole octaves, never more than the full
  // geometry; the full-geometry view is unchanged by the window.
  hist.add(0.3);
  hist.add(1e9);
  EXPECT_LE(hist.allocated_buckets(),
            static_cast<std::size_t>(LogHistogram::raw_bucket_count()));
  EXPECT_EQ(hist.allocated_buckets() % LogHistogram::kSubBuckets, 0u);
  const std::vector<std::uint64_t> raw = hist.raw_bucket_counts();
  ASSERT_EQ(raw.size(),
            static_cast<std::size_t>(LogHistogram::raw_bucket_count()));
  EXPECT_EQ(raw[static_cast<std::size_t>(LogHistogram::raw_bucket_index(0.3))],
            1u);
  EXPECT_EQ(raw[static_cast<std::size_t>(LogHistogram::raw_bucket_index(1e9))],
            1u);
  EXPECT_NEAR(hist.percentile(50), 1.5, 1.5 * LogHistogram::kRelativeError);
}

TEST(SummarizePercentiles, FormatsKeyFields) {
  LogHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.add(i);
  const std::string summary = summarize_percentiles(hist);
  EXPECT_NE(summary.find("n=100"), std::string::npos);
  EXPECT_NE(summary.find("p50=50"), std::string::npos);
}

TEST(SummarizePercentiles, EmptySafe) {
  const LogHistogram hist;
  EXPECT_EQ(summarize_percentiles(hist), "(no samples)");
}

}  // namespace
}  // namespace speedybox::util
