#include "util/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace speedybox::util {

void SampleRecorder::add(double value) {
  samples_.push_back(value);
  sorted_ = false;
}

double SampleRecorder::sum() const noexcept {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleRecorder::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum() / static_cast<double>(samples_.size());
}

double SampleRecorder::min() const {
  if (samples_.empty()) throw std::out_of_range("SampleRecorder::min: empty");
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleRecorder::max() const {
  if (samples_.empty()) throw std::out_of_range("SampleRecorder::max: empty");
  return *std::max_element(samples_.begin(), samples_.end());
}

void SampleRecorder::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleRecorder::percentile(double p) const {
  if (samples_.empty()) {
    throw std::out_of_range("SampleRecorder::percentile: empty");
  }
  sort_if_needed();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

std::vector<std::pair<double, double>> SampleRecorder::cdf(
    const std::vector<double>& percentiles) const {
  std::vector<std::pair<double, double>> points;
  points.reserve(percentiles.size());
  for (const double p : percentiles) {
    points.emplace_back(p, percentile(p));
  }
  return points;
}

double LogHistogram::representative(int index) noexcept {
  if (index <= 0) return kMinValue / 2.0;
  if (index >= kBuckets - 1) return kMaxValue;
  // Bucket bounds rebuilt bit-exactly from the index: exponent field and
  // top mantissa bits, the inverse of raw_bucket_index.
  const auto low_of = [](int i) {
    const int exponent = kMinExponent + (i - 1) / kSubBuckets;
    const auto sub = static_cast<std::uint64_t>((i - 1) % kSubBuckets);
    return std::bit_cast<double>(
        (static_cast<std::uint64_t>(exponent + kBias) << kMantissaBits) |
        (sub << (kMantissaBits - kSubBucketBits)));
  };
  return (low_of(index) + low_of(index + 1)) / 2.0;
}

void LogHistogram::cover(int low, int high) {
  if (!buckets_.empty()) {
    low = std::min(low, offset_);
    high = std::max(high, offset_ + static_cast<int>(buckets_.size()) - 1);
  }
  // Whole octaves — raw buckets [1 + 32k, 1 + 32(k + 1)); the underflow
  // bucket 0 stands alone — so a histogram spanning k octaves reallocates
  // at most k times over its whole life.
  const auto octave_start = [](int index) {
    return index == 0 ? 0 : 1 + (index - 1) / kSubBuckets * kSubBuckets;
  };
  const int first = octave_start(low);
  const int last = high == 0 ? 1
                             : std::min(kBuckets,
                                        octave_start(high) + kSubBuckets);
  if (first == offset_ &&
      last - first == static_cast<int>(buckets_.size())) {
    return;
  }
  std::vector<std::uint64_t> grown(static_cast<std::size_t>(last - first), 0);
  if (!buckets_.empty()) {
    std::copy(buckets_.begin(), buckets_.end(),
              grown.begin() + (offset_ - first));
  }
  buckets_ = std::move(grown);
  offset_ = first;
}

void LogHistogram::add(double value) {
  if (std::isnan(value)) value = 0.0;
  const int index = raw_bucket_index(value);
  if (count_ == 0) min_ = max_ = value;
  if (index < offset_ ||
      index - offset_ >= static_cast<int>(buckets_.size())) {
    cover(index, index);
  }
  ++buckets_[static_cast<std::size_t>(index - offset_)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  cover(other.offset_,
        other.offset_ + static_cast<int>(other.buckets_.size()) - 1);
  const auto shift = static_cast<std::size_t>(other.offset_ - offset_);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[shift + i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::vector<std::uint64_t> LogHistogram::raw_bucket_counts() const {
  if (count_ == 0) return {};
  std::vector<std::uint64_t> counts(kBuckets, 0);
  std::copy(buckets_.begin(), buckets_.end(), counts.begin() + offset_);
  return counts;
}

LogHistogram LogHistogram::from_raw(const std::uint64_t* bucket_counts,
                                    int n, double sum) {
  const int limit = std::min(n, kBuckets);
  int lowest = -1;
  int highest = -1;
  for (int i = 0; i < limit; ++i) {
    if (bucket_counts[i] == 0) continue;
    if (lowest < 0) lowest = i;
    highest = i;
  }
  if (lowest < 0) return from_raw(bucket_counts, n, sum, 0.0, 0.0);
  return from_raw(bucket_counts, n, sum, representative(lowest),
                  representative(highest));
}

LogHistogram LogHistogram::from_raw(const std::uint64_t* bucket_counts,
                                    int n, double sum, double min,
                                    double max) {
  LogHistogram hist;
  const int limit = std::min(n, kBuckets);
  for (int i = 0; i < limit; ++i) {
    if (bucket_counts[i] == 0) continue;
    hist.cover(i, i);
    hist.buckets_[static_cast<std::size_t>(i - hist.offset_)] =
        bucket_counts[i];
    hist.count_ += bucket_counts[i];
  }
  if (hist.count_ == 0) return hist;
  hist.sum_ = sum;
  hist.min_ = min;
  hist.max_ = max;
  return hist;
}

double LogHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  // The same nearest rank SampleRecorder::percentile computes; the first
  // and last ranks are the exact extremes.
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  if (rank <= 1) return min_;
  if (rank >= count_) return max_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const int index = offset_ + static_cast<int>(i);
      if (index == kBuckets - 1) return max_;
      return std::clamp(representative(index), min_, max_);
    }
  }
  return max_;
}

std::string summarize_percentiles(const LogHistogram& histogram) {
  if (histogram.empty()) return "(no samples)";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
                static_cast<unsigned long long>(histogram.count()),
                histogram.mean(), histogram.percentile(50),
                histogram.percentile(90), histogram.percentile(99),
                histogram.max());
  return buf;
}

}  // namespace speedybox::util
