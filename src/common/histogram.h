// Fixed-bucket log-scale histogram for latency distributions.
//
// Values (nanoseconds, or any non-negative integer) are binned into 16 exact
// buckets for [0, 16) plus 4 log-linear sub-buckets per power of two above
// that — an HdrHistogram-style layout with a fixed 2 KiB footprint, bounded
// ≤ 12.5 % quantile error, and O(1) Record(). Used for per-Run() epoch
// latency and per-tuple source→sink latency.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace spstream {

/// \brief Point-in-time summary of a histogram (plain data, exporter food).
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
};

/// \brief Fixed-size log-scale histogram; all operations are O(buckets) or
/// better and never allocate.
class Histogram {
 public:
  static constexpr int kLinearBuckets = 16;  ///< exact buckets for [0, 16)
  static constexpr int kSubBuckets = 4;      ///< sub-buckets per power of two
  static constexpr int kNumBuckets = 256;    ///< covers the full int64 range

  /// \brief Record one sample; negative values clamp to 0.
  void Record(int64_t value);

  /// \brief Fold another histogram into this one.
  void Merge(const Histogram& other);

  void Reset();

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  int64_t sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// \brief Estimate of the p-quantile (p in [0, 1]): the upper bound of the
  /// bucket holding the p-th sample, clamped to the observed [min, max].
  int64_t Percentile(double p) const;

  int64_t P50() const { return Percentile(0.50); }
  int64_t P90() const { return Percentile(0.90); }
  int64_t P99() const { return Percentile(0.99); }

  HistogramSnapshot Snapshot() const;

  /// \brief "count=N min=...us p50=...us p90=...us p99=...us max=...us".
  std::string ToString() const;

  /// \brief Bucket index a value falls into (exposed for tests).
  static int BucketIndex(int64_t value);
  /// \brief Largest value the bucket holds (inclusive).
  static int64_t BucketUpperBound(int index);

 private:
  std::array<int64_t, kNumBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = INT64_MAX;
  int64_t max_ = 0;
};

}  // namespace spstream
