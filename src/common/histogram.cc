#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace spstream {

int Histogram::BucketIndex(int64_t value) {
  if (value < 0) value = 0;
  if (value < kLinearBuckets) return static_cast<int>(value);
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  const int sub = static_cast<int>((value >> (msb - 2)) & (kSubBuckets - 1));
  return kLinearBuckets + (msb - 4) * kSubBuckets + sub;
}

int64_t Histogram::BucketUpperBound(int index) {
  if (index < kLinearBuckets) return index;
  const int msb = 4 + (index - kLinearBuckets) / kSubBuckets;
  const int sub = (index - kLinearBuckets) % kSubBuckets;
  return ((static_cast<int64_t>(kSubBuckets + sub) + 1) << (msb - 2)) - 1;
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  ++buckets_[static_cast<size_t>(BucketIndex(value))];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() { *this = Histogram(); }

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p * static_cast<double>(count_))));
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return std::clamp(BucketUpperBound(i), min(), max_);
    }
  }
  return max_;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = count_;
  s.min = min();
  s.max = max_;
  s.mean = mean();
  s.p50 = P50();
  s.p90 = P90();
  s.p99 = P99();
  return s;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_;
  if (count_ > 0) {
    os << " min=" << min() / 1e3 << "us p50=" << P50() / 1e3
       << "us p90=" << P90() / 1e3 << "us p99=" << P99() / 1e3
       << "us max=" << max_ / 1e3 << "us";
  }
  return os.str();
}

}  // namespace spstream
