#include "src/common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace norman {

double PoolCounters::HitRate() const {
  const uint64_t total = acquisitions();
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void PoolCounters::RecordAcquire(bool from_free_list) {
  if (from_free_list) {
    ++hits;
  } else {
    ++misses;
  }
  ++outstanding;
  high_water = std::max(high_water, outstanding);
}

void PoolCounters::RecordRelease(bool kept) {
  ++releases;
  if (!kept) {
    ++dropped;
  }
  if (outstanding > 0) {
    --outstanding;
  }
}

void PoolCounters::Merge(const PoolCounters& other) {
  hits += other.hits;
  misses += other.misses;
  releases += other.releases;
  dropped += other.dropped;
  outstanding += other.outstanding;
  high_water += other.high_water;
}

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<size_t>(kDecades) * kSubBuckets, 0) {}

int LatencyHistogram::BucketIndex(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) {
    // First decade is exact.
    return static_cast<int>(v);
  }
  const int msb = 63 - std::countl_zero(v);
  const int decade = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>(v >> decade) & (kSubBuckets - 1);
  return decade * kSubBuckets + sub + kSubBuckets;
}

int64_t LatencyHistogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) {
    return index;
  }
  index -= kSubBuckets;
  const int decade = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  // Bucket (decade, sub) covers [sub << decade, (sub+1) << decade).
  return static_cast<int64_t>(
      (static_cast<uint64_t>(sub + 1) << decade) - 1);
}

void LatencyHistogram::Add(int64_t value_ns) {
  const int idx = BucketIndex(value_ns);
  NORMAN_CHECK(idx >= 0 && static_cast<size_t>(idx) < buckets_.size());
  ++buckets_[static_cast<size_t>(idx)];
  if (count_ == 0) {
    min_ = max_ = value_ns;
  } else {
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
  }
  ++count_;
  sum_ += static_cast<double>(value_ns);
}

int64_t LatencyHistogram::min() const { return count_ > 0 ? min_ : 0; }
int64_t LatencyHistogram::max() const { return count_ > 0 ? max_ : 0; }

double LatencyHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

int64_t LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  // Boundary quantiles are exact, not bucket upper bounds: q=0 is the
  // recorded minimum, q=1 the recorded maximum.
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  const uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::min(BucketUpperBound(static_cast<int>(i)), max_);
    }
  }
  return max_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50=%s p90=%s p99=%s max=%s n=%llu",
                FormatNanos(p50()).c_str(), FormatNanos(p90()).c_str(),
                FormatNanos(p99()).c_str(), FormatNanos(max()).c_str(),
                static_cast<unsigned long long>(count_));
  return buf;
}

std::string FormatNanos(int64_t ns) {
  char buf[48];
  const double v = static_cast<double>(ns);
  if (ns < 1000) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  } else if (ns < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fus", v / 1e3);
  } else if (ns < 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", v / 1e9);
  }
  return buf;
}

std::string FormatBps(double bps) {
  char buf[48];
  if (bps >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f Gbps", bps / 1e9);
  } else if (bps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f Mbps", bps / 1e6);
  } else if (bps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f Kbps", bps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f bps", bps);
  }
  return buf;
}

}  // namespace norman
