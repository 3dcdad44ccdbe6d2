// Statistics helpers: an HdrHistogram-style log-linear latency histogram
// with percentile queries, and the object pools' recycling counters.
#ifndef NORMAN_COMMON_STATS_H_
#define NORMAN_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace norman {

// Log-linear histogram over non-negative integer samples (latency in ns).
// Buckets: for each power-of-two decade there are `kSubBuckets` linear
// sub-buckets, giving a bounded relative error (~1/kSubBuckets) at any scale.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(int64_t value_ns);

  uint64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const;
  double mean() const;

  // Value at quantile q in [0,1]; returns an upper bound of the containing
  // bucket, matching HdrHistogram convention. Boundaries are exact: q<=0
  // returns min(), q>=1 returns max(), and an empty histogram returns 0.
  int64_t Percentile(double q) const;

  int64_t p50() const { return Percentile(0.50); }
  int64_t p90() const { return Percentile(0.90); }
  int64_t p99() const { return Percentile(0.99); }
  int64_t p999() const { return Percentile(0.999); }

  void Reset();

  // "p50=1.2us p99=8.4us max=20.1us n=1000"
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per decade
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // Decades 0..(64 - kSubBucketBits - 1) plus the exact first-decade block.
  static constexpr int kDecades = 64 - kSubBucketBits + 1;

  static int BucketIndex(int64_t value);
  static int64_t BucketUpperBound(int index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

// Recycling counters shared by the hot-path object pools (PacketPool,
// Simulator event-node pool). A "hit" is an acquisition served from the
// free list; a "miss" required a fresh heap allocation; "dropped" counts
// releases discarded because the free list was at capacity (exhaustion
// fallback). `outstanding` tracks live objects, `high_water` its maximum.
struct PoolCounters {
  // Registry key: counters import as "pool.<name>.*" gauges (see
  // telemetry::MetricsRegistry::ImportPool). First member so pools can
  // aggregate-initialize as PoolCounters{"packet"}.
  std::string name;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t releases = 0;
  uint64_t dropped = 0;
  uint64_t outstanding = 0;
  uint64_t high_water = 0;

  uint64_t acquisitions() const { return hits + misses; }
  double HitRate() const;

  void RecordAcquire(bool from_free_list);
  void RecordRelease(bool kept);

  // Accumulate `other` into this aggregate: event counts and outstanding
  // sum; high_water sums too (upper bound on combined peak live objects —
  // the capacity-planning figure for "all pools together"). `name` is
  // kept, so an aggregate like PoolCounters{"all"} keeps its own key.
  void Merge(const PoolCounters& other);
};

// Pretty-print a nanosecond quantity with an adaptive unit ("1.25us").
std::string FormatNanos(int64_t ns);

// Pretty-print a bits/sec quantity ("94.3 Gbps").
std::string FormatBps(double bps);

}  // namespace norman

#endif  // NORMAN_COMMON_STATS_H_
