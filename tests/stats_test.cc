#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"

namespace norman {
namespace {

TEST(LatencyHistogramTest, EmptyPercentilesAreZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
}

TEST(LatencyHistogramTest, SingleValue) {
  LatencyHistogram h;
  h.Add(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  // Bucketed value is within the bucket's relative error (1/16).
  EXPECT_NEAR(static_cast<double>(h.p50()), 1234.0, 1234.0 / 16 + 1);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int i = 0; i < 32; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 31);
  EXPECT_EQ(h.Percentile(1.0), 31);
}

TEST(LatencyHistogramTest, PercentileOrderingInvariant) {
  Rng rng(7);
  LatencyHistogram h;
  for (int i = 0; i < 10000; ++i) {
    h.Add(static_cast<int64_t>(rng.NextBounded(1'000'000)));
  }
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
  EXPECT_GE(h.p50(), h.min());
}

TEST(LatencyHistogramTest, UniformPercentilesAreClose) {
  Rng rng(11);
  LatencyHistogram h;
  for (int i = 0; i < 100000; ++i) {
    h.Add(static_cast<int64_t>(rng.NextBounded(1'000'000)));
  }
  // p50 of U[0,1e6) should land near 5e5 within bucket resolution + noise.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5e5, 5e4);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9.9e5, 7e4);
}

TEST(LatencyHistogramTest, MeanMatchesRunningStats) {
  Rng rng(5);
  LatencyHistogram h;
  double sum = 0.0;
  constexpr int kSamples = 2000;
  for (int i = 0; i < kSamples; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1'000'000));
    h.Add(v);
    sum += static_cast<double>(v);
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(h.mean(), mean, std::abs(mean) * 1e-9);
}

TEST(LatencyHistogramTest, LargeValuesDoNotOverflow) {
  LatencyHistogram h;
  h.Add(int64_t{1} << 62);
  h.Add(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.Percentile(1.0), (int64_t{1} << 62) / 2);
}

TEST(FormatTest, Nanos) {
  EXPECT_EQ(FormatNanos(17), "17ns");
  EXPECT_EQ(FormatNanos(1500), "1.50us");
  EXPECT_EQ(FormatNanos(2'500'000), "2.50ms");
  EXPECT_EQ(FormatNanos(3'000'000'000LL), "3.00s");
}

TEST(FormatTest, Bps) {
  EXPECT_EQ(FormatBps(94.3e9), "94.30 Gbps");
  EXPECT_EQ(FormatBps(1.5e6), "1.50 Mbps");
  EXPECT_EQ(FormatBps(2e3), "2.00 Kbps");
  EXPECT_EQ(FormatBps(10), "10 bps");
}

// Percentile boundary contract (relied on by the metrics exporter):
// q <= 0 is the exact minimum, q >= 1 the exact maximum — not bucket
// upper bounds — and an empty histogram reports 0 everywhere.
TEST(LatencyHistogramTest, PercentileBoundaries) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
  h.Add(1000);
  h.Add(5000);
  h.Add(123456);
  EXPECT_EQ(h.Percentile(0.0), 1000);
  EXPECT_EQ(h.Percentile(-0.5), 1000);
  EXPECT_EQ(h.Percentile(1.0), 123456);
  EXPECT_EQ(h.Percentile(1.5), 123456);
  // Interior quantiles stay within [min, max].
  EXPECT_GE(h.Percentile(0.5), h.min());
  EXPECT_LE(h.Percentile(0.5), h.max());
}

TEST(PoolCountersTest, NameAndAggregateInit) {
  PoolCounters pc{"packet"};
  EXPECT_EQ(pc.name, "packet");
  EXPECT_EQ(pc.hits, 0u);
  pc.RecordAcquire(true);
  pc.RecordAcquire(false);
  EXPECT_EQ(pc.acquisitions(), 2u);
}

TEST(PoolCountersTest, MergeSumsCountsAndKeepsName) {
  PoolCounters a{"packet"};
  a.hits = 10;
  a.misses = 2;
  a.releases = 9;
  a.dropped = 1;
  a.outstanding = 3;
  a.high_water = 5;
  PoolCounters b{"event"};
  b.hits = 100;
  b.misses = 20;
  b.releases = 110;
  b.dropped = 4;
  b.outstanding = 6;
  b.high_water = 8;

  PoolCounters all{"all"};
  all.Merge(a);
  all.Merge(b);
  EXPECT_EQ(all.name, "all");
  EXPECT_EQ(all.hits, 110u);
  EXPECT_EQ(all.misses, 22u);
  EXPECT_EQ(all.releases, 119u);
  EXPECT_EQ(all.dropped, 5u);
  EXPECT_EQ(all.outstanding, 9u);
  // high_water sums: an upper bound on the combined peak.
  EXPECT_EQ(all.high_water, 13u);
  EXPECT_EQ(all.acquisitions(), 132u);
}

}  // namespace
}  // namespace norman
