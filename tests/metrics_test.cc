// MetricsRegistry: handle identity, snapshot/delta semantics, deterministic
// export shape, the manifest inventory, and pool import.
#include <gtest/gtest.h>

#include <string>

#include "src/common/metrics.h"

namespace norman::telemetry {
namespace {

TEST(MetricsRegistryTest, GetOrCreateReturnsSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("nic.rx.frames");
  Counter* b = reg.GetCounter("nic.rx.frames");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(a->name(), "nic.rx.frames");

  Gauge* g1 = reg.GetGauge("pool.packet.outstanding");
  Gauge* g2 = reg.GetGauge("pool.packet.outstanding");
  EXPECT_EQ(g1, g2);
  LatencyHistogram* h1 = reg.GetHistogram("trace.stage.tx.wire");
  LatencyHistogram* h2 = reg.GetHistogram("trace.stage.tx.wire");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(reg.num_metrics(), 3u);
}

TEST(MetricsRegistryTest, HandleAddressesSurviveMoreRegistrations) {
  MetricsRegistry reg;
  Counter* first = reg.GetCounter("a.first");
  first->Increment();
  // Registering many more metrics must not invalidate the earlier pointer.
  for (int i = 0; i < 200; ++i) {
    reg.GetCounter("bulk.counter." + std::to_string(i));
  }
  EXPECT_EQ(first, reg.GetCounter("a.first"));
  EXPECT_EQ(first->value(), 1u);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("missing"), nullptr);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  EXPECT_EQ(reg.num_metrics(), 0u);
  reg.GetCounter("present");
  EXPECT_NE(reg.FindCounter("present"), nullptr);
}

TEST(MetricsRegistryTest, TextReportIsSortedAndShapeStable) {
  MetricsRegistry reg;
  reg.GetCounter("b.two")->Increment(2);
  reg.GetCounter("a.one");  // zero-valued, still reported
  reg.GetGauge("c.three")->Set(-3);
  const std::string text = reg.TextReport();
  const auto pos_a = text.find("a.one 0");
  const auto pos_b = text.find("b.two 2");
  const auto pos_c = text.find("c.three -3");
  ASSERT_NE(pos_a, std::string::npos) << text;
  ASSERT_NE(pos_b, std::string::npos) << text;
  ASSERT_NE(pos_c, std::string::npos) << text;
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_c);
}

TEST(MetricsRegistryTest, JsonReportShape) {
  MetricsRegistry reg;
  reg.GetCounter("nic.rx.seen")->Increment(12);
  reg.GetGauge("pool.packet.outstanding")->Set(4);
  reg.GetHistogram("trace.stage.rx.dma")->Add(1500);
  const std::string json = reg.JsonReport();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nic.rx.seen\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.packet.outstanding\":4"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace.stage.rx.dma\":{"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  // Byte-stable across calls.
  EXPECT_EQ(json, reg.JsonReport());
}

TEST(MetricsRegistryTest, MetricNamesInventory) {
  MetricsRegistry reg;
  reg.GetGauge("z.gauge");
  reg.GetCounter("a.counter");
  reg.GetHistogram("m.hist");
  const auto names = reg.MetricNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "counter a.counter");
  EXPECT_EQ(names[1], "gauge z.gauge");
  EXPECT_EQ(names[2], "histogram m.hist");
}

TEST(MetricsRegistryTest, ImportPoolMirrorsAndOverwrites) {
  MetricsRegistry reg;
  PoolCounters pc{"packet"};
  pc.hits = 10;
  pc.misses = 2;
  pc.outstanding = 4;
  pc.high_water = 6;
  reg.ImportPool(pc);
  EXPECT_EQ(reg.GetGauge("pool.packet.hits")->value(), 10);
  EXPECT_EQ(reg.GetGauge("pool.packet.outstanding")->value(), 4);
  // Re-import overwrites (levels, not accumulation).
  pc.hits = 11;
  pc.outstanding = 1;
  reg.ImportPool(pc);
  EXPECT_EQ(reg.GetGauge("pool.packet.hits")->value(), 11);
  EXPECT_EQ(reg.GetGauge("pool.packet.outstanding")->value(), 1);
}

}  // namespace
}  // namespace norman::telemetry
