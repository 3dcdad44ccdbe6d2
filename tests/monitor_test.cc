// Continuous-monitoring stack: time-series ring semantics, sampler
// derivation (counter->rate, gauge->level, histogram->p99), health
// watchdog state machine with owner-annotated alerts, the on-NIC
// top-talkers table under SRAM pressure, the bounded sniffer capture,
// queue watermark latching, and norman-top's byte-stable rendering.
#include <gtest/gtest.h>

#include "src/common/health.h"
#include "src/common/metrics.h"
#include "src/common/timeseries.h"
#include "src/dataplane/sniffer.h"
#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"
#include "src/nic/sram.h"
#include "src/nic/top_talkers.h"
#include "src/norman/socket.h"
#include "src/sim/simulator.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using telemetry::HealthState;

// ---- TimeSeries ring ------------------------------------------------------

TEST(TimeSeriesTest, RingKeepsNewestCapacityPoints) {
  telemetry::TimeSeries s(4);
  for (int i = 1; i <= 6; ++i) {
    s.Push(i * 10, i);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.capacity(), 4u);
  EXPECT_EQ(s.total_pushed(), 6u);
  // Oldest retained point is push #3; newest is push #6.
  EXPECT_EQ(s.At(0).t, 30);
  EXPECT_EQ(s.At(0).value, 3);
  EXPECT_EQ(s.At(3).t, 60);
  EXPECT_EQ(s.Latest().value, 6);
}

TEST(TimeSeriesTest, PartiallyFilledReadsInOrder) {
  telemetry::TimeSeries s(8);
  s.Push(1, 1.5);
  s.Push(2, 2.5);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.At(0).value, 1.5);
  EXPECT_EQ(s.At(1).value, 2.5);
}

// ---- Sampler derivation ---------------------------------------------------

TEST(SamplerTest, DerivesRateLevelAndTailSeries) {
  telemetry::MetricsRegistry reg;
  auto* packets = reg.GetCounter("nic.tx.seen");
  auto* depth = reg.GetGauge("queue.test.depth");
  auto* lat = reg.GetHistogram("trace.stage.test");
  telemetry::TimeSeriesSampler sampler(&reg);

  packets->Increment(1000);
  depth->Set(7);
  lat->Add(500);
  lat->Add(900);
  sampler.Sample(1 * kSecond);  // window [0, 1s): 1000 pkts -> 1000/s

  packets->Increment(250);
  depth->Set(3);
  sampler.Sample(3 * kSecond);  // window [1s, 3s): 250 pkts -> 125/s

  const auto* rate = sampler.Find("nic.tx.seen.rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 2u);
  EXPECT_DOUBLE_EQ(rate->At(0).value, 1000.0);
  EXPECT_DOUBLE_EQ(rate->At(1).value, 125.0);

  const auto* level = sampler.Find("queue.test.depth");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(level->At(0).value, 7.0);
  EXPECT_DOUBLE_EQ(level->At(1).value, 3.0);

  const auto* p99 = sampler.Find("trace.stage.test.p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_GE(p99->At(0).value, 900.0);  // bucket upper bound >= max added

  EXPECT_EQ(sampler.samples_taken(), 2u);
  EXPECT_EQ(sampler.last_sample_at(), 3 * kSecond);
}

TEST(SamplerTest, RepeatedTimestampIsNoop) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("c")->Increment(10);
  telemetry::TimeSeriesSampler sampler(&reg);
  sampler.Sample(kSecond);
  sampler.Sample(kSecond);  // zero-width window: dropped
  EXPECT_EQ(sampler.samples_taken(), 1u);
  EXPECT_EQ(sampler.Find("c.rate")->size(), 1u);
}

TEST(SamplerTest, JsonReportIsByteStable) {
  auto run = [] {
    telemetry::MetricsRegistry reg;
    auto* c = reg.GetCounter("pkts");
    auto* g = reg.GetGauge("depth");
    telemetry::TimeSeriesSampler sampler(&reg);
    for (int i = 1; i <= 5; ++i) {
      c->Increment(100 + i);
      g->Set(i);
      sampler.Sample(i * kMillisecond);
    }
    return sampler.JsonReport();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"samples\":5"), std::string::npos);
  EXPECT_NE(a.find("\"pkts.rate\""), std::string::npos);
}

// ---- Health watchdog ------------------------------------------------------

TEST(WatchdogTest, StalledQueueDegradesThenStallsThenRecovers) {
  telemetry::MetricsRegistry reg;
  auto* depth = reg.GetGauge("queue.test.depth");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddQueueStallRule("test.q", "queue.test.depth", "team.dataplane",
                        /*windows=*/3, /*min_depth=*/1);

  // One backed-up window: still healthy (streak 1 < degraded threshold 2).
  depth->Set(5);
  sampler.Sample(1 * kMillisecond);
  dog.Evaluate(1 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kHealthy);

  // Second window at the same depth: degraded.
  depth->Set(5);
  sampler.Sample(2 * kMillisecond);
  dog.Evaluate(2 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kDegraded);

  // Third window, still not draining: stalled.
  depth->Set(6);
  sampler.Sample(3 * kMillisecond);
  dog.Evaluate(3 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kStalled);

  // The queue drains: recovered.
  depth->Set(0);
  sampler.Sample(4 * kMillisecond);
  dog.Evaluate(4 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kHealthy);

  ASSERT_EQ(dog.alerts().size(), 3u);
  EXPECT_EQ(dog.alerts()[0].to, HealthState::kDegraded);
  EXPECT_EQ(dog.alerts()[1].to, HealthState::kStalled);
  EXPECT_EQ(dog.alerts()[2].to, HealthState::kHealthy);
  EXPECT_EQ(dog.alerts()[2].reason, "recovered");
  for (const auto& a : dog.alerts()) {
    EXPECT_EQ(a.owner, "team.dataplane");
    EXPECT_EQ(a.component, "test.q");
  }
  // Counter tracks the alert volume; gauges track the component census.
  EXPECT_EQ(reg.GetCounter("health.alerts")->value(), 3u);
  EXPECT_EQ(reg.GetGauge("health.components.healthy")->value(), 1);
}

TEST(WatchdogTest, AlertLogOverflowEvictsOldestFirst) {
  telemetry::MetricsRegistry reg;
  auto* depth = reg.GetGauge("queue.test.depth");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddQueueStallRule("test.q", "queue.test.depth", "o", /*windows=*/3, 1);

  Nanos t = 0;
  auto window = [&](int64_t d) {
    depth->Set(d);
    t += kMillisecond;
    sampler.Sample(t);
    dog.Evaluate(t);
  };
  // Each stall/drain cycle (4 ms) logs degraded, stalled, recovered — 90
  // cycles log 270 alerts against the bound of 256.
  for (int cycle = 0; cycle < 90; ++cycle) {
    window(5);
    window(5);  // degraded
    window(6);  // stalled
    window(0);  // recovered
  }
  EXPECT_EQ(dog.alerts().size(), telemetry::HealthWatchdog::kMaxAlerts);
  EXPECT_EQ(dog.alerts_dropped(), 14u);
  // The registry counter still counts every transition ever logged.
  EXPECT_EQ(reg.GetCounter("health.alerts")->value(), 270u);
  // Oldest-first eviction: the survivors are the newest 256 (cycle 5's
  // recovery at t=20ms, then all of cycles 6-90), in chronological order.
  EXPECT_EQ(dog.alerts().front().t, 20 * kMillisecond);
  EXPECT_EQ(dog.alerts().front().to, HealthState::kHealthy);
  EXPECT_EQ(dog.alerts().back().t, 360 * kMillisecond);
  for (size_t i = 1; i < dog.alerts().size(); ++i) {
    EXPECT_LT(dog.alerts()[i - 1].t, dog.alerts()[i].t);
  }
}

TEST(WatchdogTest, StalledHealthyStalledFlapLogsDistinctAlerts) {
  telemetry::MetricsRegistry reg;
  auto* down = reg.GetGauge("fault.link.down");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddLinkDownRule("link", "fault.link.down", "net.wire");

  Nanos t = 0;
  auto window = [&](int64_t v) {
    down->Set(v);
    t += kMillisecond;
    sampler.Sample(t);
    dog.Evaluate(t);
  };
  window(1);  // stalled
  window(0);  // recovered
  window(1);  // stalled again: a distinct alert, not a dedup
  ASSERT_EQ(dog.alerts().size(), 3u);
  EXPECT_EQ(dog.alerts()[0].to, HealthState::kStalled);
  EXPECT_EQ(dog.alerts()[1].to, HealthState::kHealthy);
  EXPECT_EQ(dog.alerts()[1].reason, "recovered");
  EXPECT_EQ(dog.alerts()[2].to, HealthState::kStalled);
  EXPECT_NE(dog.alerts()[0].t, dog.alerts()[2].t);
  EXPECT_EQ(dog.alerts_dropped(), 0u);
}

TEST(WatchdogTest, DrainingQueueIsNotAStall) {
  telemetry::MetricsRegistry reg;
  auto* depth = reg.GetGauge("queue.test.depth");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddQueueStallRule("test.q", "queue.test.depth", "o", 3, 1);
  // Deep but strictly draining each window: backpressure, not a stall.
  for (int i = 0; i < 5; ++i) {
    depth->Set(100 - 20 * i);
    sampler.Sample((i + 1) * kMillisecond);
    dog.Evaluate((i + 1) * kMillisecond);
  }
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kHealthy);
  EXPECT_TRUE(dog.alerts().empty());
}

TEST(WatchdogTest, RateSpikeDegradesWhileElevated) {
  telemetry::MetricsRegistry reg;
  auto* drops = reg.GetCounter("nic.drops");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddRateSpikeRule("nic", "nic.drops.rate", "oncall", /*per_second=*/50.0);

  drops->Increment(10);  // 10 drops over 1s = 10/s: fine
  sampler.Sample(1 * kSecond);
  dog.Evaluate(1 * kSecond);
  EXPECT_EQ(dog.StateOf("nic"), HealthState::kHealthy);

  drops->Increment(200);  // 200/s: spike
  sampler.Sample(2 * kSecond);
  dog.Evaluate(2 * kSecond);
  EXPECT_EQ(dog.StateOf("nic"), HealthState::kDegraded);

  sampler.Sample(3 * kSecond);  // no new drops: 0/s
  dog.Evaluate(3 * kSecond);
  EXPECT_EQ(dog.StateOf("nic"), HealthState::kHealthy);
  EXPECT_EQ(dog.alerts().size(), 2u);
}

// ---- Top talkers ----------------------------------------------------------

net::FiveTuple Tuple(uint16_t src_port) {
  return {net::Ipv4Address::FromOctets(10, 0, 0, 1),
          net::Ipv4Address::FromOctets(10, 0, 0, 2), src_port, 80,
          net::IpProto::kUdp};
}

TEST(TopTalkersTest, EvictsSmallestUnderSramPressure) {
  telemetry::MetricsRegistry reg;
  // Room for exactly two entries: 2 * 48 = 96 bytes.
  nic::SramAllocator sram(2 * nic::kTopTalkerEntryBytes);
  nic::TopTalkers tt(&sram, &reg, /*max_entries=*/64);

  tt.Record(Tuple(1000), 1, 5000, 10);  // heavy
  tt.Record(Tuple(2000), 2, 100, 20);   // light
  EXPECT_EQ(tt.size(), 2u);
  EXPECT_EQ(sram.available(), 0u);

  // A third flow arrives with SRAM exhausted: the light flow is evicted.
  tt.Record(Tuple(3000), 3, 700, 30);
  EXPECT_EQ(tt.size(), 2u);
  EXPECT_EQ(tt.evicted(), 1u);
  EXPECT_EQ(tt.Lookup(Tuple(2000)), nullptr);
  ASSERT_NE(tt.Lookup(Tuple(1000)), nullptr);
  ASSERT_NE(tt.Lookup(Tuple(3000)), nullptr);

  // Ranking: most bytes first.
  const auto top = tt.Top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].bytes, 5000u);
  EXPECT_EQ(top[1].bytes, 700u);
}

TEST(TopTalkersTest, MaxEntriesBoundEvicts) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(1 << 20);  // ample SRAM: the table bound governs
  nic::TopTalkers tt(&sram, &reg, /*max_entries=*/2);
  tt.Record(Tuple(1), 1, 300, 1);
  tt.Record(Tuple(2), 1, 200, 2);
  tt.Record(Tuple(3), 1, 900, 3);
  EXPECT_EQ(tt.size(), 2u);
  EXPECT_EQ(tt.evicted(), 1u);
  EXPECT_EQ(tt.Lookup(Tuple(2)), nullptr);  // smallest evicted
  // SRAM stays charged for exactly the live entries.
  EXPECT_EQ(sram.used(), 2 * nic::kTopTalkerEntryBytes);
}

TEST(TopTalkersTest, UntrackedWhenNoSramAtAll) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(nic::kTopTalkerEntryBytes - 8);  // fits nothing
  nic::TopTalkers tt(&sram, &reg, 64);
  tt.Record(Tuple(1), 1, 100, 1);
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_EQ(tt.untracked(), 1u);
  EXPECT_EQ(reg.GetCounter("flow.untracked")->value(), 1u);
}

TEST(TopTalkersTest, RepeatedPacketsAccumulateThroughHotCache) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(1 << 20);
  nic::TopTalkers tt(&sram, &reg, 64);
  for (int i = 0; i < 100; ++i) {
    tt.Record(Tuple(1), 7, 100, i);
  }
  tt.Record(Tuple(2), 8, 1, 200);
  for (int i = 0; i < 50; ++i) {
    tt.Record(Tuple(1), 7, 100, 300 + i);
  }
  const auto* e = tt.Lookup(Tuple(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packets, 150u);
  EXPECT_EQ(e->bytes, 15000u);
  EXPECT_EQ(e->first_seen, 0);
  EXPECT_EQ(e->last_seen, 349);
  EXPECT_EQ(e->owner_pid, 7u);
}

// ---- Sniffer capture bound ------------------------------------------------

TEST(SnifferTest, CaptureBufferIsBounded) {
  sim::Simulator sim;
  dataplane::SnifferTap tap(&sim, /*snaplen=*/96, /*max_records=*/3);
  tap.Start();

  const net::FrameEndpoints ep{net::MacAddress::ForHost(1),
                               net::MacAddress::ForHost(2),
                               net::Ipv4Address::FromOctets(10, 0, 0, 1),
                               net::Ipv4Address::FromOctets(10, 0, 0, 2)};
  const net::PacketPtr packet =
      net::BuildUdpPacket(ep, 1111, 2222, std::vector<uint8_t>(64, 0xcd));
  const auto parsed = *net::ParseFrame(packet->bytes());
  overlay::PacketContext ctx;
  ctx.frame = packet->bytes();
  ctx.parsed = &parsed;
  ctx.direction = net::Direction::kTx;

  for (int i = 0; i < 5; ++i) {
    tap.Process(*packet, ctx);
  }
  // tcpdump -c semantics: the first 3 are retained, 2 overflowed, and the
  // pcap byte stream stays consistent with the record list.
  EXPECT_EQ(tap.records().size(), 3u);
  EXPECT_EQ(tap.overflow(), 2u);
  EXPECT_EQ(tap.pcap().record_count(), 3u);
  EXPECT_EQ(sim.metrics().GetCounter("sniffer.overflow")->value(), 2u);
}

// ---- Queue watermarks -----------------------------------------------------

TEST(QueueDepthGaugesTest, HighWaterLatches) {
  telemetry::MetricsRegistry reg;
  telemetry::QueueDepthGauges g(&reg, "unit");
  g.Add(3);
  EXPECT_EQ(g.depth(), 3);
  EXPECT_EQ(g.high_water(), 3);
  g.Add(-2);
  EXPECT_EQ(g.depth(), 1);
  EXPECT_EQ(g.high_water(), 3);  // watermark holds
  g.Set(9);
  EXPECT_EQ(g.high_water(), 9);
  g.Set(0);
  EXPECT_EQ(reg.GetGauge("queue.unit.depth")->value(), 0);
  EXPECT_EQ(reg.GetGauge("queue.unit.high_water")->value(), 9);
}

// ---- norman-top rendering -------------------------------------------------

std::pair<std::string, std::string> RunTopScenario() {
  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 200 * kMicrosecond;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.top_talkers = true;
  cfg.top_talker_entries = 8;
  cfg.maintenance = true;
  EXPECT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto s = Socket::Connect(&k, pid, peer, 4242, {});
  const std::vector<uint8_t> payload(400, 0x5e);
  for (int i = 0; i < 12; ++i) {
    (void)s->Send(payload);
  }
  bed.sim().Run();
  return {tools::TopRender(k, bed.nic()), tools::TopJson(k, bed.nic())};
}

TEST(NormanTopTest, RenderAndJsonAreByteIdenticalAcrossRuns) {
  const auto [text_a, json_a] = RunTopScenario();
  const auto [text_b, json_b] = RunTopScenario();
  EXPECT_EQ(text_a, text_b);
  EXPECT_EQ(json_a, json_b);
}

TEST(NormanTopTest, RenderShowsFlowsQueuesAndHealth) {
  const auto [text, json] = RunTopScenario();
  EXPECT_NE(text.find("flows (on-NIC top talkers):"), std::string::npos);
  EXPECT_NE(text.find("pid=100 (app)"), std::string::npos);
  EXPECT_NE(text.find("queues (depth / high-water):"), std::string::npos);
  EXPECT_NE(text.find("nic.qdisc"), std::string::npos);
  EXPECT_NE(text.find("health:"), std::string::npos);
  EXPECT_NE(json.find("\"flows\":["), std::string::npos);
  EXPECT_NE(json.find("\"health\":{"), std::string::npos);
  EXPECT_NE(json.find("\"queues\":{"), std::string::npos);
}

// ---- Kernel maintenance tick ---------------------------------------------

TEST(MaintenanceTest, TickDrivesSamplerAndParksWhenIdle) {
  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 100 * kMicrosecond;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.maintenance = true;
  ASSERT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  EXPECT_TRUE(k.maintenance_running());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto s = Socket::Connect(&k, pid, peer, 999, {});
  (void)s->Send(std::vector<uint8_t>(200, 1));
  bed.sim().Run();

  // Ticks ran while traffic kept the heap alive, then the timer parked
  // itself instead of spinning the simulation forever.
  EXPECT_GE(k.maintenance_ticks(), 1u);
  EXPECT_GE(k.sampler().samples_taken(), 1u);
  EXPECT_FALSE(k.maintenance_running());
  EXPECT_EQ(k.sampler().samples_taken(), k.maintenance_ticks());
}

}  // namespace
}  // namespace norman
