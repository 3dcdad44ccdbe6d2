// Black-box flight recorder: trigger matching and first-match latching,
// probe auto-arming, the freeze interplay with the tracepoint rings, the
// canned trigger rules, and byte-stable postmortem bundles over a real
// TestBed world.
#include <gtest/gtest.h>

#include <string>

#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/tracepoint.h"
#include "src/norman/socket.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using telemetry::FlightRecorder;
using telemetry::Probe;
using telemetry::Tracepoints;
using telemetry::TriggerRule;

TEST(FlightRecorderTest, TriggerRuleMatchesPinnedFields) {
  TriggerRule rule;
  rule.probe = Probe::kNicDrop;
  rule.a0 = 12;
  rule.pid = 5;
  telemetry::TraceRecord rec;
  rec.probe = static_cast<uint16_t>(Probe::kNicDrop);
  rec.a0 = 12;
  rec.pid = 5;
  EXPECT_TRUE(rule.Matches(rec));
  rec.a0 = 11;
  EXPECT_FALSE(rule.Matches(rec));
  rec.a0 = 12;
  rec.pid = 6;
  EXPECT_FALSE(rule.Matches(rec));
  rec.pid = 5;
  rec.probe = static_cast<uint16_t>(Probe::kQdiscDrop);
  EXPECT_FALSE(rule.Matches(rec));
}

TEST(FlightRecorderTest, AddTriggerArmsItsProbe) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  FlightRecorder fr(&tp);
  EXPECT_FALSE(tp.armed(Probe::kSramExhausted));
  fr.AddSramExhaustedTrigger();
  EXPECT_TRUE(tp.armed(Probe::kSramExhausted));
}

TEST(FlightRecorderTest, FirstMatchLatchesAndFreezesTheRings) {
  if (!telemetry::kHotStatsEnabled) {
    GTEST_SKIP() << "emits compile away at NORMAN_STATS_LEVEL=0";
  }
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  FlightRecorder fr(&tp);
  TriggerRule rule;
  rule.name = "third-drop";
  rule.probe = Probe::kNicDrop;
  rule.a0 = 3;
  fr.AddTrigger(rule);
  tp.Arm(Probe::kSramAlloc);

  tp.Emit(Probe::kSramAlloc, 0, 0, 1);  // context before the event
  tp.Emit(Probe::kNicDrop, 0, 0, 1);    // non-matching a0
  tp.Emit(Probe::kNicDrop, 0, 7, 3);    // fires
  EXPECT_TRUE(fr.triggered());
  EXPECT_EQ(fr.fired_trigger(), "third-drop");
  EXPECT_EQ(fr.fired_record().pid, 7u);
  EXPECT_TRUE(tp.frozen());

  // Post-trigger decisions count hits but never enter the journal: the
  // black box preserves the tail that led up to the event.
  tp.Emit(Probe::kNicDrop, 0, 0, 3);
  EXPECT_EQ(tp.Journal().size(), 3u);
  EXPECT_EQ(tp.hits(Probe::kNicDrop), 3u);
  // The latch is first-match-wins: the fired record is unchanged.
  EXPECT_EQ(fr.fired_record().pid, 7u);
}

TEST(FlightRecorderTest, ResetClearsTheLatchAndKeepsTriggers) {
  if (!telemetry::kHotStatsEnabled) {
    GTEST_SKIP() << "emits compile away at NORMAN_STATS_LEVEL=0";
  }
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  FlightRecorder fr(&tp);
  fr.AddSramExhaustedTrigger();
  tp.Emit(Probe::kSramExhausted, 0, 0, 64, 0);
  ASSERT_TRUE(fr.triggered());
  fr.Reset();
  EXPECT_FALSE(fr.triggered());
  EXPECT_FALSE(tp.frozen());
  ASSERT_EQ(fr.triggers().size(), 1u);
  // The surviving trigger re-fires on the next match.
  tp.Emit(Probe::kSramExhausted, 0, 0, 64, 0);
  EXPECT_TRUE(fr.triggered());
}

TEST(FlightRecorderTest, WatchdogUnhealthyTriggerFiresOnLeavingHealthy) {
  if (!telemetry::kHotStatsEnabled) {
    GTEST_SKIP() << "emits compile away at NORMAN_STATS_LEVEL=0";
  }
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  FlightRecorder fr(&tp);
  fr.AddWatchdogUnhealthyTrigger();
  // degraded -> stalled: not a departure from healthy, so no fire.
  tp.Emit(Probe::kWatchdogTransition, Tracepoints::kCoreHost, 0,
          /*to=*/2, /*from=*/1);
  EXPECT_FALSE(fr.triggered());
  // healthy -> degraded: fires.
  tp.Emit(Probe::kWatchdogTransition, Tracepoints::kCoreHost, 0,
          /*to=*/1, /*from=*/0);
  EXPECT_TRUE(fr.triggered());
  EXPECT_EQ(fr.fired_trigger(), "watchdog-unhealthy");
}

TEST(FlightRecorderTest, TriggersReportShowsStateAndIsByteStable) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  FlightRecorder fr(&tp);
  fr.AddWatchdogUnhealthyTrigger();
  fr.AddDropReasonTrigger("corrupt-frame", 12);
  fr.AddSramExhaustedTrigger();
  const std::string a = fr.TriggersReport();
  EXPECT_EQ(a, fr.TriggersReport());
  EXPECT_NE(a.find("watchdog-unhealthy"), std::string::npos);
  EXPECT_NE(a.find("corrupt-frame"), std::string::npos);
  EXPECT_NE(a.find("armed"), std::string::npos);
  EXPECT_EQ(a.find("FIRED"), std::string::npos);
  if (telemetry::kHotStatsEnabled) {
    tp.Emit(Probe::kSramExhausted, 0, 0);
    EXPECT_NE(fr.TriggersReport().find("FIRED"), std::string::npos);
  }
}

// A small deterministic world that trips the SRAM trigger: the bundle —
// trigger, frozen journal, metrics snapshot, health log, flamegraph — must
// be byte-identical across two independent runs.
std::string RunWorldAndBundle() {
  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 250 * kMicrosecond;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& tp = bed.sim().tracepoints();
  auto& fr = bed.sim().flight_recorder();
  fr.AddWatchdogUnhealthyTrigger();
  fr.AddSramExhaustedTrigger();
  tp.ArmAll();

  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.maintenance = true;
  EXPECT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  auto sock = Socket::Connect(&k, pid, net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              4242, {});
  EXPECT_TRUE(sock.ok());
  // Hold the remaining SRAM hostage and force a refused allocation.
  auto& cp = k.nic_control();
  (void)cp.InjectSramPressure(cp.sram().available());
  kernel::ConnectOptions fb;
  fb.allow_software_fallback = true;
  auto fallback = Socket::Connect(
      &k, pid, net::Ipv4Address::FromOctets(10, 0, 0, 2), 5353, fb);
  cp.ReleaseSramPressure();
  const std::vector<uint8_t> payload(256, 0xcd);
  for (int i = 0; i < 8; ++i) {
    (void)sock->Send(payload);
  }
  bed.sim().Run();
  return bed.sim().flight_recorder().Bundle(
      bed.sim().metrics(), &bed.kernel().watchdog(), &bed.sim().profiler());
}

TEST(FlightRecorderTest, PostmortemBundleIsByteStableAcrossRuns) {
  const std::string a = RunWorldAndBundle();
  const std::string b = RunWorldAndBundle();
  EXPECT_EQ(a, b);
  // Shape: every section present even when empty.
  EXPECT_EQ(a.rfind("{\"trigger\":", 0), 0u);
  EXPECT_NE(a.find("\"journal\":["), std::string::npos);
  EXPECT_NE(a.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(a.find("\"health\":{"), std::string::npos);
  EXPECT_NE(a.find("\"flame\":"), std::string::npos);
  if (telemetry::kHotStatsEnabled) {
    EXPECT_NE(a.find("\"name\":\"sram-exhausted\""), std::string::npos);
  }
}

TEST(FlightRecorderTest, BundleRendersNullSectionsWithoutWatchdogOrProfiler) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  FlightRecorder fr(&tp);
  const std::string bundle = fr.Bundle(reg, nullptr, nullptr);
  EXPECT_EQ(bundle.rfind("{\"trigger\":null", 0), 0u);
  EXPECT_NE(bundle.find("\"health\":null"), std::string::npos);
  EXPECT_NE(bundle.find("\"flame\":null"), std::string::npos);
}

}  // namespace
}  // namespace norman
