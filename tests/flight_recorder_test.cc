// Black-box flight recorder: trigger matching and first-match latching,
// probe auto-arming, the freeze interplay with the tracepoint rings, the
// canned trigger rules, and byte-stable postmortem bundles over a real
// TestBed world, including the packet spans a bundle carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/tracepoint.h"
#include "src/dataplane/filter_engine.h"
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
  tp.Emit(Probe::kSramExhausted, 0, 0);
  EXPECT_NE(fr.TriggersReport().find("FIRED"), std::string::npos);
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
  EXPECT_NE(a.find("\"name\":\"sram-exhausted\""), std::string::npos);
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

// The value of `"key":` in one decoded journal record (quotes stripped).
std::string RecordField(std::string_view rec, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  size_t at = rec.find(pattern);
  if (at == std::string_view::npos) {
    return "";
  }
  at += pattern.size();
  if (rec[at] == '"') {
    ++at;
    return std::string(rec.substr(at, rec.find('"', at) - at));
  }
  return std::string(rec.substr(at, rec.find_first_of(",}", at) - at));
}

// Spans ride the journal into the postmortem bundle: with every packet
// sampled and a filter-deny trigger that fires after traffic has flowed,
// the bundle alone rebuilds each traced packet's path — pkt.span records,
// stage names, and per-trace spans that tile.
TEST(FlightRecorderTest, BundleCarriesPacketSpansThatTile) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& tp = bed.sim().tracepoints();
  auto& fr = bed.sim().flight_recorder();
  tp.set_span_sample_interval(1);
  fr.AddDropReasonTrigger("filter-deny",
                          static_cast<uint64_t>(DropReason::kFilterDeny));

  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  dataplane::FilterRule deny;
  deny.proto = net::IpProto::kUdp;
  deny.dst_port = dataplane::PortRange{9, 9};
  deny.action = dataplane::FilterAction::kDrop;
  ASSERT_TRUE(
      k.AppendFilterRule(kernel::kRootUid, kernel::Chain::kOutput, deny).ok());
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto good = Socket::Connect(&k, pid, peer, 6000, {});
  auto bad = Socket::Connect(&k, pid, peer, 9, {});
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());

  const std::vector<uint8_t> payload(200, 0x5a);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(good->Send(payload).ok());
    bed.sim().Run();
  }
  EXPECT_FALSE(fr.triggered());
  ASSERT_TRUE(bad->Send(payload).ok());
  bed.sim().Run();
  const uint64_t spans_at_trigger = tp.spans_recorded();
  ASSERT_TRUE(good->Send(payload).ok());
  bed.sim().Run();
  EXPECT_TRUE(fr.triggered());
  EXPECT_EQ(fr.fired_trigger(), "filter-deny");
  // Frozen at the trigger: the post-trigger packet appended no spans.
  EXPECT_EQ(tp.spans_recorded(), spans_at_trigger);

  const std::string bundle = fr.Bundle(bed.sim().metrics(), nullptr, nullptr);
  EXPECT_NE(bundle.find("\"name\":\"filter-deny\""), std::string::npos);
  // The journal section is a flat array of brace-delimited records.
  const size_t journal_at = bundle.find("\"journal\":[");
  ASSERT_NE(journal_at, std::string::npos);
  const size_t journal_end = bundle.find(']', journal_at);
  struct BundleSpan {
    Nanos start;
    Nanos end;
    std::string stage;
  };
  std::map<uint64_t, std::vector<BundleSpan>> by_id;
  size_t span_records = 0;
  for (size_t at = bundle.find('{', journal_at);
       at != std::string::npos && at < journal_end;
       at = bundle.find('{', at + 1)) {
    const std::string_view rec(bundle.data() + at,
                               bundle.find('}', at) - at + 1);
    if (RecordField(rec, "probe") != "pkt.span") {
      continue;
    }
    ++span_records;
    BundleSpan span{std::stoll(RecordField(rec, "t")),
                    std::stoll(RecordField(rec, "a2")),
                    RecordField(rec, "stage")};
    ASSERT_FALSE(span.stage.empty()) << rec;
    by_id[std::stoull(RecordField(rec, "a0"))].push_back(std::move(span));
  }
  EXPECT_EQ(span_records, tp.Spans().size());
  ASSERT_GE(by_id.size(), 8u);  // 4 TX frames + 4 echoes, at least

  bool full_tx_path = false;
  for (auto& [id, spans] : by_id) {
    std::sort(spans.begin(), spans.end(),
              [](const BundleSpan& a, const BundleSpan& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    for (size_t i = 1; i < spans.size(); ++i) {
      ASSERT_EQ(spans[i].start, spans[i - 1].end)
          << "gap/overlap in trace " << id << " before stage "
          << spans[i].stage;
    }
    full_tx_path |= spans.front().stage == "tx.dma" &&
                    spans.back().stage == "tx.wire";
  }
  EXPECT_TRUE(full_tx_path);
}

}  // namespace
}  // namespace norman
