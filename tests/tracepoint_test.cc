// Kernel tracepoints: probe naming, arm/disarm gating, predicate parsing
// and emit-time filtering, per-core ring retention with oldest-first
// overwrite, the freeze latch, and the byte-stable inspection exports.
// Plus packet-lifecycle spans on the same journal: deterministic 1-in-N
// sampling, ring retention, stage histograms and the Chrome export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/tracepoint.h"

namespace norman {
namespace {

using telemetry::kDirRx;
using telemetry::kDirTx;
using telemetry::MetricsRegistry;
using telemetry::Probe;
using telemetry::ProbePredicate;
using telemetry::TraceFlow;
using telemetry::Tracepoints;

TEST(TracepointTest, ProbeNamesRoundTrip) {
  for (size_t i = 0; i < telemetry::kNumProbes; ++i) {
    const auto probe = static_cast<Probe>(i);
    const std::string_view name = telemetry::ProbeName(probe);
    EXPECT_FALSE(name.empty());
    Probe back;
    ASSERT_TRUE(telemetry::ProbeFromName(name, &back)) << name;
    EXPECT_EQ(back, probe);
  }
  Probe out;
  EXPECT_FALSE(telemetry::ProbeFromName("no.such.probe", &out));
}

TEST(TracepointTest, RegistersCountersEagerly) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  // Every probe counter plus the overwrite counter exists before any arm,
  // so the metric manifest does not depend on what a run chose to watch.
  EXPECT_EQ(reg.GetCounter("probe.filter.verdict")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("probe.watchdog.transition")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("probe.records.dropped")->value(), 0u);
}

TEST(TracepointTest, DisarmedEmitRecordsNothing) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.Emit(Probe::kNicDrop, Tracepoints::kCoreNic, 7, 1, 2, 3);
  EXPECT_EQ(tp.hits(Probe::kNicDrop), 0u);
  EXPECT_EQ(tp.emitted_total(), 0u);
  EXPECT_TRUE(tp.Journal().empty());
  EXPECT_EQ(reg.GetCounter("probe.nic.drop")->value(), 0u);
}

TEST(TracepointTest, ArmedEmitStampsRecordAndCounts) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  Nanos now = 0;
  tp.SetClock(&now);
  tp.Arm(Probe::kSramAlloc);
  now = 123;
  const TraceFlow flow{0x0a000001, 0x0a000002, 1111, 2222, 17, kDirTx};
  tp.Emit(Probe::kSramAlloc, Tracepoints::kCoreNic, 42, 64, 128, 0, &flow);
  ASSERT_EQ(tp.Journal().size(), 1u);
  const telemetry::TraceRecord rec = tp.Journal()[0];
  EXPECT_EQ(rec.t, 123);
  EXPECT_EQ(rec.seq, 0u);
  EXPECT_EQ(rec.a0, 64u);
  EXPECT_EQ(rec.a1, 128u);
  EXPECT_EQ(rec.pid, 42u);
  EXPECT_EQ(rec.probe, static_cast<uint16_t>(Probe::kSramAlloc));
  EXPECT_EQ(rec.core, Tracepoints::kCoreNic);
  EXPECT_EQ(rec.dir, kDirTx);
  EXPECT_EQ(tp.hits(Probe::kSramAlloc), 1u);
  EXPECT_EQ(reg.GetCounter("probe.sram.alloc")->value(), 1u);
  // Other probes stay disarmed.
  tp.Emit(Probe::kNicDrop, Tracepoints::kCoreNic, 42);
  EXPECT_EQ(tp.Journal().size(), 1u);
}

TEST(TracepointTest, PredicateFiltersAtEmit) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  ProbePredicate pred;
  pred.pid = 5;
  pred.dir = kDirRx;
  tp.Arm(Probe::kFilterVerdict, pred);

  const TraceFlow rx{0, 0, 0, 0, 0, kDirRx};
  const TraceFlow tx{0, 0, 0, 0, 0, kDirTx};
  tp.Emit(Probe::kFilterVerdict, 0, 5, 0, 0, 0, &rx);   // match
  tp.Emit(Probe::kFilterVerdict, 0, 6, 0, 0, 0, &rx);   // wrong pid
  tp.Emit(Probe::kFilterVerdict, 0, 5, 0, 0, 0, &tx);   // wrong dir
  tp.Emit(Probe::kFilterVerdict, 0, 5);                 // no flow at all
  EXPECT_EQ(tp.hits(Probe::kFilterVerdict), 1u);
  EXPECT_EQ(tp.filtered(Probe::kFilterVerdict), 3u);
  EXPECT_EQ(tp.Journal().size(), 1u);
}

TEST(TracepointTest, PredicateParseRenderRoundTrip) {
  ProbePredicate pred;
  ASSERT_TRUE(ProbePredicate::Parse(
      "pid=3,dir=tx,src_ip=10.0.0.1,dst_port=443,proto=17", &pred));
  EXPECT_EQ(pred.pid, 3u);
  EXPECT_EQ(pred.dir, kDirTx);
  EXPECT_EQ(pred.src_ip, 0x0a000001u);
  EXPECT_EQ(pred.dst_port, 443u);
  EXPECT_EQ(pred.proto, 17u);
  EXPECT_EQ(pred.Render(), "pid=3,dir=tx,src_ip=10.0.0.1,dst_port=443,proto=17");

  ProbePredicate again;
  ASSERT_TRUE(ProbePredicate::Parse(pred.Render(), &again));
  EXPECT_EQ(again.Render(), pred.Render());

  ProbePredicate any;
  ASSERT_TRUE(ProbePredicate::Parse("*", &any));
  EXPECT_TRUE(any.any());
  EXPECT_EQ(any.Render(), "*");

  ProbePredicate bad;
  EXPECT_FALSE(ProbePredicate::Parse("pid=abc", &bad));
  EXPECT_FALSE(ProbePredicate::Parse("nope=1", &bad));
  EXPECT_FALSE(ProbePredicate::Parse("dir=up", &bad));
  EXPECT_FALSE(ProbePredicate::Parse("src_ip=10.0.0", &bad));
  EXPECT_FALSE(ProbePredicate::Parse("dst_port=70000", &bad));
}

TEST(TracepointTest, RingKeepsNewestAndCountsOverwrites) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.Arm(Probe::kSramAlloc);
  const size_t extra = 10;
  for (size_t i = 0; i < Tracepoints::kRingCapacity + extra; ++i) {
    tp.Emit(Probe::kSramAlloc, Tracepoints::kCoreNic, 0, i);
  }
  const auto journal = tp.Journal();
  ASSERT_EQ(journal.size(), Tracepoints::kRingCapacity);
  // Oldest records fell off the front: the journal starts at seq `extra`.
  EXPECT_EQ(journal.front().seq, extra);
  EXPECT_EQ(journal.back().seq, Tracepoints::kRingCapacity + extra - 1);
  EXPECT_EQ(tp.overwritten(), extra);
  EXPECT_EQ(reg.GetCounter("probe.records.dropped")->value(), extra);
}

TEST(TracepointTest, JournalMergesCoreRingsInEmitOrder) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.Arm(Probe::kSramAlloc);
  tp.Arm(Probe::kSocketCall);
  tp.Emit(Probe::kSramAlloc, Tracepoints::kCoreNic, 0);
  tp.Emit(Probe::kSocketCall, Tracepoints::kCoreHost, 1);
  tp.Emit(Probe::kSramAlloc, Tracepoints::kCoreNic, 0);
  const auto journal = tp.Journal();
  ASSERT_EQ(journal.size(), 3u);
  for (size_t i = 0; i < journal.size(); ++i) {
    EXPECT_EQ(journal[i].seq, i);
  }
  EXPECT_EQ(journal[1].core, Tracepoints::kCoreHost);
}

TEST(TracepointTest, FreezeStopsAppendsButStillCountsHits) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.Arm(Probe::kNicDrop);
  tp.Emit(Probe::kNicDrop, 0, 0);
  tp.Freeze();
  tp.Emit(Probe::kNicDrop, 0, 0);
  tp.Emit(Probe::kNicDrop, 0, 0);
  EXPECT_EQ(tp.hits(Probe::kNicDrop), 3u);  // the decisions still happened
  EXPECT_EQ(tp.Journal().size(), 1u);       // the pre-freeze tail is kept
  tp.Unfreeze();
  tp.Emit(Probe::kNicDrop, 0, 0);
  EXPECT_EQ(tp.Journal().size(), 2u);
}

TEST(TracepointTest, ClearDropsRecordsButKeepsArming) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  ProbePredicate pred;
  pred.pid = 9;
  tp.Arm(Probe::kNicDrop, pred);
  tp.Emit(Probe::kNicDrop, 0, 9);
  tp.Freeze();
  tp.Clear();
  EXPECT_TRUE(tp.Journal().empty());
  EXPECT_EQ(tp.hits(Probe::kNicDrop), 0u);
  EXPECT_FALSE(tp.frozen());
  EXPECT_TRUE(tp.armed(Probe::kNicDrop));
  EXPECT_EQ(tp.predicate(Probe::kNicDrop).pid, 9u);
  tp.Emit(Probe::kNicDrop, 0, 9);
  EXPECT_EQ(tp.Journal().size(), 1u);
  EXPECT_EQ(tp.Journal()[0].seq, 0u);  // sequence restarts after Clear
}

TEST(TracepointTest, DisarmRestoresTheZeroMask) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.ArmAll();
  for (size_t i = 0; i < telemetry::kNumProbes; ++i) {
    EXPECT_TRUE(tp.armed(static_cast<Probe>(i)));
  }
  for (size_t i = 0; i < telemetry::kNumProbes; ++i) {
    tp.Disarm(static_cast<Probe>(i));
  }
  for (size_t i = 0; i < telemetry::kNumProbes; ++i) {
    EXPECT_FALSE(tp.armed(static_cast<Probe>(i)));
  }
  tp.Arm(Probe::kRingFull);
  tp.Disarm(Probe::kRingFull);
  EXPECT_FALSE(tp.armed(Probe::kRingFull));
}

TEST(TracepointTest, ListReportIsSortedAndByteStable) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  ProbePredicate pred;
  pred.dst_port = 443;
  tp.Arm(Probe::kFilterVerdict, pred);
  const std::string a = tp.ListReport();
  const std::string b = tp.ListReport();
  EXPECT_EQ(a, b);
  // Sorted by probe name: conntrack.transition precedes filter.verdict.
  EXPECT_LT(a.find("conntrack.transition"), a.find("filter.verdict"));
  EXPECT_NE(a.find("dst_port=443"), std::string::npos);
}

TEST(TracepointTest, JournalJsonIsByteStable) {
  telemetry::MetricsRegistry reg;
  Tracepoints tp(&reg);
  Nanos now = 7;
  tp.SetClock(&now);
  tp.Arm(Probe::kSocketCall);
  const TraceFlow flow{0x0a000001, 0x0a000002, 1, 2, 6, kDirRx};
  tp.Emit(Probe::kSocketCall, Tracepoints::kCoreHost, 3, 0, 80, 0, &flow);
  const std::string a = tp.JournalJson();
  EXPECT_EQ(a, tp.JournalJson());
  EXPECT_NE(a.find("\"probe\":\"socket.call\""), std::string::npos);
  EXPECT_NE(a.find("\"t\":7"), std::string::npos);
  EXPECT_NE(a.find("\"dir\":\"rx\""), std::string::npos);
}

// ---- Packet-lifecycle spans (the packet tracer) ---------------------------

TEST(PacketTracerTest, DisabledByDefault) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(tp.SampleArrival(), 0u);
  }
  tp.Span(0, "tx.dma", 0, 10, Tracepoints::kCoreNic);  // id 0 -> no-op
  EXPECT_EQ(tp.spans_recorded(), 0u);
  EXPECT_TRUE(tp.Journal().empty());
}

TEST(PacketTracerTest, SamplingCadenceIsDeterministicOneInN) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.set_span_sample_interval(4);
  std::vector<uint32_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(tp.SampleArrival());
  }
  // Arrivals 0, 4, 8, 12 get fresh ids 1..4; everything else is 0.
  for (int i = 0; i < 16; ++i) {
    if (i % 4 == 0) {
      EXPECT_EQ(ids[static_cast<size_t>(i)],
                static_cast<uint32_t>(i / 4 + 1));
    } else {
      EXPECT_EQ(ids[static_cast<size_t>(i)], 0u);
    }
  }
}

TEST(PacketTracerTest, SampleEveryPacket) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.set_span_sample_interval(1);
  for (uint32_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(tp.SampleArrival(), i);
  }
}

TEST(PacketTracerTest, RingWrapKeepsNewestSpans) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  const size_t extra = 6;
  const auto total = static_cast<uint32_t>(Tracepoints::kRingCapacity + extra);
  for (uint32_t i = 1; i <= total; ++i) {
    tp.Span(i, "tx.wire", i * 10, i * 10 + 5, Tracepoints::kCoreNic);
  }
  EXPECT_EQ(tp.spans_recorded(), total);
  // Span overwrites count with every other record's.
  EXPECT_EQ(tp.overwritten(), extra);
  EXPECT_EQ(reg.GetCounter("probe.records.dropped")->value(), extra);
  const auto spans = tp.Spans();
  ASSERT_EQ(spans.size(), Tracepoints::kRingCapacity);
  // Oldest-first among the survivors: ids extra + 1 .. total.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace_id, static_cast<uint32_t>(i + extra + 1));
  }
  EXPECT_EQ(spans.back().start, Nanos{total} * 10);
  EXPECT_EQ(spans.back().end, Nanos{total} * 10 + 5);
}

TEST(PacketTracerTest, RecordFeedsStageHistograms) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.Span(1, "tx.wire", 100, 350, Tracepoints::kCoreNic);
  tp.Span(2, "tx.wire", 100, 350, Tracepoints::kCoreNic);
  tp.Span(3, "rx.dma", 0, 40, Tracepoints::kCoreNic);
  // The histograms live in the registry under "trace.stage.<name>".
  const auto* wire = reg.FindHistogram("trace.stage.tx.wire");
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->count(), 2u);
  EXPECT_EQ(wire->min(), 250);
  const auto* dma = reg.FindHistogram("trace.stage.rx.dma");
  ASSERT_NE(dma, nullptr);
  EXPECT_EQ(dma->count(), 1u);
  EXPECT_EQ(reg.FindHistogram("trace.stage.never.recorded"), nullptr);
}

TEST(PacketTracerTest, ChromeTraceJsonShape) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.Span(1, "tx.dma", 1000, 2500, Tracepoints::kCoreNic);
  tp.Span(1, "tx.wire", 2500, 9000, Tracepoints::kCoreNic);
  const std::string json = tp.ChromeTraceJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u)
      << json;
  EXPECT_EQ(json.back(), '}');
  // Two complete events, microsecond timestamps, tid = trace id.
  EXPECT_NE(json.find("\"name\":\"tx.dma\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos) << json;
}

TEST(PacketTracerTest, ClearDropsSpansKeepsKnob) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  tp.set_span_sample_interval(2);
  const uint32_t id = tp.SampleArrival();
  (void)tp.SampleArrival();
  tp.Span(id, "tx.dma", 0, 5, Tracepoints::kCoreNic);
  tp.Clear();
  EXPECT_EQ(tp.spans_recorded(), 0u);
  EXPECT_TRUE(tp.Spans().empty());
  // Arrival and trace-id counters restart: the first arrival is sampled
  // again, under the first id, and the 1-in-2 interval survives.
  EXPECT_EQ(tp.SampleArrival(), 1u);
  EXPECT_EQ(tp.SampleArrival(), 0u);
  EXPECT_EQ(tp.SampleArrival(), 2u);
}

// Spans and probe emits share one journal: one global sequence across the
// core rings, the freeze latch stops span appends while the stage
// histograms (which the watchdog reads live) keep filling, and the decoded
// journal names each span's stage.
TEST(TracepointTest, SpansShareTheJournalWithProbeEmits) {
  MetricsRegistry reg;
  Tracepoints tp(&reg);
  Nanos now = 50;
  tp.SetClock(&now);
  tp.Arm(Probe::kNicDrop);
  tp.set_span_sample_interval(1);
  const uint32_t id = tp.SampleArrival();
  tp.Span(id, "tx.dma", 10, 20, Tracepoints::kCoreNic);
  tp.Emit(Probe::kNicDrop, Tracepoints::kCoreHost, 0);
  tp.Span(id, "tx.wire", 20, 45, Tracepoints::kCoreLaneBase + 1);
  const auto journal = tp.Journal();
  ASSERT_EQ(journal.size(), 3u);
  for (size_t i = 0; i < journal.size(); ++i) {
    EXPECT_EQ(journal[i].seq, i);
  }
  const telemetry::TraceRecord& span = journal.front();
  EXPECT_EQ(span.probe, telemetry::kSpanRecord);
  EXPECT_EQ(span.t, 10);
  EXPECT_EQ(span.a0, id);
  EXPECT_EQ(span.a2, 20u);
  EXPECT_EQ(journal.back().core, Tracepoints::kCoreLaneBase + 1);
  EXPECT_EQ(journal[1].probe, static_cast<uint16_t>(Probe::kNicDrop));

  const std::string json = tp.JournalJson();
  EXPECT_NE(json.find("\"probe\":\"pkt.span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"tx.dma\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"tx.wire\""), std::string::npos) << json;

  tp.Freeze();
  tp.Span(id, "tx.wire", 45, 60, Tracepoints::kCoreNic);
  EXPECT_EQ(tp.Journal().size(), 3u);
  EXPECT_EQ(tp.spans_recorded(), 2u);
  EXPECT_EQ(reg.FindHistogram("trace.stage.tx.wire")->count(), 2u);
}

}  // namespace
}  // namespace norman
