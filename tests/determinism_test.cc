// Reproducibility guarantees: identical seeds and configurations must
// produce bit-identical virtual-time behavior — the property every number
// in EXPERIMENTS.md rests on. Plus the assembler/disassembler round-trip.
#include <gtest/gtest.h>

#include "src/norman/socket.h"
#include "src/overlay/assembler.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

struct RunTrace {
  uint64_t egress_frames = 0;
  uint64_t egress_bytes = 0;
  Nanos final_time = 0;
  std::vector<Nanos> completions;
  uint64_t events = 0;
  // Profiler exports, captured when the run had attribution enabled.
  std::string folded_stacks;
  std::string prof_json;
  // Tracepoint journal, captured when the run armed every probe or
  // sampled spans.
  std::string journal_json;
};

RunTrace RunWorld(uint64_t seed, uint32_t trace_sample = 0,
                  bool monitor = false, bool fastpath = false,
                  bool profiler = false, bool tracepoints = false,
                  uint16_t shard_queues = 0) {
  workload::TestBedOptions opts;
  opts.echo = true;
  if (monitor) {
    // Fast ticks so sampler/watchdog evaluations interleave densely with
    // the traffic they must not perturb.
    opts.kernel.housekeeping_period = 250 * kMicrosecond;
  }
  workload::TestBed bed(opts);
  bed.sim().tracepoints().set_span_sample_interval(trace_sample);
  if (profiler) {
    bed.sim().profiler().set_enabled(true);
  }
  if (tracepoints) {
    bed.sim().tracepoints().ArmAll();
  }
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  // Must precede the connects: sharding is one-shot and re-steers flows.
  kernel::NicConfig config;
  config.top_talkers = monitor;
  config.top_talker_entries = 16;
  config.maintenance = monitor;
  config.flow_cache = fastpath;
  config.shard_queues = shard_queues;
  EXPECT_TRUE(k.Configure(kernel::kRootUid, config).ok());
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);

  auto s1 = Socket::Connect(&k, pid, peer, 1000, {});
  auto s2 = Socket::Connect(&k, pid, peer, 2000, {});
  workload::PoissonSender p1(&bed.sim(), &*s1, 300, 20 * kMicrosecond, seed);
  workload::PoissonSender p2(&bed.sim(), &*s2, 700, 35 * kMicrosecond,
                             seed ^ 0xabcdef);
  p1.Start(0, 5 * kMillisecond);
  p2.Start(0, 5 * kMillisecond);

  RunTrace trace;
  bed.SetEgressHook([&trace](const net::Packet& p) {
    trace.completions.push_back(p.meta().completed_at);
  });
  bed.sim().Run();
  trace.egress_frames = bed.egress_frames();
  trace.egress_bytes = bed.egress_bytes();
  trace.final_time = bed.sim().Now();
  trace.events = bed.sim().events_processed();
  if (profiler) {
    trace.folded_stacks = bed.sim().profiler().FoldedStacks();
    trace.prof_json = bed.sim().profiler().JsonReport();
  }
  if (tracepoints || trace_sample != 0) {
    trace.journal_json = bed.sim().tracepoints().JournalJson();
  }
  return trace;
}

TEST(DeterminismTest, IdenticalSeedsIdenticalTraces) {
  const RunTrace a = RunWorld(42);
  const RunTrace b = RunWorld(42);
  EXPECT_EQ(a.egress_frames, b.egress_frames);
  EXPECT_EQ(a.egress_bytes, b.egress_bytes);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (size_t i = 0; i < a.completions.size(); ++i) {
    ASSERT_EQ(a.completions[i], b.completions[i]) << "frame " << i;
  }
}

// Golden trace captured on the pre-pooling tree (fresh heap allocation for
// every packet and event, unbatched TX fetch). The pooled/batched hot path
// must reproduce the virtual-time behavior bit-for-bit: same frames, same
// bytes, same final clock, and the same completion timestamp sequence
// (FNV-1a-hashed here to keep the golden compact). events_processed is
// deliberately NOT pinned — descriptor batching legitimately elides
// intermediate fetch wake-ups without reordering any observable event.
uint64_t Fnv1aHash(const std::vector<Nanos>& completions) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (const Nanos c : completions) {
    const auto v = static_cast<uint64_t>(c);
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void ExpectMatchesGoldenTrajectory(const RunTrace& t) {
  EXPECT_EQ(t.egress_frames, 413u);
  EXPECT_EQ(t.egress_bytes, 202446u);
  ASSERT_EQ(t.completions.size(), 413u);
  EXPECT_EQ(Fnv1aHash(t.completions), 8587471973237143124ULL);
}

void ExpectMatchesGolden(const RunTrace& t) {
  ExpectMatchesGoldenTrajectory(t);
  EXPECT_EQ(t.final_time, 5052014);
}

TEST(DeterminismTest, MatchesPrePoolingGoldenTrace) {
  ExpectMatchesGolden(RunWorld(42));
}

// Lifecycle tracing is pure observation: it schedules no events and draws
// no randomness, so the virtual-time trajectory with sampling enabled —
// at any interval, and with every probe armed beside the spans — must
// still match the pre-telemetry golden bit-for-bit.
TEST(DeterminismTest, TracingOnMatchesGoldenTrace) {
  ExpectMatchesGolden(RunWorld(42, /*trace_sample=*/1));
  ExpectMatchesGolden(RunWorld(42, /*trace_sample=*/64));
  ExpectMatchesGolden(RunWorld(42, /*trace_sample=*/1, /*monitor=*/false,
                               /*fastpath=*/false, /*profiler=*/false,
                               /*tracepoints=*/true));
}

// The continuous-monitoring stack — maintenance tick, time-series sampler,
// health watchdog, top-talkers table — observes but never touches packets:
// the trajectory (frames, bytes, completion sequence) must match the golden
// bit-for-bit with monitoring on. Only final_time is exempt: the maintenance
// timer itself legitimately extends the virtual clock past the last packet.
TEST(DeterminismTest, MonitoringOnMatchesGoldenTrajectory) {
  const RunTrace t = RunWorld(42, /*trace_sample=*/0, /*monitor=*/true);
  ExpectMatchesGoldenTrajectory(t);
}

// The flow fast path changes packet *latency* (hits bypass the per-stage
// walk) but must not change what comes out of the NIC: same frames, same
// bytes. Its trajectory is pinned separately because completion timestamps
// legitimately shift; this golden was captured once when the cache landed
// and any drift after that is a real fast-path bug (dropped, duplicated, or
// reordered frames, or nondeterministic eviction).
TEST(DeterminismTest, FastPathOnMatchesGoldenTrajectory) {
  const RunTrace t =
      RunWorld(42, /*trace_sample=*/0, /*monitor=*/false, /*fastpath=*/true);
  EXPECT_EQ(t.egress_frames, 413u);
  EXPECT_EQ(t.egress_bytes, 202446u);
  ASSERT_EQ(t.completions.size(), 413u);
  EXPECT_EQ(Fnv1aHash(t.completions), 12554163209316526794ULL);
  EXPECT_EQ(t.final_time, 5052014);
  // Rerunning must be bit-identical (fast-path hits and evictions are a
  // pure function of the packet sequence).
  const RunTrace again =
      RunWorld(42, /*trace_sample=*/0, /*monitor=*/false, /*fastpath=*/true);
  EXPECT_EQ(again.completions, t.completions);
}

// The profiler, like the tracer, is pure observation: no events, no RNG,
// no virtual-time cost. With attribution fully enabled the trajectory must
// still match the pre-telemetry golden bit-for-bit — and the profiler's own
// exports must be byte-stable across reruns.
TEST(DeterminismTest, ProfilerOnMatchesGoldenTrace) {
  ExpectMatchesGolden(RunWorld(42, /*trace_sample=*/0, /*monitor=*/false,
                               /*fastpath=*/false, /*profiler=*/true));
}

TEST(DeterminismTest, ProfilerExportsAreByteStable) {
  const RunTrace a = RunWorld(42, 0, false, /*fastpath=*/true,
                              /*profiler=*/true);
  const RunTrace b = RunWorld(42, 0, false, /*fastpath=*/true,
                              /*profiler=*/true);
  EXPECT_FALSE(a.prof_json.empty());
  EXPECT_EQ(a.folded_stacks, b.folded_stacks);
  EXPECT_EQ(a.prof_json, b.prof_json);
}

// Armed tracepoints, like the tracer and the profiler, are pure
// observation: no events, no RNG, no virtual-time cost, no steady-state
// allocation. With every probe armed the trajectory must match the
// pre-telemetry golden bit-for-bit.
TEST(DeterminismTest, TracepointsArmedMatchesGoldenTrace) {
  ExpectMatchesGolden(RunWorld(42, /*trace_sample=*/0, /*monitor=*/false,
                               /*fastpath=*/false, /*profiler=*/false,
                               /*tracepoints=*/true));
}

// Same pinning over the fast-path trajectory, where the flow-cache probes
// (install/evict/invalidate) actually fire.
TEST(DeterminismTest, TracepointsArmedFastPathGoldenHolds) {
  const RunTrace t = RunWorld(42, /*trace_sample=*/0, /*monitor=*/false,
                              /*fastpath=*/true, /*profiler=*/false,
                              /*tracepoints=*/true);
  EXPECT_EQ(t.egress_frames, 413u);
  EXPECT_EQ(t.egress_bytes, 202446u);
  ASSERT_EQ(t.completions.size(), 413u);
  EXPECT_EQ(Fnv1aHash(t.completions), 12554163209316526794ULL);
  EXPECT_EQ(t.final_time, 5052014);
}

// The decoded journal itself must be byte-stable across reruns — the
// postmortem bundle's core section rests on this — with probes alone and
// with packet spans interleaved among them.
TEST(DeterminismTest, TracepointsJournalIsByteStable) {
  const RunTrace a = RunWorld(42, 0, /*monitor=*/true, /*fastpath=*/true,
                              /*profiler=*/false, /*tracepoints=*/true);
  const RunTrace b = RunWorld(42, 0, /*monitor=*/true, /*fastpath=*/true,
                              /*profiler=*/false, /*tracepoints=*/true);
  EXPECT_GT(a.journal_json.size(), 2u);  // more than "[]"
  EXPECT_EQ(a.journal_json, b.journal_json);

  const RunTrace sa = RunWorld(42, /*trace_sample=*/1, /*monitor=*/true,
                               /*fastpath=*/true, /*profiler=*/false,
                               /*tracepoints=*/true);
  const RunTrace sb = RunWorld(42, /*trace_sample=*/1, /*monitor=*/true,
                               /*fastpath=*/true, /*profiler=*/false,
                               /*tracepoints=*/true);
  EXPECT_NE(sa.journal_json.find("\"probe\":\"pkt.span\""),
            std::string::npos);
  EXPECT_EQ(sa.journal_json, sb.journal_json);
}

// The multi-queue trajectory is pinned separately: RSS steering at wire
// ingress legitimately reorders which lane's resources serve each packet,
// so completion timestamps shift vs. the one-lane golden — once. Captured
// when sharding landed; any drift after that is a real sharding bug
// (nondeterministic steering, lane-interleave instability, or a lost or
// duplicated frame).
TEST(DeterminismTest, MulticoreInterleaveGolden) {
  const RunTrace t = RunWorld(42, /*trace_sample=*/0, /*monitor=*/false,
                              /*fastpath=*/false, /*profiler=*/false,
                              /*tracepoints=*/false, /*shard_queues=*/4);
  EXPECT_EQ(t.egress_frames, 413u);
  EXPECT_EQ(t.egress_bytes, 202446u);
  ASSERT_EQ(t.completions.size(), 413u);
  EXPECT_EQ(Fnv1aHash(t.completions), 15723838227408439630ULL);
  EXPECT_EQ(t.final_time, 5052014);
  // Rerunning must be bit-identical at any queue count.
  const RunTrace a = RunWorld(42, 0, false, false, false, false, 4);
  EXPECT_EQ(a.completions, t.completions);
  const RunTrace e8a = RunWorld(42, 0, false, false, false, false, 8);
  const RunTrace e8b = RunWorld(42, 0, false, false, false, false, 8);
  EXPECT_EQ(e8a.completions, e8b.completions);
}

TEST(DeterminismTest, DifferentSeedsDifferentTraces) {
  const RunTrace a = RunWorld(42);
  const RunTrace b = RunWorld(43);
  EXPECT_NE(a.completions, b.completions);
}

TEST(AssemblerRoundTripTest, DisassemblyReassemblesIdentically) {
  constexpr std::string_view kSource = R"(
      ldf r1, ip_proto
      jne r1, 17, out
      ldf r2, dst_port
      ldb r3, 40
      add r2, r3
      shl r2, 2
      jge r2, 4000, out
      ldf r4, owner_uid
      jeq r4, r2, out
      ret 1
  out:
      ret 0
  )";
  auto prog = overlay::Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const std::string text = overlay::Disassemble(*prog);
  // The disassembly's "N:" prefixes act as labels; numeric jump targets
  // parse as absolute indices. Reassembling must reproduce the program.
  auto again = overlay::Assemble(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  ASSERT_EQ(again->size(), prog->size());
  for (size_t i = 0; i < prog->size(); ++i) {
    EXPECT_EQ((*again)[i], (*prog)[i]) << "instr " << i << "\n" << text;
  }
}

}  // namespace
}  // namespace norman
