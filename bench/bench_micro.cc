// Microbenchmarks (google-benchmark): per-component costs of the Norman
// dataplane — overlay interpretation, filter-chain evaluation and install
// by rule count, frame parsing, checksums, WFQ operations, DDIO model, RSS.
//
// These are *simulator implementation* speeds (host ns/op), reported so
// regressions in the hot paths are visible; virtual-time results live in
// the bench_* experiment binaries.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <ctime>

#include "bench/alloc_count.h"
#include "src/dataplane/filter_engine.h"
#include "src/dataplane/qdisc.h"
#include "src/net/checksum.h"
#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"
#include "src/common/metrics.h"
#include "src/nic/ddio.h"
#include "src/nic/flow_cache.h"
#include "src/nic/rss.h"
#include "src/nic/sram.h"
#include "src/norman/socket.h"
#include "src/overlay/interpreter.h"
#include "src/sim/simulator.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace {

using namespace norman;  // NOLINT

struct Fixture {
  std::vector<uint8_t> frame;
  net::ParsedPacket parsed;
  overlay::PacketContext ctx;

  Fixture() {
    net::FrameEndpoints ep{net::MacAddress::ForHost(1),
                           net::MacAddress::ForHost(2),
                           net::Ipv4Address::FromOctets(10, 0, 0, 1),
                           net::Ipv4Address::FromOctets(10, 0, 0, 2)};
    const net::PacketPtr built = net::BuildUdpPacket(
        ep, 5432, 443, std::vector<uint8_t>(1000, 0xaa));
    frame.assign(built->bytes().begin(), built->bytes().end());
    parsed = *net::ParseFrame(frame);
    ctx.frame = frame;
    ctx.parsed = &parsed;
    ctx.conn = overlay::ConnMetadata{1, 1001, 100, 1, 7};
    ctx.direction = net::Direction::kTx;
  }
};

void BM_ParseFrame(benchmark::State& state) {
  const Fixture f;
  for (auto _ : state) {
    auto p = net::ParseFrame(f.frame);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_ParseFrame);

void BM_InternetChecksum1500(benchmark::State& state) {
  const std::vector<uint8_t> buf(1500, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::InternetChecksum(buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1500);
}
BENCHMARK(BM_InternetChecksum1500);

void BM_OverlayExecute(benchmark::State& state) {
  const Fixture f;
  // A representative 12-instruction match program.
  const overlay::Program prog = dataplane::CompileFilterChain(
      {[] {
        dataplane::FilterRule r;
        r.proto = net::IpProto::kUdp;
        r.dst_port = dataplane::PortRange{443, 443};
        r.owner_uid = 1001;
        r.action = dataplane::FilterAction::kDrop;
        return r;
      }()},
      dataplane::FilterAction::kAccept);
  for (auto _ : state) {
    auto r = overlay::Execute(prog, f.ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OverlayExecute);

// UDP drop rules on ports 1..n: same protocol bucket as the fixture packet,
// so its port 443 walks (and misses) every rule in the chain.
void AppendUdpPortRules(dataplane::FilterEngine& engine, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dataplane::FilterRule r;
    r.proto = net::IpProto::kUdp;
    r.dst_port = dataplane::PortRange{static_cast<uint16_t>(i + 1),
                                      static_cast<uint16_t>(i + 1)};
    r.action = dataplane::FilterAction::kDrop;
    (void)engine.AppendRule(r);
  }
}

void BM_FilterChain(benchmark::State& state) {
  const Fixture fx;
  dataplane::FilterEngine engine;
  AppendUdpPortRules(engine, state.range(0));
  net::Packet packet(fx.frame);
  for (auto _ : state) {
    auto v = engine.Process(packet, fx.ctx);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_FilterChain)->Arg(1)->Arg(8)->Arg(32)->Arg(60);

// A firewall install: N appends to a fresh engine, then the first packet,
// which compiles the chain and its buckets once. Linear in N.
void BM_FilterInstall(benchmark::State& state) {
  const Fixture fx;
  net::Packet packet(fx.frame);
  for (auto _ : state) {
    dataplane::FilterEngine engine;
    AppendUdpPortRules(engine, state.range(0));
    auto v = engine.Process(packet, fx.ctx);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_FilterInstall)->Arg(8)->Arg(32)->Arg(60);

// The flow verdict cache's exact-match lookup — the operation that replaces
// a full chain walk on the fast path. Steady-state: one resident entry hit
// repeatedly (the megaflow common case).
void BM_FlowCacheHit(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(64 * kKiB);
  nic::FlowCache cache(&sram, &reg);
  cache.Enable(1024);
  nic::FlowCacheKey key;
  key.direction = net::Direction::kTx;
  key.tuple = net::FiveTuple{net::Ipv4Address::FromOctets(10, 0, 0, 1),
                             net::Ipv4Address::FromOctets(10, 0, 0, 2), 5432,
                             443, net::IpProto::kUdp};
  key.conn = 7;
  cache.Insert(key, nic::FlowCacheEntry{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_FlowCacheHit);

// Miss cost: the lookup that fails before the chain walk runs anyway. The
// probed key cycles through ports so the table (primed at capacity) never
// contains it.
void BM_FlowCacheMiss(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(64 * kKiB);
  nic::FlowCache cache(&sram, &reg);
  cache.Enable(256);
  nic::FlowCacheKey key;
  key.direction = net::Direction::kTx;
  key.tuple = net::FiveTuple{net::Ipv4Address::FromOctets(10, 0, 0, 1),
                             net::Ipv4Address::FromOctets(10, 0, 0, 2), 1,
                             443, net::IpProto::kUdp};
  key.conn = 7;
  for (uint16_t p = 0; p < 256; ++p) {
    key.tuple.src_port = p;
    cache.Insert(key, nic::FlowCacheEntry{});
  }
  uint16_t probe = 1000;
  for (auto _ : state) {
    key.tuple.src_port = ++probe == 0 ? probe = 1000 : probe;
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_FlowCacheMiss);

void BM_WfqEnqueueDequeue(benchmark::State& state) {
  const Fixture fx;
  dataplane::WfqQdisc wfq(dataplane::ClassifyByUid({{1001, 1}, {1002, 2}}));
  wfq.SetWeight(1, 4.0);
  wfq.SetWeight(2, 1.0);
  for (auto _ : state) {
    wfq.Enqueue(net::MakePacket(fx.frame), fx.ctx);
    auto p = wfq.Dequeue(0);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_WfqEnqueueDequeue);

void BM_DdioAccess(benchmark::State& state) {
  nic::DdioModel ddio;
  const uint64_t rings = static_cast<uint64_t>(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddio.Access(i++ % rings, 2048));
  }
}
BENCHMARK(BM_DdioAccess)->Arg(256)->Arg(4096);

void BM_RssSteer(benchmark::State& state) {
  nic::RssEngine rss(16);
  net::FiveTuple t{net::Ipv4Address::FromOctets(1, 2, 3, 4),
                   net::Ipv4Address::FromOctets(5, 6, 7, 8), 1000, 2000,
                   net::IpProto::kUdp};
  for (auto _ : state) {
    t.src_port++;
    benchmark::DoNotOptimize(rss.Steer(t));
  }
}
BENCHMARK(BM_RssSteer);

void BM_BuildUdpPacketPooled(benchmark::State& state) {
  net::FrameEndpoints ep{net::MacAddress::ForHost(1),
                         net::MacAddress::ForHost(2),
                         net::Ipv4Address::FromOctets(10, 0, 0, 1),
                         net::Ipv4Address::FromOctets(10, 0, 0, 2)};
  const std::vector<uint8_t> payload(1000, 0xab);
  for (auto _ : state) {
    auto p = net::BuildUdpPacket(ep, 1, 2, payload);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_BuildUdpPacketPooled);

void BM_SimulatorEventChurn(benchmark::State& state) {
  // Schedule/dispatch throughput of the pooled event loop: a self-renewing
  // chain, all nodes recycled through the free list after warmup.
  sim::Simulator sim;
  uint64_t fired = 0;
  for (auto _ : state) {
    sim.ScheduleAfter(1, [&fired] { ++fired; });
    sim.Step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorEventChurn);

// End-to-end packet-forwarding loop (the tentpole acceptance metric): one
// host with two CBR senders against an echoing peer, identical to the
// pre-pooling baseline workload. Prints one machine-readable JSON line.
// `trace_sample` sets the lifecycle spans' 1-in-N sampling (0 = off), so
// the report quantifies tracing overhead at off / 1-in-64 / 1-in-1.
// `monitor` turns on the continuous-monitoring stack (top-talkers table,
// maintenance tick driving the sampler + watchdog) so its overhead is
// quantified against the monitor-off line.
// `fastpath` enables the flow verdict cache; `filter_rules` installs that
// many never-matching UDP filter rules on each chain so the per-packet
// chain walk the cache elides is a realistic firewall's, not an empty one.
// The regression gate compares each fastpath-on line against the
// fastpath-off line that ran back-to-back with it (same rule count).
// `profiler` turns on full cycle attribution (scopes + owner ledger); the
// profiler sweep in main() emits interleaved off/on pairs the gate holds
// to PROFILER_TOLERANCE on paired cpu_s.
// `probes` arms every kernel tracepoint (unfiltered); the probes sweep in
// main() emits interleaved off/on pairs the gate holds to PROBES_TOLERANCE
// on paired cpu_s — the "disarmed probes are one branch, armed probes are
// cheap" claim, measured.
void RunForwardingReport(uint32_t trace_sample, bool monitor,
                         bool fastpath = false, int filter_rules = 0,
                         bool profiler = false, bool probes = false) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().tracepoints().set_span_sample_interval(trace_sample);
  if (profiler) {
    bed.sim().profiler().set_enabled(true);
  }
  if (probes) {
    bed.sim().tracepoints().ArmAll();
  }
  bed.DiscardEgress();
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig config;
  config.top_talkers = monitor;
  config.maintenance = monitor;
  (void)k.Configure(kernel::kRootUid, config);
  for (int i = 0; i < filter_rules; ++i) {
    // UDP rules on ports the workload never touches: every packet scans the
    // whole chain (protocol bucketing cannot skip same-proto rules) and
    // falls through to the default accept.
    dataplane::FilterRule r;
    r.proto = net::IpProto::kUdp;
    r.dst_port = dataplane::PortRange{static_cast<uint16_t>(5001 + i),
                                      static_cast<uint16_t>(5001 + i)};
    r.action = dataplane::FilterAction::kDrop;
    (void)k.AppendFilterRule(kernel::kRootUid, kernel::Chain::kOutput, r);
    (void)k.AppendFilterRule(kernel::kRootUid, kernel::Chain::kInput, r);
  }
  if (fastpath) {
    config.flow_cache = true;
    (void)k.Configure(kernel::kRootUid, config);
  }
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto s1 = Socket::Connect(&k, pid, peer, 1000, {});
  auto s2 = Socket::Connect(&k, pid, peer, 2000, {});
  workload::CbrSender c1(&bed.sim(), &*s1, 512, 2 * kMicrosecond);
  workload::CbrSender c2(&bed.sim(), &*s2, 200, 3 * kMicrosecond);
  c1.Start(0, 200 * kMillisecond);
  c2.Start(0, 200 * kMillisecond);

  const uint64_t allocs_before = norman::bench::AllocCount();
  const std::clock_t cpu0 = std::clock();
  const auto t0 = std::chrono::steady_clock::now();
  bed.sim().Run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::clock_t cpu1 = std::clock();
  const uint64_t allocs = norman::bench::AllocCount() - allocs_before;

  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  // CPU seconds alongside wall seconds: the regression gate compares the
  // monitor-on/off pairs on cpu_s, which scheduler preemption on shared CI
  // runners cannot inflate.
  const double cpu_s = static_cast<double>(cpu1 - cpu0) / CLOCKS_PER_SEC;
  const uint64_t events = bed.sim().events_processed();
  const uint64_t packets = bed.nic().stats().tx_seen() + bed.nic().stats().rx_seen();
  const auto& ppool = net::PacketPool::Default().counters();
  const auto& epool = bed.sim().event_pool();
  // Combined pool view through the real aggregation API, not hand-summing.
  PoolCounters all{"all"};
  all.Merge(ppool);
  all.Merge(epool);
  bed.sim().metrics().ImportPool(all);  // lands as "pool.all.*" gauges
  std::printf(
      "{\"bench\":\"forwarding_loop\",\"trace_sample\":%u,\"monitor\":%d,"
      "\"fastpath\":%d,\"filter_rules\":%d,"
      "\"profiler\":%d,\"probes\":%d,"
      "\"fastpath_hits\":%llu,\"fastpath_misses\":%llu,"
      "\"wall_s\":%.6f,\"cpu_s\":%.6f,"
      "\"events\":%llu,\"events_per_s\":%.0f,"
      "\"packets\":%llu,\"allocs\":%llu,\"allocs_per_packet\":%.4f,"
      "\"packet_pool_hit_rate\":%.4f,\"event_pool_hit_rate\":%.4f,"
      "\"pool_hit_rate_all\":%.4f,\"trace_spans\":%llu,"
      "\"samples\":%llu,\"maintenance_ticks\":%llu}\n",
      trace_sample, monitor ? 1 : 0, fastpath ? 1 : 0, filter_rules,
      profiler ? 1 : 0, probes ? 1 : 0,
      static_cast<unsigned long long>(
          k.nic_control().flow_cache().hits()),
      static_cast<unsigned long long>(
          k.nic_control().flow_cache().misses()),
      wall_s, cpu_s,
      static_cast<unsigned long long>(events),
      static_cast<double>(events) / wall_s,
      static_cast<unsigned long long>(packets),
      static_cast<unsigned long long>(allocs),
      packets != 0 ? static_cast<double>(allocs) / static_cast<double>(packets)
                   : 0.0,
      ppool.HitRate(), epool.HitRate(), all.HitRate(),
      static_cast<unsigned long long>(
          bed.sim().tracepoints().spans_recorded()),
      static_cast<unsigned long long>(k.sampler().samples_taken()),
      static_cast<unsigned long long>(k.maintenance_ticks()));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Tracing overhead sweep: 1-in-64, then every packet.
  RunForwardingReport(64, false);
  RunForwardingReport(1, false);
  // Monitoring overhead: alternate monitor-off / monitor-on pairs so the
  // regression gate can compare per-config minima taken under the same
  // process conditions (wall clocks on shared machines drift too much for
  // a single pair to be meaningful).
  for (int i = 0; i < 3; ++i) {
    RunForwardingReport(0, false);
    RunForwardingReport(0, true);
  }
  // Profiler attribution overhead: interleaved profiler-off / profiler-on
  // pairs (same pairing rationale as monitoring); the gate holds the
  // median paired cpu_s ratio within PROFILER_TOLERANCE. Five pairs, not
  // three: the expected overhead (~3-4%) sits close enough to the 5% gate
  // that the median needs headroom against one preempted run.
  for (int i = 0; i < 5; ++i) {
    RunForwardingReport(0, false, /*fastpath=*/false, /*filter_rules=*/0,
                        /*profiler=*/false);
    RunForwardingReport(0, false, /*fastpath=*/false, /*filter_rules=*/0,
                        /*profiler=*/true);
  }
  // Fast-path speedup: interleaved cache-off / cache-on pairs under a
  // 12-rule firewall on both chains. Pairing cancels machine drift; the
  // gate requires the on-run to beat the off-run by FASTPATH_MIN_SPEEDUP.
  for (int i = 0; i < 3; ++i) {
    RunForwardingReport(0, false, /*fastpath=*/false, /*filter_rules=*/12);
    RunForwardingReport(0, false, /*fastpath=*/true, /*filter_rules=*/12);
  }
  // Tracepoint overhead: interleaved probes-disarmed / probes-armed pairs
  // (every probe armed, no predicates — the worst case short of a trigger).
  // Seven pairs, more than the profiler sweep: armed emits add ~3% and the
  // gate sits at 5%, so the median needs two preempted runs of headroom.
  for (int i = 0; i < 7; ++i) {
    RunForwardingReport(0, false, /*fastpath=*/false, /*filter_rules=*/0,
                        /*profiler=*/false, /*probes=*/false);
    RunForwardingReport(0, false, /*fastpath=*/false, /*filter_rules=*/0,
                        /*profiler=*/false, /*probes=*/true);
  }
  return 0;
}
