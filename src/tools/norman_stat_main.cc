// norman-stat: the ethtool -S equivalent, run against a scripted,
// deterministic traffic scenario. The scenario is fixed so that every
// output mode is byte-stable across runs — CI diffs the metric inventory
// (--metrics-manifest) against docs/metrics_manifest.txt and uploads the
// Perfetto trace (--trace-out) as a build artifact.
//
// The scenario deliberately exercises every drop family:
//   * accepted TX/RX traffic (echo peer),
//   * an iptables DROP rule on the OUTPUT chain (tx filter_deny),
//   * UDP to a port nobody listens on (rx unmatched -> kernel unmatched),
//   * a garbage frame too short to parse (kernel malformed),
//   * an ICMP echo request answered on the NIC (rx nic_consumed).
//
// Usage: norman_stat [--drops] [--fastpath] [--json] [--text]
//                    [--metrics-manifest] [--trace-out FILE] [--sample N]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// Drives the fixed traffic scenario. Everything is virtual time and
// deterministic sampling, so back-to-back runs produce identical metrics.
void RunScenario(workload::TestBed& bed, bool fastpath) {
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");

  // Flow accounting on the NIC plus the maintenance tick that feeds the
  // sampler and watchdog: their metric families (flow.*, plus per-sample
  // updates to health.*) must appear in the manifest CI diffs. --fastpath
  // opts into the flow verdict cache so its view has live hit/miss
  // numbers. Virtual completion times shift (hits are cheaper); every
  // counter the other views print is unaffected.
  kernel::NicConfig cfg;
  cfg.flow_cache = fastpath;
  cfg.top_talkers = true;
  cfg.top_talker_entries = 8;
  cfg.maintenance = true;
  if (const Status s = k.Configure(kernel::kRootUid, cfg); !s.ok()) {
    std::fprintf(stderr, "configure: %s\n", std::string(s.message()).c_str());
  }

  // Root policy: no UDP to port 9999 leaves this host.
  auto rule = tools::IptablesAppend(
      &k, kernel::kRootUid, "-A OUTPUT -p udp --dport 9999 -j DROP");
  if (!rule.ok()) {
    std::fprintf(stderr, "iptables: %s\n",
                 std::string(rule.status().message()).c_str());
  }

  auto good = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto bad = Socket::Connect(&k, batch_pid, kPeerIp, 9999, {});
  if (!good.ok() || !bad.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return;
  }

  const std::vector<uint8_t> payload(256, 0xab);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 8; ++i) {
      (void)good->Send(payload);  // echoed back by the peer
    }
    (void)bad->Send(payload);  // eaten by the filter (tx filter_deny)
    bed.sim().Run();
    // Drain a few echoes; leave the rest queued in the RX ring.
    (void)good->Recv();
    (void)good->Recv();
  }

  // RX traffic the host has no flow or listener for -> kernel unmatched.
  Nanos t = bed.sim().Now();
  for (int i = 0; i < 4; ++i) {
    bed.InjectUdpFromPeer(4444, 5555, 64, t += kMicrosecond);
  }
  // A runt frame: parses as nothing, the kernel slow path discards it.
  for (int i = 0; i < 3; ++i) {
    bed.InjectFromNetwork(net::MakePacket(std::vector<uint8_t>(10, 0xee)),
                          t += kMicrosecond);
  }
  // ICMP echo request answered by the on-NIC responder (rx nic_consumed).
  const net::FrameEndpoints peer_ep{net::MacAddress::ForHost(2),
                                    k.options().host_mac, kPeerIp,
                                    k.options().host_ip};
  const std::vector<uint8_t> ping(32, 0x42);
  for (uint16_t seq = 1; seq <= 2; ++seq) {
    bed.InjectFromNetwork(
        net::BuildIcmpEchoPacket(peer_ep, net::IcmpType::kEchoRequest, 0x77,
                                 seq, ping),
        t += kMicrosecond);
  }
  bed.sim().Run();

  (void)good->Close();
  (void)bad->Close();
  bed.sim().Run();
}

int Main(int argc, char** argv) {
  bool show_drops = false;
  bool show_fastpath = false;
  bool show_json = false;
  bool show_text = false;
  bool show_manifest = false;
  std::string trace_path;
  uint32_t sample = 1;
  uint64_t value = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--drops") {
      show_drops = true;
    } else if (arg == "--fastpath") {
      show_fastpath = true;
    } else if (arg == "--json") {
      show_json = true;
    } else if (arg == "--text") {
      show_text = true;
    } else if (arg == "--metrics-manifest") {
      show_manifest = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--sample" && i + 1 < argc &&
               tools::ParseDecimal(argv[++i], UINT32_MAX, &value)) {
      sample = static_cast<uint32_t>(value);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--drops] [--fastpath] [--json] [--text] "
                   "[--metrics-manifest] [--trace-out FILE] [--sample N]\n",
                   argv[0]);
      return 2;
    }
  }

  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().tracepoints().set_span_sample_interval(sample);
  // Cycle attribution on: the prof.*/attr.* gauge families published below
  // must appear in the manifest CI diffs.
  bed.sim().profiler().set_enabled(true);
  RunScenario(bed, show_fastpath);

  auto& metrics = bed.sim().metrics();
  bed.sim().profiler().PublishToRegistry(&metrics);
  // Pool levels enter the registry at report time ("pool.<name>.*"), plus a
  // merged view across both pools ("pool.all.*").
  const auto& packet_pool = net::PacketPool::Default().counters();
  const auto& event_pool = bed.sim().event_pool();
  metrics.ImportPool(packet_pool);
  metrics.ImportPool(event_pool);
  PoolCounters all{"all"};
  all.Merge(packet_pool);
  all.Merge(event_pool);
  metrics.ImportPool(all);

  if (show_manifest) {
    for (const auto& line : metrics.MetricNames()) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    out << bed.sim().tracepoints().ChromeTraceJson();
    std::fprintf(stderr, "wrote %llu spans to %s\n",
                 static_cast<unsigned long long>(
                     bed.sim().tracepoints().spans_recorded()),
                 trace_path.c_str());
  }

  if (show_json) {
    std::printf("%s\n", metrics.JsonReport().c_str());
    return 0;
  }

  std::printf("%s", tools::NicStat(bed.kernel(), bed.nic()).c_str());
  if (show_drops) {
    std::printf("\n%s", tools::NicStatDrops(bed.kernel(), bed.nic()).c_str());
  }
  if (show_fastpath) {
    std::printf("\n%s",
                tools::NicStatFastPath(bed.kernel(), bed.nic()).c_str());
  }
  if (show_text) {
    std::printf("\n%s", metrics.TextReport().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace norman

int main(int argc, char** argv) { return norman::Main(argc, argv); }
