// Multi-queue dataplane scaling (the sharding tentpole's headline number).
//
// A pure-RX ingest storm: F flows, P frames per flow, all offered to the
// wire in a dense burst. In the 1-queue configuration every frame
// serializes through one lane's pipeline/stages/DMA resources; at Q queues
// RSS spreads the flows across Q lanes whose resources run in parallel
// virtual time, so the same work finishes in ~1/Q the virtual seconds.
// The figure of merit is delivered frames per *virtual* second — wall
// clock cannot scale in a single-threaded DES, and pretending otherwise
// would be dishonest. Frames, not events: the event count depends on how
// the lanes are scheduled (a one-lane NIC serves wire frames without a
// ring hop), while a delivered frame is the same work in every
// configuration. (TX/echo workloads are deliberately excluded: every egress
// frame serializes through the one shared wire, capping any echo-shaped
// scaling curve well below the lane count.)
//
// Each Q-queue measurement is emitted back-to-back with its own 1-queue
// partner run ("pair" field) so the regression gate compares runs from the
// same process on the same machine. JSON lines go to stdout after the
// table; bench/check_bench_regression.py enforces >= 1.8x at 4 queues.
#include <cstdio>
#include <utility>

#include "src/net/packet_builder.h"
#include "src/nic/smart_nic.h"
#include "src/sim/simulator.h"

namespace {

using namespace norman;  // NOLINT

constexpr auto kLocalIp = net::Ipv4Address::FromOctets(10, 0, 0, 1);
constexpr auto kRemoteIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);
constexpr size_t kFlows = 64;
constexpr size_t kFramesPerFlow = 192;
constexpr size_t kPayload = 256;
// Lane counts measured against a paired 1-queue run.
constexpr uint16_t kQueueCounts[] = {2, 4, 8};

struct RunResult {
  uint64_t events = 0;
  uint64_t delivered = 0;
  Nanos virtual_ns = 0;
  double frames_per_virtual_s = 0;
};

RunResult RunStorm(uint16_t queues) {
  sim::Simulator sim;
  nic::SmartNic::Options options;
  // Deep rings so the measurement is service time, not admission drops:
  // per-connection RX rings hold a whole flow's burst, and one lane must
  // be able to absorb every frame when queues=1.
  options.ring_entries = 256;
  options.lane_ring_entries = 16384;
  nic::SmartNic nic(&sim, options);
  auto cp = nic.TakeControlPlane();
  if (!cp->EnableSharding(queues).ok()) {
    std::fprintf(stderr, "EnableSharding(%u) failed\n", queues);
    return {};
  }

  for (size_t i = 0; i < kFlows; ++i) {
    nic::FlowEntry e;
    e.conn_id = static_cast<net::ConnectionId>(i + 1);
    e.tuple = net::FiveTuple{kLocalIp, kRemoteIp,
                             static_cast<uint16_t>(9000 + i),
                             static_cast<uint16_t>(4000 + i),
                             net::IpProto::kUdp};
    e.owner = overlay::ConnMetadata{e.conn_id, 1000, 100, 1};
    if (!cp->InstallFlow(std::move(e)).ok()) {
      std::fprintf(stderr, "InstallFlow %zu failed\n", i);
      return {};
    }
  }

  // The whole storm lands nanoseconds apart: offered load far beyond one
  // lane's service rate, so elapsed virtual time measures the dataplane's
  // capacity, not the generator's pacing.
  const std::vector<uint8_t> payload(kPayload, 0xad);
  const net::FrameEndpoints ep{net::MacAddress::ForHost(2),
                               net::MacAddress::ForHost(1), kRemoteIp,
                               kLocalIp};
  Nanos when = 0;
  for (size_t f = 0; f < kFramesPerFlow; ++f) {
    for (size_t i = 0; i < kFlows; ++i) {
      nic.DeliverFromWire(
          net::BuildUdpPacket(ep, static_cast<uint16_t>(4000 + i),
                              static_cast<uint16_t>(9000 + i), payload),
          when);
      ++when;
    }
  }
  sim.Run();

  RunResult r;
  r.events = sim.events_processed();
  r.virtual_ns = sim.Now();
  // Drain the per-connection rings to count what actually got through.
  for (size_t i = 0; i < kFlows; ++i) {
    auto* rings = cp->GetRings(static_cast<net::ConnectionId>(i + 1));
    if (rings == nullptr) continue;
    while (rings->rx().TryPop().has_value()) ++r.delivered;
  }
  r.frames_per_virtual_s =
      r.virtual_ns > 0
          ? static_cast<double>(r.delivered) * 1e9 /
                static_cast<double>(r.virtual_ns)
          : 0;
  return r;
}

void EmitJson(uint16_t queues, uint16_t pair, const RunResult& r) {
  std::printf(
      "{\"bench\":\"multicore_scaling\",\"queues\":%u,\"pair\":%u,"
      "\"flows\":%zu,\"frames\":%zu,\"delivered\":%llu,\"events\":%llu,"
      "\"virtual_s\":%.6f,\"frames_per_s\":%.0f}\n",
      queues, pair, kFlows, kFlows * kFramesPerFlow,
      static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.events),
      static_cast<double>(r.virtual_ns) / 1e9, r.frames_per_virtual_s);
}

}  // namespace

int main() {
  std::printf("== multicore dataplane scaling: %zu flows x %zu frames, "
              "pure RX ingest ==\n\n",
              kFlows, kFramesPerFlow);
  std::printf("%-8s %12s %12s %14s %18s %9s\n", "queues", "delivered",
              "events", "virtual-us", "frames/virtual-s", "scaling");

  for (const uint16_t q : kQueueCounts) {
    // Paired runs: the 1-queue partner immediately precedes its multi-queue
    // measurement so the gate's ratio is insensitive to anything global.
    const RunResult base = RunStorm(1);
    const RunResult multi = RunStorm(q);
    const double scaling =
        base.frames_per_virtual_s > 0
            ? multi.frames_per_virtual_s / base.frames_per_virtual_s
            : 0;
    std::printf("%-8u %12llu %12llu %14.1f %18.0f %8s\n", 1u,
                static_cast<unsigned long long>(base.delivered),
                static_cast<unsigned long long>(base.events),
                static_cast<double>(base.virtual_ns) / 1e3,
                base.frames_per_virtual_s, "1.00x");
    std::printf("%-8u %12llu %12llu %14.1f %18.0f %7.2fx\n", q,
                static_cast<unsigned long long>(multi.delivered),
                static_cast<unsigned long long>(multi.events),
                static_cast<double>(multi.virtual_ns) / 1e3,
                multi.frames_per_virtual_s, scaling);
  }
  std::printf("\n");

  // JSON lines for the regression gate, pair-tagged.
  for (const uint16_t q : kQueueCounts) {
    const RunResult base = RunStorm(1);
    const RunResult multi = RunStorm(q);
    EmitJson(1, q, base);
    EmitJson(q, q, multi);
  }
  return 0;
}
