#include "harness.h"

#include <algorithm>
#include <cstring>
#include <ctime>
#include <optional>

#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"

namespace perfbench {

using namespace norman;  // NOLINT

namespace {

constexpr size_t kIdBytes = 8;

// Where in the seeded pattern message `msg`'s payload bytes start.
size_t PatternOffset(const Inputs& in, uint64_t msg, size_t len) {
  uint64_t z = msg * 0x9e3779b97f4a7c15ULL;
  z ^= z >> 31;
  return static_cast<size_t>(z % (in.pattern.size() - len + 1));
}

Nanos NearestRank(std::vector<Nanos> sorted_copy, double q) {
  if (sorted_copy.empty()) {
    return 0;
  }
  const auto rank = std::min(
      static_cast<size_t>(q * static_cast<double>(sorted_copy.size())),
      sorted_copy.size() - 1);
  std::nth_element(sorted_copy.begin(),
                   sorted_copy.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted_copy.end());
  return sorted_copy[rank];
}

// Registry values the per-layer counts read. Drop counters are added by
// prefix (IsDropCounter).
constexpr const char* kKeptCounters[] = {
    "nic.tx.seen",
    "nic.rx.seen",
    "nic.overlay.instructions",
    "fastpath.hits",
    "fastpath.misses",
    "fastpath.invalidations",
    "queue.nic.qdisc.high_water",
    "kernel.notify.drained",
    "sim.dispatch.batches",
    "sim.dispatch.batched_events",
};

}  // namespace

int64_t RegistryValue(const Counts& c, const std::string& name) {
  const auto it = c.registry.find(name);
  return it == c.registry.end() ? 0 : it->second;
}

void Fnv1a::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void FillPayload(const Inputs& in, uint64_t msg, std::span<uint8_t> out) {
  for (size_t i = 0; i < kIdBytes; ++i) {
    out[i] = static_cast<uint8_t>(msg >> (8 * i));
  }
  const size_t len = out.size() - kIdBytes;
  std::memcpy(out.data() + kIdBytes,
              in.pattern.data() + PatternOffset(in, msg, len), len);
}

uint64_t PayloadId(std::span<const uint8_t> payload) {
  if (payload.size() < kIdBytes) {
    return 0;
  }
  uint64_t msg = 0;
  for (size_t i = 0; i < kIdBytes; ++i) {
    msg |= uint64_t{payload[i]} << (8 * i);
  }
  return msg;
}

bool PayloadMatches(const Inputs& in, uint64_t msg, size_t len,
                    std::span<const uint8_t> payload) {
  if (payload.size() != len || PayloadId(payload) != msg) {
    return false;
  }
  const size_t rest = len - kIdBytes;
  return std::memcmp(payload.data() + kIdBytes,
                     in.pattern.data() + PatternOffset(in, msg, rest),
                     rest) == 0;
}

Ledger::Ledger(uint64_t expected) { rtts_.reserve(expected); }

void Ledger::Complete(uint64_t msg, Nanos rtt) {
  rtts_.push_back(rtt);
  digest_.Add(msg);
  digest_.Add(static_cast<uint64_t>(rtt));
}

void Ledger::Fail(const std::string& why) {
  if (failure_.empty()) {
    failure_ = why;
  }
}

World::World(Tracer* tracer)
    : tracer_(tracer),
      nic_(&sim_, nic::SmartNic::Options()),
      kernel_(&sim_, &nic_, kernel::Kernel::Options()) {
  nic_.SetWireSink(
      [this](net::PacketPtr packet) { OnEgress(std::move(packet)); });
}

Status World::InstallFirewall(int rules) {
  for (int i = 0; i < rules; ++i) {
    dataplane::FilterRule r;
    r.proto = net::IpProto::kUdp;
    r.dst_port = dataplane::PortRange{static_cast<uint16_t>(5001 + i),
                                      static_cast<uint16_t>(5001 + i)};
    r.action = dataplane::FilterAction::kDrop;
    for (const auto chain : {kernel::Chain::kOutput, kernel::Chain::kInput}) {
      if (auto index = kernel_.AppendFilterRule(kernel::kRootUid, chain, r);
          !index.ok()) {
        return index.status();
      }
    }
  }
  return OkStatus();
}

void World::OnEgress(net::PacketPtr packet) {
  ScopedSpan span(tracer_, Layer::kPeer, 0);
  // Egress frames carry the NIC's cached parse; hand-built ones do not.
  std::optional<net::ParsedPacket> local;
  const net::ParsedPacket* parsed = packet->parsed();
  if (parsed == nullptr) {
    local = net::ParseFrame(packet->bytes());
    parsed = local.has_value() ? &*local : nullptr;
  }
  if (parsed == nullptr || !parsed->is_ipv4() || !parsed->is_udp() ||
      parsed->payload_offset == 0) {
    ++peer_other_;  // not a message: the conservation check fails the round
    return;
  }
  ++peer_frames_;
  const auto flow = parsed->flow();
  const net::FrameEndpoints ep{parsed->eth.dst, parsed->eth.src, flow->dst_ip,
                               flow->src_ip};
  const auto payload = packet->bytes().subspan(parsed->payload_offset);
  const uint64_t msg = PayloadId(payload);
  span.set_msg(msg);
  net::PacketPtr reply;
  {
    ScopedSpan build(tracer_, Layer::kNetBuild, msg);
    reply = net::BuildUdpPacket(ep, flow->dst_port, flow->src_port, payload);
  }
  const Nanos when = sim_.Now() + 2 * kPropagation;
  reply->meta().created_at = when;
  sim_.ScheduleAt(when, [this, msg, p = std::move(reply)]() mutable {
    ++echoes_delivered_;
    ScopedSpan rx(tracer_, Layer::kNicRx, msg);
    nic_.DeliverFromWire(std::move(p), sim_.Now());
  });
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool IsDropCounter(const std::string& name) {
  return name.starts_with("nic.tx.drop.") ||
         name.starts_with("nic.rx.drop.") || name.starts_with("kernel.drop.");
}

void CollectAndCheck(World& world, const Ledger& ledger, uint64_t app_sent,
                     RoundResult& r) {
  Counts& c = r.counts;
  c.completed = ledger.completed();
  c.digest = ledger.digest();
  c.final_virtual_ns = world.sim().Now();
  c.rtt_p50_ns = NearestRank(ledger.rtts(), 0.50);
  c.rtt_p99_ns = NearestRank(ledger.rtts(), 0.99);
  c.events = world.sim().events_processed();
  const auto snapshot = world.sim().metrics().Snapshot();
  for (const char* name : kKeptCounters) {
    const auto it = snapshot.values.find(name);
    c.registry[name] = it == snapshot.values.end() ? 0 : it->second;
  }
  std::string drops;
  for (const auto& [name, value] : snapshot.values) {
    if (IsDropCounter(name)) {
      c.registry[name] = value;
      if (value != 0) {
        drops += " " + name + "=" + std::to_string(value);
      }
    }
  }
  const nic::DdioModel& ddio = world.nic().ddio();
  c.ddio_hits = ddio.hits();
  c.ddio_misses = ddio.misses();
  c.event_pool_hits = world.sim().event_pool().hits;
  c.event_pool_misses = world.sim().event_pool().misses;
  c.capture_records = world.kernel().sniffer().captured();
  c.maintenance_ticks = world.kernel().maintenance_ticks();
  c.samples = world.kernel().sampler().samples_taken();
  c.kernel_core_util =
      c.final_virtual_ns == 0
          ? 0
          : static_cast<double>(world.kernel().kernel_core().busy_ns()) /
                static_cast<double>(c.final_virtual_ns);

  r.attempted = ledger.attempted();
  if (!ledger.failure().empty()) {
    r.failure = ledger.failure();
  } else if (!drops.empty()) {
    r.failure = "drops:" + drops;
  } else if (ledger.completed() != ledger.attempted()) {
    r.failure = std::to_string(ledger.completed()) + " of " +
                std::to_string(ledger.attempted()) + " messages completed";
  } else if (world.peer_other() != 0) {
    r.failure = std::to_string(world.peer_other()) +
                " egress frames were not messages";
  } else {
    // Packet conservation, layer by layer, once the run has drained.
    const auto tx_seen = static_cast<uint64_t>(RegistryValue(c, "nic.tx.seen"));
    const auto rx_seen = static_cast<uint64_t>(RegistryValue(c, "nic.rx.seen"));
    if (!world.sim().Idle() || tx_seen != app_sent ||
        world.peer_frames() != app_sent ||
        world.echoes_delivered() != app_sent || rx_seen != app_sent ||
        ledger.completed() != app_sent) {
      r.failure = "conservation: sent=" + std::to_string(app_sent) +
                  " nic.tx.seen=" + std::to_string(tx_seen) +
                  " peer=" + std::to_string(world.peer_frames()) +
                  " echoed=" + std::to_string(world.echoes_delivered()) +
                  " nic.rx.seen=" + std::to_string(rx_seen) +
                  " completed=" + std::to_string(ledger.completed()) +
                  " pending_events=" +
                  std::to_string(world.sim().pending_events());
    }
  }
}

}  // namespace perfbench
