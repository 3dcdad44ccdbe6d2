#include "src/dataplane/conntrack.h"

#include <vector>

#include "src/net/parsed_packet.h"

namespace norman::dataplane {

Conntrack::Conntrack(nic::SramAllocator* sram, Nanos idle_timeout)
    : sram_(sram), idle_timeout_(idle_timeout) {}

void Conntrack::Advance(ConntrackEntry& entry, uint8_t tcp_flags,
                        bool from_initiator) {
  using net::TcpFlags;
  if (tcp_flags == 0) {
    // Non-TCP: first reply packet establishes.
    if (entry.state == ConnState::kNew && !from_initiator) {
      entry.state = ConnState::kEstablished;
    }
    return;
  }
  if (tcp_flags & TcpFlags::kRst) {
    entry.state = ConnState::kClosed;
    return;
  }
  switch (entry.state) {
    case ConnState::kNew:
      if (tcp_flags & TcpFlags::kSyn) {
        entry.state = ConnState::kSynSent;
      }
      break;
    case ConnState::kSynSent:
      if ((tcp_flags & TcpFlags::kSyn) && (tcp_flags & TcpFlags::kAck) &&
          !from_initiator) {
        entry.state = ConnState::kEstablished;
      }
      break;
    case ConnState::kEstablished:
      if (tcp_flags & TcpFlags::kFin) {
        entry.state = ConnState::kFinWait;
      }
      break;
    case ConnState::kFinWait:
      if (tcp_flags & TcpFlags::kFin) {
        entry.state = ConnState::kClosed;
      }
      break;
    case ConnState::kClosed:
      break;
  }
}

nic::StageResult Conntrack::Process(net::Packet& packet,
                                    const overlay::PacketContext& ctx) {
  nic::StageResult result;  // observation only; never drops
  if (ctx.parsed == nullptr) {
    return result;
  }
  const auto flow = ctx.parsed->flow();
  if (!flow) {
    return result;
  }
  const Nanos now = packet.meta().nic_arrival;
  const uint8_t tcp_flags =
      ctx.parsed->is_tcp() ? ctx.parsed->tcp->flags : 0;

  auto it = table_.find(*flow);
  bool from_initiator = true;
  if (it == table_.end()) {
    const auto rev = table_.find(flow->Reversed());
    if (rev != table_.end()) {
      it = rev;
      from_initiator = false;
    }
  }
  if (it == table_.end()) {
    // Charge the owning tenant's quota when the flow has a kernel-attached
    // owner; anonymous wire flows charge the shared (tenant-0) pool, which
    // the bounded-table defense already protects.
    if (!sram_->Allocate("conntrack", kConntrackEntryBytes,
                         ctx.conn.owner_pid, ctx.conn.owner_tenant)
             .ok()) {
      ++untracked_;
      return result;
    }
    ConntrackEntry entry;
    entry.tuple = *flow;
    entry.first_seen = now;
    entry.tenant = ctx.conn.owner_tenant;
    it = table_.emplace(*flow, entry).first;
  }
  ConntrackEntry& entry = it->second;
  ++entry.packets;
  entry.bytes += packet.size();
  entry.last_seen = now;
  const ConnState prev = entry.state;
  Advance(entry, tcp_flags, from_initiator);
  if (tp_ != nullptr && entry.state != prev) {
    // Canonical (first-packet) orientation, like the table key.
    const telemetry::TraceFlow trace_flow{
        entry.tuple.src_ip.addr,
        entry.tuple.dst_ip.addr,
        entry.tuple.src_port,
        entry.tuple.dst_port,
        static_cast<uint8_t>(entry.tuple.proto),
        ctx.direction == net::Direction::kTx ? telemetry::kDirTx
                                             : telemetry::kDirRx};
    tp_->Emit(telemetry::Probe::kConntrackTransition,
              telemetry::Tracepoints::kCoreNic, ctx.conn.owner_pid,
              static_cast<uint64_t>(entry.state), static_cast<uint64_t>(prev),
              0, &trace_flow);
  }
  return result;
}

size_t Conntrack::Sweep(Nanos now) {
  std::vector<net::FiveTuple> dead;
  for (const auto& [tuple, entry] : table_) {
    if (entry.state == ConnState::kClosed ||
        now - entry.last_seen > idle_timeout_) {
      dead.push_back(tuple);
    }
  }
  for (const auto& tuple : dead) {
    const auto it = table_.find(tuple);
    const uint32_t tenant = it != table_.end() ? it->second.tenant : 0;
    table_.erase(tuple);
    sram_->Free("conntrack", kConntrackEntryBytes, tenant);
  }
  return dead.size();
}

const ConntrackEntry* Conntrack::Lookup(const net::FiveTuple& tuple) const {
  auto it = table_.find(tuple);
  if (it == table_.end()) {
    it = table_.find(tuple.Reversed());
  }
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace norman::dataplane
