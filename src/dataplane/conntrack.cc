#include "src/dataplane/conntrack.h"

#include <algorithm>
#include <tuple>

#include "src/net/parsed_packet.h"

namespace norman::dataplane {

namespace {
// The orientation a flow is keyed under: the endpoint with the smaller
// (ip, port) pair is the source, so a tuple and its reverse share a key.
net::FiveTuple Canonical(const net::FiveTuple& t) {
  const bool swap = std::tie(t.src_ip.addr, t.src_port) >
                    std::tie(t.dst_ip.addr, t.dst_port);
  return swap ? t.Reversed() : t;
}
}  // namespace

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

  const net::FiveTuple key = Canonical(*flow);
  Table::Index i = table_.Find(key);
  if (i == Table::kNil) {
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
    i = table_.PushFront(key, entry);
  }
  ConntrackEntry& entry = table_.value(i);
  const bool from_initiator = entry.tuple == *flow;
  ++entry.packets;
  entry.bytes += packet.size();
  entry.last_seen = now;
  oldest_seen_ = std::min(oldest_seen_, now);
  const ConnState prev = entry.state;
  Advance(entry, tcp_flags, from_initiator);
  if (entry.state == ConnState::kClosed && prev != ConnState::kClosed) {
    ++closed_;
  }
  if (tp_ != nullptr && entry.state != prev) {
    // First-packet orientation (entry.tuple), whichever side sent this one.
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
  if (table_.empty() ||
      (closed_ == 0 && now - oldest_seen_ <= idle_timeout_)) {
    return 0;
  }
  size_t removed = 0;
  Nanos oldest = std::numeric_limits<Nanos>::max();
  for (Table::Index i = table_.front(); i != Table::kNil;) {
    const Table::Index next = table_.next(i);
    const ConntrackEntry& entry = table_.value(i);
    if (entry.state == ConnState::kClosed ||
        now - entry.last_seen > idle_timeout_) {
      sram_->Free("conntrack", kConntrackEntryBytes, entry.tenant);
      table_.EraseAt(i);
      ++removed;
    } else {
      oldest = std::min(oldest, entry.last_seen);
    }
    i = next;
  }
  closed_ = 0;
  oldest_seen_ = oldest;
  return removed;
}

const ConntrackEntry* Conntrack::Lookup(const net::FiveTuple& tuple) const {
  return table_.Get(Canonical(tuple));
}

}  // namespace norman::dataplane
