// NIC flow table: connection identity plus kernel-attached process metadata.
//
// At connect()/accept() time the kernel installs one entry per connection:
// the 5-tuple, the ring pair, and — the heart of KOPI — the owning process's
// uid/pid/comm/cgroup. TX packets are tagged with their source connection
// (the NIC knows which ring a descriptor came from); RX packets are matched
// by 5-tuple to find the destination ring. Every entry is charged against
// NIC SRAM, which is what makes connection count a resource-exhaustion axis
// (§5, experiments E2/E7).
#ifndef NORMAN_NIC_FLOW_TABLE_H_
#define NORMAN_NIC_FLOW_TABLE_H_

#include <cstdint>
#include <unordered_map>

#include "src/common/slab_map.h"
#include "src/common/status.h"
#include "src/net/packet.h"
#include "src/net/types.h"
#include "src/overlay/packet_context.h"
#include "src/nic/sram.h"

namespace norman::nic {

// Bytes of NIC SRAM one flow entry consumes (match fields, ring pointers,
// scheduling state, counters). Loosely modeled on the per-flow state sizes
// reported for RDMA NICs (Kalia et al., NSDI '19: ~375B connection state).
inline constexpr uint64_t kFlowEntryBytes = 384;

struct FlowEntry {
  net::ConnectionId conn_id = net::kUnknownConnection;
  net::FiveTuple tuple;             // as seen on TX (local -> remote)
  overlay::ConnMetadata owner;      // kernel-stamped process identity
  uint16_t rx_queue = 0;            // RSS override target
  uint64_t tx_ring_bytes = 0;       // ring working set (DDIO model input)
  uint64_t rx_ring_bytes = 0;
  bool notify_rx = false;           // post to notification queue on RX
  bool notify_tx_drain = false;     // post when TX ring drains
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
};

class FlowTable {
 public:
  explicit FlowTable(SramAllocator* sram) : sram_(sram) {}

  // Installs an entry; fails with ResourceExhausted when NIC SRAM is full
  // (the caller may then fall back to the host software path, E7).
  Status Insert(const FlowEntry& entry) {
    if (entry.conn_id == net::kUnknownConnection) {
      return InvalidArgumentError("flow table: conn id 0 is reserved");
    }
    if (by_conn_.contains(entry.conn_id)) {
      return AlreadyExistsError("flow table: connection already installed");
    }
    if (by_tuple_.contains(entry.tuple)) {
      return AlreadyExistsError("flow table: 5-tuple already installed");
    }
    NORMAN_RETURN_IF_ERROR(sram_->Allocate("flow_table", kFlowEntryBytes,
                                           entry.owner.owner_pid,
                                           entry.owner.owner_tenant));
    by_conn_.emplace(entry.conn_id, entry);
    by_tuple_.PushFront(entry.tuple, entry.conn_id);
    return OkStatus();
  }

  Status Remove(net::ConnectionId conn_id) {
    const auto it = by_conn_.find(conn_id);
    if (it == by_conn_.end()) {
      return NotFoundError("flow table: no such connection");
    }
    const uint32_t tenant = it->second.owner.owner_tenant;
    by_tuple_.Erase(it->second.tuple);
    by_conn_.erase(it);
    sram_->Free("flow_table", kFlowEntryBytes, tenant);
    return OkStatus();
  }

  FlowEntry* Lookup(net::ConnectionId conn_id) {
    const auto it = by_conn_.find(conn_id);
    return it == by_conn_.end() ? nullptr : &it->second;
  }
  const FlowEntry* Lookup(net::ConnectionId conn_id) const {
    const auto it = by_conn_.find(conn_id);
    return it == by_conn_.end() ? nullptr : &it->second;
  }

  // RX steering: match an inbound packet's tuple against installed flows.
  // The inbound tuple is the reverse of the TX tuple stored in the entry.
  FlowEntry* LookupByInboundTuple(const net::FiveTuple& inbound) {
    const net::ConnectionId* conn = by_tuple_.Get(inbound.Reversed());
    return conn == nullptr ? nullptr : Lookup(*conn);
  }

  size_t size() const { return by_conn_.size(); }

 private:
  SramAllocator* sram_;
  std::unordered_map<net::ConnectionId, FlowEntry> by_conn_;
  SlabMap<net::FiveTuple, net::ConnectionId, net::FiveTupleHash> by_tuple_;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_FLOW_TABLE_H_
