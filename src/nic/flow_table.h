// NIC flow table: the NIC's one record per live connection.
//
// At connect()/accept() time the kernel installs one entry per connection:
// the 5-tuple, the ring pair, and — the heart of KOPI — the owning process's
// uid/pid/comm/cgroup. TX packets are tagged with their source connection
// (the NIC knows which ring a descriptor came from); RX packets are matched
// by 5-tuple to find the destination ring, in one probe of a tuple index
// onto the entry's slab node. Every entry is charged against NIC SRAM, which
// is what makes connection count a resource-exhaustion axis (§5,
// experiments E2/E7).
#ifndef NORMAN_NIC_FLOW_TABLE_H_
#define NORMAN_NIC_FLOW_TABLE_H_

#include <cstdint>
#include <memory>

#include "src/common/slab_map.h"
#include "src/common/status.h"
#include "src/net/packet.h"
#include "src/net/types.h"
#include "src/overlay/packet_context.h"
#include "src/nic/ring.h"
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
  bool notify_rx = false;           // post to notification queue on RX
  bool notify_tx_drain = false;     // post when TX ring drains
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
  // Created by the NIC's InstallFlow. Behind a pointer: AppPort holds the
  // ring's address, and slab nodes move when the table grows.
  std::unique_ptr<RingPair> rings;
};

class FlowTable {
 public:
  explicit FlowTable(SramAllocator* sram) : sram_(sram) {}

  // Installs an entry and returns it; fails with ResourceExhausted when NIC
  // SRAM is full (the caller may then fall back to the host software path,
  // E7).
  StatusOr<FlowEntry*> Insert(FlowEntry entry) {
    if (entry.conn_id == net::kUnknownConnection) {
      return InvalidArgumentError("flow table: conn id 0 is reserved");
    }
    if (entries_.contains(entry.conn_id)) {
      return AlreadyExistsError("flow table: connection already installed");
    }
    if (by_tuple_.contains(entry.tuple)) {
      return AlreadyExistsError("flow table: 5-tuple already installed");
    }
    NORMAN_RETURN_IF_ERROR(sram_->Allocate("flow_table", kFlowEntryBytes,
                                           entry.owner.owner_pid,
                                           entry.owner.owner_tenant));
    const net::ConnectionId conn_id = entry.conn_id;
    const Node node = entries_.PushFront(conn_id, std::move(entry));
    by_tuple_.PushFront(entries_.value(node).tuple, node);
    return &entries_.value(node);
  }

  // Removes the entry, with its rings and whatever they still hold, and
  // returns its owner.
  StatusOr<overlay::ConnMetadata> Remove(net::ConnectionId conn_id) {
    const Node node = entries_.Find(conn_id);
    if (node == Entries::kNil) {
      return NotFoundError("flow table: no such connection");
    }
    const overlay::ConnMetadata owner = entries_.value(node).owner;
    by_tuple_.Erase(entries_.value(node).tuple);
    entries_.EraseAt(node);
    sram_->Free("flow_table", kFlowEntryBytes, owner.owner_tenant);
    return owner;
  }

  // An entry is valid only until the next Insert, which may grow the slab
  // and move it; no caller may hold one across an install.
  FlowEntry* Lookup(net::ConnectionId conn_id) {
    return entries_.Get(conn_id);
  }
  const FlowEntry* Lookup(net::ConnectionId conn_id) const {
    return entries_.Get(conn_id);
  }

  // RX steering: match an inbound packet's tuple against installed flows.
  // The inbound tuple is the reverse of the TX tuple stored in the entry.
  FlowEntry* LookupByInboundTuple(const net::FiveTuple& inbound) {
    const Node* node = by_tuple_.Get(inbound.Reversed());
    return node == nullptr ? nullptr : &entries_.value(*node);
  }

  size_t size() const { return entries_.size(); }

 private:
  using Entries = SlabMap<net::ConnectionId, FlowEntry>;
  using Node = Entries::Index;

  SramAllocator* sram_;
  Entries entries_;
  SlabMap<net::FiveTuple, Node, net::FiveTupleHash> by_tuple_;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_FLOW_TABLE_H_
