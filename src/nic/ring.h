// Per-connection descriptor ring pair (TX + RX), the application dataplane
// interface of §4.3: "the in-kernel control plane allocates (and pins)
// memory for a pair of per-connection ring-buffers that the application uses
// to send and receive data", with head/tail pointers mirrored in SmartNIC
// MMIO registers.
//
// In the simulation a ring slot carries an owning PacketPtr (standing in for
// a descriptor pointing at pinned host memory). The *bytes* footprint below
// is what the DDIO model sees as the ring's cache working set. Producers
// and consumers use tx()/rx() directly; each ring reports its own
// occupancy into the gauges the NIC attaches (FixedRing::AttachGauges).
#ifndef NORMAN_NIC_RING_H_
#define NORMAN_NIC_RING_H_

#include <cstdint>

#include "src/common/fixed_ring.h"
#include "src/common/metrics.h"
#include "src/net/packet.h"

namespace norman::nic {

// Default ring geometry: 256 descriptors x 2KB buffers = 512KB per ring...
// deliberately *not*. The paper's scaling cliff arithmetic needs rings whose
// combined working set passes the DDIO share (4MiB) around ~1024
// connections: 1024 conns x (2 rings x 2KiB hot working set) = 4MiB. A
// ring's *hot* working set is the recently-touched descriptors + buffers,
// which we model as kHotWorkingSetBytes, far below the ring's total pinned
// allocation.
inline constexpr uint32_t kDefaultRingEntries = 256;
inline constexpr uint64_t kHotWorkingSetBytes = 2048;
// NIC SRAM for one ring pair's descriptor state (head/tail, base addresses,
// completion state).
inline constexpr uint64_t kRingStateBytes = 64;

class RingPair {
 public:
  explicit RingPair(uint32_t entries = kDefaultRingEntries)
      : tx_(entries), rx_(entries) {}

  FixedRing<net::PacketPtr>& tx() { return tx_; }
  FixedRing<net::PacketPtr>& rx() { return rx_; }

  void AttachGauges(telemetry::QueueDepthGauges* tx_gauges,
                    telemetry::QueueDepthGauges* rx_gauges) {
    tx_.AttachGauges(tx_gauges);
    rx_.AttachGauges(rx_gauges);
  }

  // Whether the NIC's TX descriptor consumer for this ring is scheduled:
  // set by the doorbell that starts it, cleared when it drains the ring.
  // The flag lives exactly as long as the ring.
  bool tx_consumer_active() const { return tx_consumer_active_; }
  void set_tx_consumer_active(bool active) { tx_consumer_active_ = active; }

 private:
  FixedRing<net::PacketPtr> tx_;
  FixedRing<net::PacketPtr> rx_;
  bool tx_consumer_active_ = false;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_RING_H_
