// Per-connection descriptor ring pair (TX + RX), the application dataplane
// interface of §4.3: "the in-kernel control plane allocates (and pins)
// memory for a pair of per-connection ring-buffers that the application uses
// to send and receive data", with head/tail pointers mirrored in SmartNIC
// MMIO registers.
//
// In the simulation a ring slot carries an owning PacketPtr (standing in for
// a descriptor pointing at pinned host memory). The *bytes* footprint below
// is what the DDIO model sees as the ring's cache working set.
#ifndef NORMAN_NIC_RING_H_
#define NORMAN_NIC_RING_H_

#include <cstdint>
#include <span>

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

class RingPair {
 public:
  explicit RingPair(uint32_t entries = kDefaultRingEntries)
      : tx_(entries), rx_(entries) {}

  ~RingPair() {
    // Occupants die with the ring; keep the aggregate gauges honest.
    if (tx_gauges_ != nullptr)
      tx_gauges_->Add(-static_cast<int64_t>(tx_.size()));
    if (rx_gauges_ != nullptr)
      rx_gauges_->Add(-static_cast<int64_t>(rx_.size()));
  }

  FixedRing<net::PacketPtr>& tx() { return tx_; }
  FixedRing<net::PacketPtr>& rx() { return rx_; }

  // Gauge-aware access. The gauges aggregate occupancy across every ring of
  // the NIC ("queue.nic.tx_ring" / "queue.nic.rx_ring"), so all push/pop
  // traffic must flow through these wrappers once gauges are attached.
  // Push takes by value like FixedRing::TryPush: a refused packet is
  // destroyed with the temporary unless the caller kept a reference.
  bool PushTx(net::PacketPtr p) {
    const bool ok = tx_.TryPush(std::move(p));
    if (ok && tx_gauges_ != nullptr) tx_gauges_->Add(1);
    return ok;
  }
  std::optional<net::PacketPtr> PopTx() {
    auto p = tx_.TryPop();
    if (p.has_value() && tx_gauges_ != nullptr) tx_gauges_->Add(-1);
    return p;
  }
  bool PushRx(net::PacketPtr p) {
    const bool ok = rx_.TryPush(std::move(p));
    if (ok && rx_gauges_ != nullptr) rx_gauges_->Add(1);
    return ok;
  }
  std::optional<net::PacketPtr> PopRx() {
    auto p = rx_.TryPop();
    if (p.has_value() && rx_gauges_ != nullptr) rx_gauges_->Add(-1);
    return p;
  }

  // Bulk pops over FixedRing::PopN: one gauge update per burst instead of
  // one per frame. Draining never raises the depth, so the high-water
  // latch is unchanged by batching.
  uint32_t PopTxN(std::span<net::PacketPtr> dst) {
    const uint32_t n = tx_.PopN(dst);
    if (n != 0 && tx_gauges_ != nullptr)
      tx_gauges_->Add(-static_cast<int64_t>(n));
    return n;
  }
  uint32_t PopRxN(std::span<net::PacketPtr> dst) {
    const uint32_t n = rx_.PopN(dst);
    if (n != 0 && rx_gauges_ != nullptr)
      rx_gauges_->Add(-static_cast<int64_t>(n));
    return n;
  }

  // Oldest (i == 0) or i-th-oldest queued TX descriptor, without consuming
  // it; nullptr when fewer than i+1 are queued. The batched TX drain uses
  // this to prefetch the next descriptor's payload.
  const net::PacketPtr* PeekTx(uint32_t i = 0) const { return tx_.PeekAt(i); }

  void AttachGauges(telemetry::QueueDepthGauges* tx_gauges,
                    telemetry::QueueDepthGauges* rx_gauges) {
    tx_gauges_ = tx_gauges;
    rx_gauges_ = rx_gauges;
  }

  // Whether the NIC's TX descriptor consumer for this ring is scheduled:
  // set by the doorbell that starts it, cleared when it drains the ring.
  // The flag lives exactly as long as the ring.
  bool tx_consumer_active() const { return tx_consumer_active_; }
  void set_tx_consumer_active(bool active) { tx_consumer_active_ = active; }

 private:
  FixedRing<net::PacketPtr> tx_;
  FixedRing<net::PacketPtr> rx_;
  telemetry::QueueDepthGauges* tx_gauges_ = nullptr;
  telemetry::QueueDepthGauges* rx_gauges_ = nullptr;
  bool tx_consumer_active_ = false;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_RING_H_
