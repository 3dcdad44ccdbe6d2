// The application-side dataplane capability (§4.3).
//
// After connect()/accept(), the kernel hands the application exactly this:
// its connection's ring pair and MMIO doorbell window. Every datapath
// operation is a memory or doorbell access — no syscalls — and nothing on
// this object can reconfigure the NIC, so policies cannot be evaded from
// userspace.
#ifndef NORMAN_KERNEL_APP_PORT_H_
#define NORMAN_KERNEL_APP_PORT_H_

#include <memory>
#include <span>

#include "src/common/status.h"
#include "src/net/packet.h"
#include "src/net/types.h"
#include "src/nic/mmio.h"
#include "src/nic/ring.h"
#include "src/nic/smart_nic.h"

namespace norman::kernel {

class Kernel;

class AppPort {
 public:
  AppPort() = default;

  bool valid() const { return conn_id_ != net::kUnknownConnection; }
  // True when the NIC had no room and this connection runs over the host
  // software path (use Kernel::SoftwareTransmit; ring methods are inert).
  bool software_fallback() const { return rings_ == nullptr && valid(); }
  net::ConnectionId conn_id() const { return conn_id_; }
  const net::FiveTuple& tuple() const { return tuple_; }
  net::MacAddress local_mac() const { return local_mac_; }
  net::MacAddress gateway_mac() const { return gateway_mac_; }

  // Publishes one TX descriptor. Returns false when the ring is full (the
  // app should back off or block on the TX-drain notification).
  bool PushTx(net::PacketPtr packet) {
    return rings_ != nullptr && rings_->tx().TryPush(std::move(packet));
  }

  // Rings the TX doorbell: one posted MMIO write; the NIC starts fetching.
  Status RingDoorbell(Nanos now) {
    if (rings_ == nullptr) {
      return FailedPreconditionError("software-fallback port has no doorbell");
    }
    NORMAN_RETURN_IF_ERROR(doorbell_.Write(nic::kRegTxHead,
                                           rings_->tx().head()));
    return nic_->Doorbell(conn_id_, now);
  }

  // Consumes one RX descriptor; nullptr when the ring is empty.
  net::PacketPtr PopRx() {
    if (rings_ == nullptr) {
      return nullptr;
    }
    auto p = rings_->rx().TryPop();
    return p.has_value() ? std::move(*p) : nullptr;
  }

  // Bulk RX consume: pops up to out.size() frames in FIFO order with one
  // occupancy-gauge update for the whole burst. Returns the count popped;
  // a short count means the ring is now empty.
  uint32_t PopRxN(std::span<net::PacketPtr> out) {
    return rings_ == nullptr ? 0 : rings_->rx().PopN(out);
  }

 private:
  friend class Kernel;
  AppPort(net::ConnectionId conn_id, net::FiveTuple tuple,
          net::MacAddress local_mac, net::MacAddress gateway_mac,
          nic::RingPair* rings, nic::DoorbellWindow doorbell,
          nic::SmartNic* nic)
      : conn_id_(conn_id),
        tuple_(tuple),
        local_mac_(local_mac),
        gateway_mac_(gateway_mac),
        rings_(rings),
        doorbell_(doorbell),
        nic_(nic) {}

  net::ConnectionId conn_id_ = net::kUnknownConnection;
  net::FiveTuple tuple_;
  net::MacAddress local_mac_;
  net::MacAddress gateway_mac_;
  nic::RingPair* rings_ = nullptr;
  nic::DoorbellWindow doorbell_;
  nic::SmartNic* nic_ = nullptr;  // doorbell signal path only
};

}  // namespace norman::kernel

#endif  // NORMAN_KERNEL_APP_PORT_H_
