// Shared notification queues for blocking I/O (§4.3).
//
// "The Norman dataplane ... allows connections to be configured so that the
// NIC adds [a] notification to a shared notification queue when packets are
// added to a queue (allowing blocking receive calls) or when a queue is
// drained (allowing blocking for sends)." One queue per process, readable by
// both the process and the kernel; the kernel control plane monitors these
// to wake blocked threads (see kernel/wait_service.h).
#ifndef NORMAN_NIC_NOTIFICATION_H_
#define NORMAN_NIC_NOTIFICATION_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/common/fixed_ring.h"
#include "src/common/metrics.h"
#include "src/common/units.h"
#include "src/net/packet.h"

namespace norman::nic {

enum class NotificationKind : uint8_t {
  kRxData,    // packets appended to an RX ring
  kTxDrained, // TX ring fully consumed by the NIC
};

struct Notification {
  NotificationKind kind = NotificationKind::kRxData;
  net::ConnectionId conn_id = net::kUnknownConnection;
  Nanos timestamp = 0;
  // RX queue (sharded lane) the completion happened on; 0 when unsharded.
  // The kernel's notification pump keys its per-queue drain counters
  // (kernel.notify.q<N>.drained) on this.
  uint16_t queue = 0;
};

class NotificationQueue {
 public:
  explicit NotificationQueue(uint32_t capacity = 1024) : ring_(capacity) {}

  // NIC side. Returns false when the queue overflowed (notification lost;
  // consumers must treat the queue as lossy and rescan, as with interrupt
  // coalescing). When interrupts are armed, fires the callback once and
  // disarms (interrupt mitigation: re-armed by the consumer).
  bool Post(const Notification& n) {
    const bool ok = ring_.TryPush(n);
    if (!ok) {
      ++overflows_;
    }
    if (interrupts_armed_ && on_interrupt_) {
      interrupts_armed_ = false;
      on_interrupt_();
    }
    return ok;
  }

  std::optional<Notification> Poll() { return ring_.TryPop(); }

  // Bulk drain: pops up to out.size() notifications in FIFO order with a
  // single gauge update for the whole burst. Returns the count popped; a
  // short count means the queue is now empty.
  uint32_t PollN(std::span<Notification> out) { return ring_.PopN(out); }
  bool empty() const { return ring_.empty(); }
  uint32_t size() const { return ring_.size(); }
  uint64_t overflows() const { return overflows_; }

  // Kernel side: arm a one-shot interrupt for the next Post. §4.3: "the
  // control plane ... can also choose to enable interrupts for notification
  // queues with low activity."
  void ArmInterrupt(std::function<void()> handler) {
    on_interrupt_ = std::move(handler);
    interrupts_armed_ = true;
  }
  void DisarmInterrupt() { interrupts_armed_ = false; }
  bool interrupts_armed() const { return interrupts_armed_; }

  // Aggregate occupancy across every process's queue ("queue.nic.notify");
  // the ring reports its own depth (FixedRing::AttachGauges).
  void AttachGauges(telemetry::QueueDepthGauges* gauges) {
    ring_.AttachGauges(gauges);
  }

 private:
  FixedRing<Notification> ring_;
  uint64_t overflows_ = 0;
  bool interrupts_armed_ = false;
  std::function<void()> on_interrupt_;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_NOTIFICATION_H_
