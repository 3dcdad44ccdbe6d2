// Per-connection rate limiting on the NIC (SENIC / PicNIC style; §6 cites
// both among the offloads KOPI subsumes, and §4.2 lists congestion control
// in the on-NIC dataplane).
//
// A scheduler wrapper: packets are queued per connection, each connection
// paced by its own token bucket (kernel-configured), and conformant packets
// are released to an inner work-conserving discipline (FIFO by default,
// WFQ if installed). Unlimited connections bypass the pacing stage.
//
// This is also the enforcement point a kernel congestion-control module
// would drive: the kernel observes the network (ECN, RTT) and adjusts
// per-connection rates; the NIC enforces them at line rate.
#ifndef NORMAN_DATAPLANE_RATE_LIMITER_H_
#define NORMAN_DATAPLANE_RATE_LIMITER_H_

#include <deque>
#include <map>
#include <memory>

#include "src/dataplane/token_bucket.h"
#include "src/nic/fifo_scheduler.h"
#include "src/nic/pipeline.h"

namespace norman::dataplane {

class PacedScheduler : public nic::Scheduler {
 public:
  // inner: the discipline conformant packets drain into (owned).
  explicit PacedScheduler(std::unique_ptr<nic::Scheduler> inner =
                              std::make_unique<nic::FifoScheduler>(),
                          size_t per_conn_capacity = 1024);

  // Transparent to tooling: reports the inner discipline's name (tc shows
  // "wfq", not the pacing shim). Pacing state is queried via HasRate.
  std::string_view name() const override { return inner_->name(); }

  // Kernel-facing configuration. rate 0 removes the limit.
  void SetRate(net::ConnectionId conn, BitsPerSecond rate_bps,
               uint64_t burst_bytes);
  void ClearRate(net::ConnectionId conn);
  bool HasRate(net::ConnectionId conn) const {
    return flows_.contains(conn);
  }

  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& ctx) override;
  net::PacketPtr Dequeue(Nanos now) override;
  Nanos NextEligibleTime(Nanos now) const override;
  size_t backlog_packets() const override;
  // A pacer-queue overflow is a rate-limit drop; a refusal by the inner
  // discipline keeps the inner discipline's reason (queue overflow).
  DropReason last_drop_reason() const override { return last_drop_reason_; }

  uint64_t paced_drops() const { return paced_drops_; }
  // Packets the pacer released but the inner discipline refused (inner
  // queue overflow at hand-off time).
  uint64_t inner_overflow_drops() const { return inner_overflow_drops_; }

  // Backlog already released to the inner discipline (i.e. contending for
  // the link, not waiting on a pacer) — the congestion signal a kernel
  // rate controller reads.
  size_t inner_backlog() const { return inner_->backlog_packets(); }

 private:
  // A held packet keeps the owner metadata captured at enqueue: the inner
  // discipline classifies on it when the pacer releases the packet.
  struct Held {
    net::PacketPtr packet;
    overlay::ConnMetadata conn;
  };
  struct FlowPacer {
    TokenBucket bucket;
    std::deque<Held> queue;
  };

  // Moves every conformant head packet into the inner discipline.
  void ReleaseConformant(Nanos now);

  std::unique_ptr<nic::Scheduler> inner_;
  size_t per_conn_capacity_;
  std::map<net::ConnectionId, FlowPacer> flows_;
  uint64_t paced_drops_ = 0;
  uint64_t inner_overflow_drops_ = 0;
  DropReason last_drop_reason_ = DropReason::kSchedOverflow;
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_RATE_LIMITER_H_
