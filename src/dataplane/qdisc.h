// Queueing disciplines for the on-NIC TX scheduler (the tc/qdisc of Norman).
//
// §2's QoS scenario: Alice shapes the game's traffic with tc + qdisc; under
// kernel bypass no work-conserving policy (like weighted fair queueing) can
// be enforced because no single vantage point sees all competing senders.
// On the NIC, these disciplines see *every* TX packet with its kernel-
// attached owner metadata, so per-user / per-cgroup shaping just works.
//
// Classification maps a packet context to a class id via a Classifier —
// either a C++ callback installed by the kernel or an overlay program (the
// §4.4 "instruction set for defining traffic shaping policies").
#ifndef NORMAN_DATAPLANE_QDISC_H_
#define NORMAN_DATAPLANE_QDISC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/dataplane/token_bucket.h"
#include "src/nic/pipeline.h"
#include "src/overlay/isa.h"
#include "src/overlay/packet_context.h"

namespace norman::dataplane {

// Maps a packet to a traffic class. Class ids are small dense integers.
using Classifier = std::function<uint32_t(const overlay::PacketContext&)>;

// Classify by kernel-attached owner uid -> class mapping (default class 0).
Classifier ClassifyByUid(std::map<uint32_t, uint32_t> uid_to_class);
// Classify by cgroup id -> class.
Classifier ClassifyByCgroup(std::map<uint32_t, uint32_t> cgroup_to_class);
// Classify by DSCP codepoint -> class.
Classifier ClassifyByDscp(std::map<uint8_t, uint32_t> dscp_to_class);
// Classify by running a verified overlay program (verdict = class id).
Classifier ClassifyByOverlay(overlay::Program program);

// ---------------------------------------------------------------------------
// Strict-priority discipline: band 0 always dequeues before band 1, etc.
class PrioQdisc : public nic::Scheduler {
 public:
  PrioQdisc(uint32_t num_bands, Classifier classifier,
            size_t per_band_capacity = 1024);

  std::string_view name() const override { return "prio"; }
  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& ctx) override;
  net::PacketPtr Dequeue(Nanos now) override;
  Nanos NextEligibleTime(Nanos now) const override;
  size_t backlog_packets() const override;

  uint64_t drops(uint32_t band) const { return bands_[band].drops; }

 private:
  struct Band {
    std::deque<net::PacketPtr> queue;
    uint64_t drops = 0;
  };
  std::vector<Band> bands_;
  Classifier classifier_;
  size_t per_band_capacity_;
};

// ---------------------------------------------------------------------------
// Token-bucket filter shaping the aggregate to `rate_bps` with `burst_bytes`
// of depth; excess packets wait (or drop when the queue is full). Not
// work-conserving by design — this is tc's tbf.
class TokenBucketQdisc : public nic::Scheduler {
 public:
  TokenBucketQdisc(BitsPerSecond rate_bps, uint64_t burst_bytes,
                   size_t capacity_packets = 4096);

  std::string_view name() const override { return "tbf"; }
  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& ctx) override;
  net::PacketPtr Dequeue(Nanos now) override;
  Nanos NextEligibleTime(Nanos now) const override;
  size_t backlog_packets() const override { return queue_.size(); }

  uint64_t drops() const { return drops_; }

 private:
  TokenBucket bucket_;
  size_t capacity_;
  std::deque<net::PacketPtr> queue_;
  uint64_t drops_ = 0;
};

// ---------------------------------------------------------------------------
// Deficit round robin across classes: each class gets `quantum` bytes per
// round; O(1) work-conserving fair queueing (Shreedhar & Varghese).
class DrrQdisc : public nic::Scheduler {
 public:
  DrrQdisc(Classifier classifier, uint64_t quantum_bytes = 1514,
           size_t per_class_capacity = 1024);

  std::string_view name() const override { return "drr"; }
  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& ctx) override;
  net::PacketPtr Dequeue(Nanos now) override;
  Nanos NextEligibleTime(Nanos now) const override;
  size_t backlog_packets() const override { return backlog_; }

 private:
  struct ClassState {
    std::deque<net::PacketPtr> queue;
    uint64_t deficit = 0;
    bool in_active_list = false;
  };
  Classifier classifier_;
  uint64_t quantum_;
  size_t per_class_capacity_;
  std::map<uint32_t, ClassState> classes_;
  std::deque<uint32_t> active_;  // round-robin order of backlogged classes
  size_t backlog_ = 0;
};

// ---------------------------------------------------------------------------
// Weighted fair queueing: packet-by-packet GPS approximation with virtual
// finish times (Demers, Keshav & Shenker — the paper's WFQ citation [10]).
// Work-conserving: spare capacity from idle classes is shared by weight.
class WfqQdisc : public nic::Scheduler {
 public:
  explicit WfqQdisc(Classifier classifier, size_t per_class_capacity = 4096);

  std::string_view name() const override { return "wfq"; }

  // Weight for a class (default 1.0). Must be > 0.
  void SetWeight(uint32_t class_id, double weight);

  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& ctx) override;
  net::PacketPtr Dequeue(Nanos now) override;
  Nanos NextEligibleTime(Nanos now) const override;
  size_t backlog_packets() const override { return backlog_; }

  uint64_t dequeued_bytes(uint32_t class_id) const;

 private:
  struct FlowState {
    std::deque<net::PacketPtr> queue;
    std::deque<double> finish_times;
    double weight = 1.0;
    double last_finish = 0.0;
    uint64_t dequeued_bytes = 0;
  };
  Classifier classifier_;
  size_t per_class_capacity_;
  std::map<uint32_t, FlowState> flows_;
  double virtual_time_ = 0.0;
  size_t backlog_ = 0;
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_QDISC_H_
