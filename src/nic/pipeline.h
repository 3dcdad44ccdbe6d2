// Interfaces the on-NIC dataplane plugs into the SmartNIC pipeline.
//
// The NIC hardware provides the plumbing (rings, DMA, MMIO, flow table);
// interposition *logic* — filters, sniffer taps, queueing disciplines — is
// implemented against these interfaces in src/dataplane and installed by
// the kernel control plane. This mirrors the paper's split: the overlay and
// its programs are loaded into the NIC, not compiled into it.
#ifndef NORMAN_NIC_PIPELINE_H_
#define NORMAN_NIC_PIPELINE_H_

#include <cstdint>
#include <string_view>

#include "src/common/drop_reason.h"
#include "src/common/units.h"
#include "src/net/packet.h"
#include "src/overlay/packet_context.h"

namespace norman::nic {

enum class Verdict : uint8_t {
  kAccept = 0,
  kDrop = 1,
  // Divert through the host software slow path (E7 resource-exhaustion
  // mitigation: "route 'low priority' ... traffic through a software
  // datapath").
  kSoftwareFallback = 2,
};

struct StageResult {
  Verdict verdict = Verdict::kAccept;
  // Overlay instructions executed (charged at overlay_instr_ns each).
  uint32_t overlay_instructions = 0;
  // Why, when verdict == kDrop. Stages returning kDrop must tag a reason;
  // the NIC attributes the drop to exactly one reason counter.
  DropReason drop_reason = DropReason::kNone;
  // Set by stages that rewrote the frame bytes (NAT). Tells the NIC the
  // cached parse is stale and must be refreshed before anything downstream
  // reads headers.
  bool mutated = false;
};

// How a stage interacts with the flow verdict cache (megaflow-style fast
// path). The cache replays a flow's aggregate verdict without re-running
// the chain, so each stage must declare what a cache hit may skip.
enum class StageCacheClass : uint8_t {
  // Pure function of the flow key under a fixed configuration: verdict and
  // instruction cost can be cached and the stage skipped entirely on hits
  // (filters, spoof guard, NAT — whose rewrite is replayed from the cache).
  kPure = 0,
  // Keeps per-packet state (connection trackers, sniffer taps): verdict is
  // cacheable but the stage must still observe every hit packet.
  kObserver = 1,
  // Payload- or state-dependent verdicts (loaded overlay programs): flows
  // touching this stage are never cached.
  kUncacheable = 2,
};

// A match/action stage (filter, sniffer, counter). Stages must not block;
// queueing belongs to the Scheduler.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;
  virtual std::string_view name() const = 0;
  // Conservative default: unknown stages disable the fast path for flows
  // that reach them rather than risk skipping real work.
  virtual StageCacheClass cache_class() const {
    return StageCacheClass::kUncacheable;
  }
  // May mutate the packet (NAT). `ctx.direction` distinguishes TX/RX.
  virtual StageResult Process(net::Packet& packet,
                              const overlay::PacketContext& ctx) = 0;
};

// TX packet scheduler (queueing discipline). The NIC enqueues every accepted
// TX packet and dequeues whenever the wire is free; the discipline decides
// the order (FIFO, priority, DRR, WFQ, token bucket...).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string_view name() const = 0;
  // May drop (returns false) when its queues are full.
  virtual bool Enqueue(net::PacketPtr packet,
                       const overlay::PacketContext& ctx) = 0;
  // Next packet to put on the wire at virtual time `now`; nullptr if nothing
  // is eligible (empty, or rate-limited until a later time).
  virtual net::PacketPtr Dequeue(Nanos now) = 0;
  // Earliest future time a packet may become eligible while the backlog is
  // non-empty (for token-bucket style disciplines). Returns -1 when either
  // empty or immediately eligible.
  virtual Nanos NextEligibleTime(Nanos now) const = 0;
  virtual size_t backlog_packets() const = 0;
  // Why the most recent Enqueue() returned false. Plain queue overflow is
  // the default; pacing disciplines override to report kRateLimited.
  virtual DropReason last_drop_reason() const {
    return DropReason::kSchedOverflow;
  }
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_PIPELINE_H_
