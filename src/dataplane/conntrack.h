// Connection tracker: per-flow state observed on the NIC.
//
// Gives the dataplane (and netstat-style tools) the established/new
// distinction and liveness information the kernel's conntrack provides
// today. State lives in NIC SRAM; when full, new flows are reported as
// untracked rather than evicting established ones (§5's "careful data
// structure design" mitigation).
//
// The table is a SlabMap keyed on the tuple's *canonical* orientation (the
// endpoint with the smaller (ip, port) first), so one probe finds a flow
// from either side; each entry keeps the orientation of its first packet,
// which is what "initiator" means.
//
// Sweep keeps a watermark so a maintenance tick costs O(1) when nothing can
// expire: `closed_` counts entries in kClosed, and `oldest_seen_` is a lower
// bound on every entry's last_seen (lowered on every update, made exact by
// each full scan). With no closed entry and now - oldest_seen_ within the
// idle timeout, no entry can be due, so the scan is skipped.
#ifndef NORMAN_DATAPLANE_CONNTRACK_H_
#define NORMAN_DATAPLANE_CONNTRACK_H_

#include <cstdint>
#include <limits>

#include "src/common/slab_map.h"
#include "src/common/tracepoint.h"
#include "src/net/headers.h"
#include "src/net/types.h"
#include "src/nic/pipeline.h"
#include "src/nic/sram.h"

namespace norman::dataplane {

inline constexpr uint64_t kConntrackEntryBytes = 64;

enum class ConnState : uint8_t {
  kNew = 0,
  kSynSent,
  kEstablished,
  kFinWait,
  kClosed,
};

struct ConntrackEntry {
  net::FiveTuple tuple;  // orientation of the first packet seen
  ConnState state = ConnState::kNew;
  uint64_t packets = 0;
  uint64_t bytes = 0;
  Nanos first_seen = 0;
  Nanos last_seen = 0;
  // Tenant whose quota the entry's SRAM is charged against (0 = system:
  // anonymous wire traffic with no installed flow). Recorded so Sweep
  // refunds the same budget it charged.
  uint32_t tenant = 0;
};

class Conntrack : public nic::PipelineStage {
 public:
  Conntrack(nic::SramAllocator* sram, Nanos idle_timeout = 120 * kSecond);

  std::string_view name() const override { return "conntrack"; }
  // Stateful observer: never drops, but must see every packet (including
  // fast-path hits) to keep connection state identical with the cache on.
  nic::StageCacheClass cache_class() const override {
    return nic::StageCacheClass::kObserver;
  }

  nic::StageResult Process(net::Packet& packet,
                      const overlay::PacketContext& ctx) override;

  // Expires idle/closed entries; returns the number removed. The kernel
  // control plane runs this periodically. Skips the scan when the
  // watermark proves nothing is due.
  size_t Sweep(Nanos now);

  const ConntrackEntry* Lookup(const net::FiveTuple& tuple) const;
  size_t size() const { return table_.size(); }
  uint64_t untracked() const { return untracked_; }

  // "conntrack.transition" probe hookup.
  void AttachTracepoints(telemetry::Tracepoints* tp) { tp_ = tp; }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    table_.ForEach(
        [&fn](const net::FiveTuple&, const ConntrackEntry& entry) {
          fn(entry);
        });
  }

 private:
  using Table = SlabMap<net::FiveTuple, ConntrackEntry, net::FiveTupleHash>;

  void Advance(ConntrackEntry& entry, uint8_t tcp_flags, bool from_initiator);

  nic::SramAllocator* sram_;
  Nanos idle_timeout_;
  Table table_;  // keyed on the canonical orientation
  uint64_t untracked_ = 0;
  // Sweep watermark (see the file comment).
  size_t closed_ = 0;
  Nanos oldest_seen_ = std::numeric_limits<Nanos>::max();
  telemetry::Tracepoints* tp_ = nullptr;
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_CONNTRACK_H_
