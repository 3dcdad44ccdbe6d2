// NIC-resident flow verdict cache — the megaflow-style fast path.
//
// The stage chain (filters, spoof guard, NAT, overlay programs) resolves
// the same verdict for every packet of a flow as long as the control-plane
// configuration is unchanged. Real hardware exploits that by caching the
// aggregate match/action outcome in an exact-match table and hitting it at
// line rate (OVS megaflows, TC flower offload, "Advancements in Traffic
// Processing Using Programmable Hardware Flow Offload"). This class is that
// table: keyed by (direction, 5-tuple, connection), an entry replays the
// whole chain's outcome — verdict, drop reason, instruction cost, the NAT
// header rewrite — in one SRAM lookup, plus a bitmask of *observer* stages
// (conntrack, sniffer) that must still see the packet so their state stays
// identical with the cache on or off.
//
// Correctness rests on epoch invalidation: every control-plane mutation
// (filter install/remove, qdisc or NAT change, overlay reload, conntrack
// expiry) bumps a generation counter; entries minted under an older epoch
// are treated as misses and lazily discarded. Entries are charged to NIC
// SRAM (category "flow_cache") and evicted LRU — insertion order breaks
// ties deterministically — so cache capacity is a resource-exhaustion axis
// like the flow table itself (§5 of the paper). Each partition's LRU is one
// SlabMap (src/common/slab_map.h): a hit moves the entry to the front, a
// mint reuses a freed slab node, and eviction takes the back, so the cache
// allocates nothing once its slab has grown — even under connection churn,
// where every InstallFlow/RemoveFlow invalidates it and almost every lookup
// misses.
//
// Sharded dataplanes partition the cache per RX lane (SetPartitions):
// each partition owns an LRU segment, a share of the entry budget, its
// own SRAM category ("flow_cache.q<N>") and a partition-local epoch so a
// lane migration (RSS indirection rewrite) can invalidate one lane's
// entries without flushing the others. An entry's staleness check is the
// *sum* of the global and partition epochs — both only ever increment,
// so the sum strictly increases on any bump and equality holds iff
// neither generation moved since mint.
#ifndef NORMAN_NIC_FLOW_CACHE_H_
#define NORMAN_NIC_FLOW_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/common/metrics.h"
#include "src/common/slab_map.h"
#include "src/net/packet.h"
#include "src/net/types.h"
#include "src/nic/sram.h"

namespace norman::nic {

enum class Verdict : uint8_t;  // pipeline.h; avoid the circular include

// SRAM cost per cached flow: key + verdict + rewrite + LRU links, padded.
inline constexpr uint64_t kFlowCacheEntryBytes = 64;

// Cached header transform (the NAT rewrite), replayed on hits without
// running the NAT stage. kSource rewrites src ip:port, kDestination dst.
enum class RewriteKind : uint8_t { kNone = 0, kSource = 1, kDestination = 2 };

struct FlowCacheKey {
  net::Direction direction = net::Direction::kTx;
  net::FiveTuple tuple;  // as seen on pipeline entry (pre-rewrite)
  net::ConnectionId conn = net::kUnknownConnection;

  bool operator==(const FlowCacheKey&) const = default;
};

struct FlowCacheKeyHash {
  size_t operator()(const FlowCacheKey& k) const {
    uint64_t h = net::FiveTupleHash{}(k.tuple);
    h ^= (static_cast<uint64_t>(k.conn) << 1) ^
         (static_cast<uint64_t>(k.direction) << 40);
    h *= 1099511628211ULL;
    return static_cast<size_t>(h);
  }
};

struct FlowCacheEntry {
  uint8_t verdict = 0;  // nic::Verdict; stored raw to avoid the include cycle
  DropReason drop_reason = DropReason::kNone;
  // Overlay instructions the skipped (pure) stages executed when the entry
  // was minted; charged to the instruction counter on hits so aggregate
  // accounting matches a full chain walk.
  uint32_t pure_instructions = 0;
  // Bit i set => chain stage i is an observer (conntrack, sniffer) and must
  // still Process() the packet on a hit.
  uint32_t observer_mask = 0;
  // Chain index at which the cached rewrite applies (-1: no rewrite). The
  // replay applies it *in position* so observers after it see the rewritten
  // frame exactly as they would on a miss.
  int16_t rewrite_stage = -1;
  RewriteKind rewrite_kind = RewriteKind::kNone;
  net::Ipv4Address rewrite_ip;
  uint16_t rewrite_port = 0;
  // Control-plane generation this entry was minted under; stale => miss.
  uint64_t epoch = 0;
  // Tenant whose SRAM quota holds the entry (0 = system). Set by the NIC
  // from the matched flow's owner when the entry is minted so eviction
  // refunds the right budget.
  uint32_t tenant = 0;
};

class FlowCache {
 public:
  static constexpr uint16_t kMaxPartitions = 8;

  FlowCache(SramAllocator* sram, telemetry::MetricsRegistry* registry);
  ~FlowCache();

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  // The cache is off by default (so pinned golden trajectories predate it);
  // the kernel opts in through the control plane.
  void Enable(size_t max_entries);
  void Disable();
  bool enabled() const { return enabled_; }

  // Repartitions the cache into `n` per-lane segments (clamped to
  // [1, kMaxPartitions]). Flushes every live entry: entries minted under
  // the old partition map would otherwise sit in the wrong segment. Each
  // partition gets max_entries / n of the entry budget (at least one) and
  // its own SRAM category so on-NIC memory pressure is attributable per
  // lane.
  void SetPartitions(uint16_t n);
  uint16_t partitions() const {
    return static_cast<uint16_t>(parts_.size());
  }

  // Bumps the global configuration epoch; all live entries become stale
  // and are lazily discarded on their next lookup.
  void Invalidate();

  // Bumps one partition's epoch: used when an RSS indirection rewrite
  // migrates flows across lanes — the migrated lane's cached verdicts must
  // re-walk the chain, the other lanes keep their fast path.
  void InvalidatePartition(uint16_t partition);

  // Hit: touches the partition LRU and returns the entry, valid until the
  // next Insert. Miss (absent, stale, or cache disabled): returns nullptr.
  // Stale entries are erased on the spot. Every NIC lookup, TX and RX, goes
  // through here, so the hit/miss counters and the LRU order are exact.
  const FlowCacheEntry* Lookup(const FlowCacheKey& key,
                               uint16_t partition = 0);

  // Inserts (or overwrites) under the current epoch, evicting LRU entries
  // until both the partition's entry bound and SRAM admit it; skipped if
  // SRAM cannot cover one entry even with the partition emptied.
  void Insert(const FlowCacheKey& key, FlowCacheEntry entry,
              uint16_t partition = 0);

  size_t size() const { return count_; }
  size_t partition_size(uint16_t partition) const {
    return parts_[partition].map.size();
  }
  size_t max_entries() const { return max_entries_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t hits() const { return hits_->value(); }
  uint64_t misses() const { return misses_->value(); }
  uint64_t invalidations() const { return invalidations_->value(); }
  uint64_t evictions() const { return evictions_->value(); }
  uint64_t uncacheable() const { return uncacheable_->value(); }
  uint64_t sram_bytes() const { return count_ * kFlowCacheEntryBytes; }

  // A flow whose chain walk could not be summarized (uncacheable stage,
  // unsupported rewrite shape, fallback verdict). Counted by the NIC.
  void RecordUncacheable() { uncacheable_->Increment(); }

  // "flowcache.{install,evict,invalidate}" probe hookup.
  void AttachTracepoints(telemetry::Tracepoints* tp) { tp_ = tp; }

 private:
  // One SlabMap per partition: most-recently-used at the front, eviction
  // takes the back. The recency order is a pure function of the
  // lookup/insert sequence, so eviction is deterministic.
  using Table = SlabMap<FlowCacheKey, FlowCacheEntry, FlowCacheKeyHash>;
  struct Partition {
    Table map;
    // Partition-local invalidation generation; an entry is fresh iff it
    // was minted under the current (epoch_ + epoch) sum.
    uint64_t epoch = 0;
    // "flow_cache" unpartitioned, "flow_cache.q<N>" per lane.
    std::string sram_category;
  };

  void EvictOne(Partition& part);
  void Erase(Partition& part, Table::Index i);
  void Flush();
  size_t PartitionCapacity() const {
    const size_t per = max_entries_ / parts_.size();
    return per == 0 ? 1 : per;
  }
  // Tracepoint core id for a partition: lanes map onto the per-lane trace
  // rings when the cache is partitioned, the aggregate NIC ring otherwise.
  uint32_t TpCore(const Partition& part) const;

  SramAllocator* sram_;
  bool enabled_ = false;
  size_t max_entries_ = 0;
  size_t count_ = 0;  // live entries across all partitions
  uint64_t epoch_ = 0;
  std::vector<Partition> parts_;

  telemetry::Counter* hits_;           // fastpath.hits
  telemetry::Counter* misses_;         // fastpath.misses
  telemetry::Counter* invalidations_;  // fastpath.invalidations
  telemetry::Counter* evictions_;      // fastpath.evictions
  telemetry::Counter* uncacheable_;    // fastpath.uncacheable
  telemetry::Gauge* entries_;          // fastpath.entries
  telemetry::Gauge* sram_gauge_;       // fastpath.sram_bytes
  telemetry::Tracepoints* tp_ = nullptr;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_FLOW_CACHE_H_
