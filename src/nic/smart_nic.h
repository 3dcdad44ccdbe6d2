// The simulated on-path FPGA SmartNIC (§4.1-§4.2).
//
// All packets traverse this device: TX descriptors are fetched from
// per-connection rings by the DMA engine (through the DDIO cache model),
// flow through the installed pipeline stages (filter, sniffer, NAT — see
// src/dataplane) at the pipeline's line rate, are ordered by the installed
// queueing discipline, and serialized onto the wire. RX reverses the path:
// wire -> parse, flow-table match and RSS steering to a lane -> pipeline ->
// DMA into the connection's RX ring -> notification. Every packet is served
// by exactly one of the NIC's lanes (one until EnableSharding adds more).
//
// Both directions share one interposition body: ServePipeline (the tenant
// WFQ gate or the lane's FIFO) and ResolveChain (a flow-cache hit replays
// the cached verdict and its observer stages; a miss walks the stages and
// mints an entry). The TX and RX paths around it keep only what differs:
// TX fetches by DMA first, passes a repeat FALLBACK and hands off to the
// qdisc; RX quarantines bad checksums, diverts unmatched frames and DMAs
// into the connection's ring.
//
// Privilege separation follows the paper: the *kernel* obtains the single
// ControlPlane capability (TakeControlPlane) and is the only agent that can
// install flows, load overlay programs, change the scheduler, or attach
// stages. Applications only ever receive per-connection ring/doorbell
// handles through the kernel (src/kernel, src/norman), so "applications
// cannot evade policies enforced by the interposition layer" (§3).
#ifndef NORMAN_NIC_SMART_NIC_H_
#define NORMAN_NIC_SMART_NIC_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <unordered_set>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"
#include "src/common/status.h"
#include "src/common/tracepoint.h"
#include "src/common/units.h"
#include "src/net/packet.h"
#include "src/net/parsed_packet.h"
#include "src/nic/ddio.h"
#include "src/nic/flow_cache.h"
#include "src/nic/flow_table.h"
#include "src/nic/mmio.h"
#include "src/nic/notification.h"
#include "src/nic/pipeline.h"
#include "src/nic/ring.h"
#include "src/nic/rss.h"
#include "src/nic/sram.h"
#include "src/nic/tenant_table.h"
#include "src/nic/top_talkers.h"
#include "src/overlay/decoded_program.h"
#include "src/overlay/isa.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace norman::nic {

// Overlay program slots in NIC instruction memory (filter, classifier,
// scheduler parameters, spare).
inline constexpr size_t kNumOverlaySlots = 4;

// NIC datapath statistics, registry-backed: every field is a
// telemetry::Counter registered under "nic.*" in the owning simulator's
// MetricsRegistry, so `norman-stat`, JSON export, and the CI manifest all
// see the same numbers the accessors below return. Hot-path increments are
// pointer-indirect adds — same cost as the bare struct this replaces.
//
// Drops are first-class: every discarded packet lands in exactly one
// per-reason counter ("nic.tx.drop.<reason>" / "nic.rx.drop.<reason>")
// plus an owner-annotated ledger keyed (direction, reason, owner pid) that
// `norman-stat --drops` renders. The legacy aggregate fields (tx_dropped,
// rx_ring_overflow, ...) are derived sums over those reason counters.
class NicStats {
 public:
  explicit NicStats(telemetry::MetricsRegistry* registry);

  uint64_t tx_seen() const { return tx_seen_->value(); }
  // Frames the scheduler queued for the wire.
  uint64_t tx_accepted() const { return tx_accepted_->value(); }
  // Pipeline-verdict drops (stage said kDrop), all reasons summed.
  uint64_t tx_dropped() const;
  // Scheduler-side drops: queue overflow + pacer rate limiting.
  uint64_t tx_sched_dropped() const {
    return tx_drops(DropReason::kSchedOverflow) +
           tx_drops(DropReason::kRateLimited);
  }
  uint64_t tx_fallback() const { return tx_fallback_->value(); }
  uint64_t tx_bytes_wire() const { return tx_bytes_wire_->value(); }
  uint64_t rx_seen() const { return rx_seen_->value(); }
  uint64_t rx_accepted() const { return rx_accepted_->value(); }
  uint64_t rx_dropped() const;
  uint64_t rx_fallback() const { return rx_fallback_->value(); }
  uint64_t rx_ring_overflow() const {
    return rx_drops(DropReason::kRingFull);
  }
  uint64_t rx_unmatched() const { return rx_unmatched_->value(); }
  uint64_t dma_transfers() const { return dma_transfers_->value(); }
  uint64_t overlay_instructions() const {
    return overlay_instructions_->value();
  }

  uint64_t tx_drops(DropReason reason) const {
    return tx_drop_[static_cast<size_t>(reason)]->value();
  }
  uint64_t rx_drops(DropReason reason) const {
    return rx_drop_[static_cast<size_t>(reason)]->value();
  }
  uint64_t total_drops() const;

  // One ledger row per (direction, reason, owning pid) with a nonzero
  // count; pid 0 means "no registered owner" (unmatched wire traffic).
  struct DropRecord {
    net::Direction direction;
    DropReason reason;
    uint32_t owner_pid;
    uint64_t count;
  };
  // Sorted by (direction, reason, pid) — deterministic render order.
  std::vector<DropRecord> DropLedger() const;

  // The single accounting point: bumps the per-reason counter and the
  // owner ledger. `reason` must not be kNone. When a profiler is attached
  // the drop also lands in the owner's attr.* resource ledger. `tp_core`
  // selects the tracepoint ring the drop probe lands in — the lanes of a
  // multi-lane NIC pass their own core so per-lane decision sequences stay
  // separable.
  // `tenant` attributes the drop to a tenant's tenant.<id>.drops counter
  // (0 = untenanted; the ledger and tracepoint carry the pid either way).
  void RecordDrop(net::Direction dir, DropReason reason, uint32_t owner_pid,
                  uint32_t tp_core = telemetry::Tracepoints::kCoreNic,
                  uint32_t tenant = 0);

  // Mirror drops into the cycle-attribution owner ledger (attr.*.drops).
  void AttachProfiler(telemetry::Profiler* prof) { prof_ = prof; }

  // Mirror tenant-attributed drops into tenant.<id>.drops.
  void AttachTenants(TenantTable* tenants) { tenants_ = tenants; }

  // Mirror drops into the tracepoint stream: qdisc/rate-limit drops emit
  // "qdisc.drop", ring-full drops "ring.full", everything else "nic.drop".
  void AttachTracepoints(telemetry::Tracepoints* tp) { tp_ = tp; }

  // Zero this NIC's counters and ledger (registrations survive; other
  // metrics in the registry are untouched).
  void Reset();

 private:
  friend class SmartNic;

  telemetry::Counter* tx_seen_;
  telemetry::Counter* tx_accepted_;
  telemetry::Counter* tx_fallback_;
  telemetry::Counter* tx_bytes_wire_;
  telemetry::Counter* rx_seen_;
  telemetry::Counter* rx_accepted_;
  telemetry::Counter* rx_fallback_;
  telemetry::Counter* rx_unmatched_;
  telemetry::Counter* dma_transfers_;
  telemetry::Counter* overlay_instructions_;
  // Indexed by DropReason; slot 0 (kNone) is null — recording it is a bug.
  std::array<telemetry::Counter*, kNumDropReasons> tx_drop_{};
  std::array<telemetry::Counter*, kNumDropReasons> rx_drop_{};
  // (direction, reason, pid) -> count. Ordered map for stable output.
  std::map<std::tuple<uint8_t, uint8_t, uint32_t>, uint64_t> ledger_;
  telemetry::Profiler* prof_ = nullptr;
  telemetry::Tracepoints* tp_ = nullptr;
  TenantTable* tenants_ = nullptr;
};

class SmartNic {
 public:
  struct Options {
    sim::CostModel cost;
    uint64_t sram_bytes = 8 * kMiB;
    uint32_t ring_entries = kDefaultRingEntries;
    // Entries per lane's ingress/staging ring pair (power of two). The
    // rings only carry frames once EnableSharding adds a second lane.
    uint32_t lane_ring_entries = 1024;
  };

  // Upper bound on dataplane lanes (matches the tracepoint layer's per-lane
  // ring allowance).
  static constexpr uint16_t kMaxShardQueues = 8;
  // Frames a lane drain pops per event through the span APIs.
  static constexpr uint32_t kLaneDrainBatch = 16;
  // Max TX descriptors fetched per consumer wake-up. Batching elides the
  // per-descriptor re-arm event when (and only when) no other event could
  // run in between, so virtual-time behavior is bit-identical to unbatched
  // runs while host-time event dispatch amortizes per batch.
  static constexpr uint32_t kTxFetchBatch = 16;

  SmartNic(sim::Simulator* sim, Options options);
  ~SmartNic();

  SmartNic(const SmartNic&) = delete;
  SmartNic& operator=(const SmartNic&) = delete;

  // ---- Kernel-only control plane ----------------------------------------
  class ControlPlane {
   public:
    // Flow management. InstallFlow charges NIC SRAM (the entry, then its
    // ring state) and creates the entry's rings; ResourceExhausted signals
    // the kernel to use the host fallback path for this connection. An
    // entry LookupFlow returns is valid until the next install.
    Status InstallFlow(FlowEntry entry);
    Status RemoveFlow(net::ConnectionId conn_id);
    FlowEntry* LookupFlow(net::ConnectionId conn_id);
    const FlowTable& flow_table() const { return nic_->flow_table_; }

    // Ring/doorbell resources for a connection the kernel is setting up.
    // The kernel passes these (not the SmartNic) to the application.
    RingPair* GetRings(net::ConnectionId conn_id);
    DoorbellWindow MapDoorbell(net::ConnectionId conn_id);

    // Pipeline composition. Stages run in installation order; TX and RX
    // chains are independent. Stages are owned by the caller (kernel).
    void AddTxStage(PipelineStage* stage);
    void AddRxStage(PipelineStage* stage);
    void ClearStages();
    Status SetScheduler(std::unique_ptr<Scheduler> scheduler);
    Scheduler* scheduler() { return nic_->scheduler_.get(); }

    // Overlay management (§4.4). LoadOverlay verifies and decodes the
    // program, charges the MMIO-load reconfiguration time, and returns when
    // the new program becomes active. OverlaySlot is null for an empty
    // slot; its source() is the loaded ISA program. ReloadBitstream models
    // a full FPGA reprogram.
    StatusOr<Nanos> LoadOverlay(size_t slot, const overlay::Program& program);
    const overlay::DecodedProgram* OverlaySlot(size_t slot) const;
    uint64_t overlay_generation(size_t slot) const;
    Nanos ReloadBitstream();

    // Notification queues, one per process (§4.3). Releasing a pid's queue
    // drops whatever it still holds.
    NotificationQueue* RegisterNotificationQueue(uint32_t pid);
    NotificationQueue* GetNotificationQueue(uint32_t pid);
    void ReleaseNotificationQueue(uint32_t pid);

    // RSS configuration (the "partition the NIC" debugging scenario).
    RssEngine& rss() { return nic_->rss_; }

    // Grows the dataplane from its one lane to `num_queues` per-core lanes
    // (DESIGN.md §5b): lanes 1..n-1 with their own ring pairs and
    // pipeline/stage/DMA resources, one RSS queue and flow-cache partition
    // per lane, and the simulator's deterministic lane-interleave schedule.
    // `num_queues == 1` keeps the single lane. One-shot: re-sharding a
    // multi-lane dataplane would orphan in-flight lane state.
    Status EnableSharding(uint16_t num_queues);
    uint16_t shard_queues() const {
      return static_cast<uint16_t>(nic_->lanes_.size());
    }

    // Validated indirection-table rewrite: rejects out-of-range slots and
    // queues (see RssEngine::SetIndirection) and, on a multi-lane NIC,
    // invalidates the flow-cache partitions on both sides of the migration
    // so re-steered flows re-walk the chain on their new lane.
    Status SetRssIndirection(size_t index, uint16_t queue);

    // Per-flow accounting for norman-top (§3's continuous interposition).
    // Off by default: recording is pure observation, but the kernel decides
    // whether to spend NIC SRAM on it. Returns the live table; re-enabling
    // with a different bound rebuilds it.
    TopTalkers* EnableTopTalkers(size_t max_entries = 64);
    void DisableTopTalkers() { nic_->top_talkers_.reset(); }
    TopTalkers* top_talkers() { return nic_->top_talkers_.get(); }

    // Flow verdict cache (the megaflow-style fast path). Off by default —
    // pinned golden trajectories predate it — and opt-in per NIC; hits are
    // charged flow_cache_hit_ns instead of the full chain walk, so enabling
    // it changes virtual completion times (never verdicts or state).
    FlowCache* EnableFlowCache(size_t max_entries = 1024);
    void DisableFlowCache();
    FlowCache& flow_cache() { return nic_->flow_cache_; }

    // Bumps the fast-path configuration epoch: every cached verdict minted
    // before this call becomes a miss. Mutating ControlPlane operations
    // call it internally; the kernel must also call it for reconfigurations
    // the NIC cannot observe (filter rule edits, capture toggles, conntrack
    // expiry, pacer changes).
    void InvalidateFastPath();

    // ---- NIC-side fault injection (chaos campaigns) ----------------------
    // Holds `bytes` of NIC SRAM hostage under the "fault_pressure" SRAM
    // category (cumulative across calls), so flow installs and NAT port
    // allocations see transient ResourceExhausted exactly as they would
    // under a real SRAM squeeze. Mirrored in kRegFaultSramPressure.
    Status InjectSramPressure(uint64_t bytes);
    // Returns every hostage byte to the allocator.
    void ReleaseSramPressure();
    uint64_t sram_pressure_bytes() const {
      return nic_->fault_sram_pressure_;
    }
    // While stalled, PostNotification defers completions into a holding pen
    // instead of waking applications (a wedged interrupt path); resuming
    // flushes the pen in arrival order. Mirrored in kRegFaultNotifyStall.
    void StallNotifications(bool stalled);
    bool notifications_stalled() const { return nic_->notify_stalled_; }

    // ---- Multi-tenant isolation (OSMOSIS-style quotas + cycle shares) ----
    // Registers (or re-weights) a tenant: an SRAM byte quota (0 =
    // unlimited) and an integer WFQ weight over NIC pipeline cycles per
    // lane. Enforcement of the cycle share additionally requires
    // SetTenantIsolation(true); the SRAM quota binds as soon as it is set.
    void ConfigureTenant(uint32_t tenant, uint32_t cycle_weight,
                         uint64_t sram_quota_bytes);
    // Releases the tenant's share and quota. NIC state already charged to
    // the tenant keeps draining against its (now unlimited) usage ledger.
    void RemoveTenant(uint32_t tenant);
    // Arms/disarms WFQ cycle-share enforcement. Off (the default) keeps
    // every trajectory bit-identical to the pre-tenancy dataplane.
    void SetTenantIsolation(bool on);
    TenantTable& tenants() { return nic_->tenant_table_; }

    // Host software fallback sink for packets the NIC diverts (E7).
    void SetFallbackSink(
        std::function<void(net::PacketPtr, net::Direction)> sink);

    // Raw privileged register access.
    PrivilegedMmio& mmio() { return nic_->priv_mmio_; }

    SramAllocator& sram() { return nic_->sram_; }
    DdioModel& ddio() { return nic_->ddio_; }

   private:
    friend class SmartNic;
    explicit ControlPlane(SmartNic* nic) : nic_(nic) {}
    SmartNic* nic_;
  };

  // The kernel calls this exactly once at boot; later calls return null.
  std::unique_ptr<ControlPlane> TakeControlPlane();

  // ---- Application-visible datapath (handles granted by the kernel) -----
  // Called by the Norman library after the app pushed descriptors into its
  // TX ring and wrote the doorbell register: the NIC begins consuming the
  // ring. `now` is the doorbell MMIO arrival time.
  Status Doorbell(net::ConnectionId conn_id, Nanos now);

  // Host-injected TX: frames originating in kernel software (the fallback
  // slow path of E7, and NIC-generated ARP replies). Still traverses the
  // full TX interposition pipeline and scheduler — software-path traffic is
  // not exempt from policy.
  void InjectHostPacket(net::PacketPtr packet, Nanos now);

  // ---- Network side ------------------------------------------------------
  // A frame arrives from the wire at time `now`.
  void DeliverFromWire(net::PacketPtr packet, Nanos now);

  // Sink invoked (in virtual time) for every frame the NIC puts on the wire.
  void SetWireSink(std::function<void(net::PacketPtr)> sink) {
    wire_sink_ = std::move(sink);
  }

  // ---- Introspection ------------------------------------------------------
  const NicStats& stats() const { return stats_; }
  const sim::Resource& wire() const { return wire_; }
  // Busy fraction of [0, horizon], averaged over the lanes' pipeline (resp.
  // DMA) resources.
  double PipelineUtilization(Nanos horizon) const {
    return MeanLaneUtilization(&Lane::pipeline, horizon);
  }
  double DmaUtilization(Nanos horizon) const {
    return MeanLaneUtilization(&Lane::dma, horizon);
  }
  const DdioModel& ddio() const { return ddio_; }
  const TenantTable& tenants() const { return tenant_table_; }
  const sim::CostModel& cost() const { return options_.cost; }
  sim::Simulator* simulator() { return sim_; }
  // Dataplane lanes (1 until EnableSharding adds more).
  uint16_t shard_queues() const {
    return static_cast<uint16_t>(lanes_.size());
  }

  void ResetStats() { stats_.Reset(); }

 private:
  friend class ControlPlane;

  // DDIO ring ids: even = TX ring of conn, odd = RX ring of conn.
  static uint64_t TxRingId(net::ConnectionId c) { return uint64_t{c} * 2; }
  static uint64_t RxRingId(net::ConnectionId c) { return uint64_t{c} * 2 + 1; }

  overlay::PacketContext MakeContext(const net::Packet& packet,
                                     const net::ParsedPacket* parsed,
                                     const FlowEntry* entry,
                                     net::Direction dir) const;

  // Scratch state RunStages fills while summarizing a chain walk into a
  // flow-cache entry. `cacheable` goes false the moment the walk does
  // something the cache cannot replay (uncacheable stage, a mutation that
  // is not a plain src/dst rewrite, more than one rewrite).
  struct FlowCacheMint {
    FlowCacheEntry entry;
    bool cacheable = true;
  };

  // One dataplane lane, the NIC's unit of service: per-core virtual-time
  // resources that serve in parallel across lanes, the per-queue
  // ingress/staging ring pair, profiler core ids and drain state. Every
  // packet charges exactly one lane. Resources own their per-queue names
  // ("nic.pipeline.q<N>", ...).
  struct Lane {
    Lane(uint16_t idx, uint32_t ring_entries)
        : index(idx),
          pipeline("nic.pipeline.q" + std::to_string(idx)),
          stages("nic.stages.q" + std::to_string(idx)),
          dma("nic.dma.q" + std::to_string(idx)),
          rings(ring_entries) {}
    uint16_t index;
    sim::Resource pipeline;
    sim::Resource stages;
    sim::Resource dma;
    // RX side: wire-ingress frames awaiting this lane's batched drain.
    // TX side: host-injected frames staged for this lane's TX path.
    // Depth flows into the per-queue gauges (queue.nic.*_ring.q<N>). Only
    // a multi-lane NIC uses them; one lane is entered directly.
    RingPair rings;
    bool rx_drain_scheduled = false;
    bool tx_drain_scheduled = false;
    uint32_t core_pipe = 0;
    uint32_t core_stages = 0;
    uint32_t core_dma = 0;
    // Per-core burst scratch (the lane's packet-pool staging): drains pop
    // span bursts into this array instead of allocating per pass.
    std::array<net::PacketPtr, kLaneDrainBatch> burst;
  };

  // Appends lane lanes_.size(): resources, ring gauges, profiler cores.
  void AddLane();
  // Tracepoint ring for `lane`'s events: the aggregate NIC ring while the
  // NIC has one lane (as FlowCache::TpCore does), the lane's own otherwise.
  uint32_t TpCore(const Lane& lane) const;
  double MeanLaneUtilization(sim::Resource Lane::*resource,
                             Nanos horizon) const;

  // One direction's interposition chain: the installed stages, their
  // attribution sites (parallel to `stages`; names alias the stages' own
  // name() storage, which outlives the registration), and the direction's
  // profiler scope and charge sites. TX and RX keep separate sites for the
  // shared frame names (dma/pipeline/...) so each memo sees a constant
  // parent and the steady state never re-resolves.
  struct Chain {
    Chain(const char* scope_name, const char* pipeline_span_name)
        : scope_site{scope_name}, pipeline_span(pipeline_span_name) {}
    void Add(PipelineStage* stage) {
      stages.push_back(stage);
      stage_sites.push_back(telemetry::ProfSite{stage->name()});
    }
    void Clear() {
      stages.clear();
      stage_sites.clear();
    }

    std::vector<PipelineStage*> stages;
    std::vector<telemetry::ProfSite> stage_sites;
    telemetry::ProfSite scope_site;  // "nic.tx" / "nic.rx"
    telemetry::ProfSite dma_site{"dma"};
    telemetry::ProfSite pipeline_site{"pipeline"};
    telemetry::ProfSite stages_site{"stages"};
    telemetry::ProfSite fastpath_site{"fastpath"};
    const char* pipeline_span;  // "tx.pipeline" / "rx.pipeline"
  };

  // What a frame's pass through its chain decided, and when it finished.
  struct ChainOutcome {
    Verdict verdict = Verdict::kAccept;
    DropReason drop_reason = DropReason::kNone;
    Nanos done = 0;
  };

  // Occupies `lane`'s pipeline (the line-rate cap) for one frame arriving
  // at `arrival` and returns when it leaves. Tenants with a configured cycle
  // share are gated through their own WFQ virtual server instead of the
  // lane's FIFO cursor: a quota'd aggressor queues behind its *own*
  // stretched horizon, never in front of the victim. The lane's resource
  // still accrues the busy time so utilization accounting (profiler
  // attributed + unaccounted == busy) is unchanged.
  Nanos ServePipeline(Lane& lane, Chain& chain, uint32_t tenant,
                      Nanos arrival, uint32_t owner_slot, uint32_t trace_id);

  // Resolves the chain's verdict for a frame leaving the pipeline at
  // `start`. With a `key` (the frame may use the flow cache), a hit replays
  // the cached entry and its observer stages; a miss walks the chain and
  // mints an entry from it. Without one, the chain is walked uncached.
  ChainOutcome ResolveChain(Lane& lane, Chain& chain, net::Packet& packet,
                            overlay::PacketContext& ctx,
                            const std::optional<FlowCacheKey>& key,
                            Nanos start, uint32_t trace_id,
                            uint32_t owner_slot);

  // Runs the chain, aggregating overlay instruction counts and stopping at
  // the first non-Accept verdict. Stages that report `mutated` trigger an
  // in-place re-parse, so `ctx.parsed` (and the packet's cached parse) is
  // always fresh for downstream stages and schedulers — the frame is
  // parsed exactly once unless something rewrote it. When `mint` is
  // non-null the walk is summarized into a prospective flow-cache entry.
  // For traced packets (trace_id != 0) emits one span per executed stage
  // starting at `stage_start`, each charged stage latency + its overlay
  // instructions, so the spans tile exactly onto the pipeline's cost-model
  // time. Each executed stage's cost is charged to `lane`'s stage engine
  // and, when profiling, to the stage's own node under the enclosing scope
  // for `owner_slot`.
  StageResult RunStages(Lane& lane, Chain& chain, net::Packet& packet,
                        overlay::PacketContext& ctx, Nanos stage_start,
                        uint32_t trace_id, FlowCacheMint* mint,
                        uint32_t owner_slot);

  // Replays a cached entry instead of walking the chain: applies the cached
  // header rewrite at its recorded chain position (re-parsing in place) and
  // runs the observer stages flagged in the entry's bitmask, so stateful
  // stages see hit packets exactly as they would on a miss. Returns the
  // overlay instructions the observers executed.
  uint32_t ReplayFastPath(const FlowCacheEntry& entry,
                          const std::vector<PipelineStage*>& stages,
                          net::Packet& packet, overlay::PacketContext& ctx);

  // The TX datapath for one descriptor: DMA fetch, pipeline, chain, then
  // the qdisc. `entry` is the flow-table entry for conn_id (nullable; the
  // doorbell consumer hoists it per burst).
  void ProcessTxDescriptor(net::PacketPtr packet, net::ConnectionId conn_id,
                           FlowEntry* entry, Nanos now, Lane& lane);
  void ConsumeTxRing(net::ConnectionId conn_id);
  // The RX datapath body (pipeline → chain → DMA → ring push → notify) for
  // one frame that ingress already parsed and steered to `lane`. `entry`
  // is the frame's flow-table match (nullable).
  void ProcessRxFrame(Lane& lane, net::PacketPtr packet, FlowEntry* entry,
                      Nanos now);
  // Flow-table match for a parsed inbound frame (null when unmatched).
  FlowEntry* InboundEntry(const net::Packet& packet);
  // Batched lane drains: pop up to kLaneDrainBatch frames through the span
  // APIs and run them through the lane's resources; re-arm via the
  // simulator's lane-interleave schedule while frames remain.
  void DrainRxLane(uint16_t queue);
  void DrainTxLane(uint16_t queue);
  // TX lane for a flow: the seeded RSS hash of its TX tuple, so a flow's
  // two directions land on deterministic (generally matching) lanes.
  uint16_t TxLaneOf(const FlowEntry* entry) const;
  void DrainWire();
  void ScheduleDrain(Nanos when);
  void EmitToWire(net::PacketPtr packet);
  void PostNotification(const FlowEntry& entry, NotificationKind kind,
                        Nanos now, uint16_t queue = 0);

  sim::Simulator* sim_;
  Options options_;

  RegisterFile regs_;
  PrivilegedMmio priv_mmio_{&regs_};
  SramAllocator sram_;
  DdioModel ddio_;
  RssEngine rss_;

  // Aggregate occupancy gauges for every bounded queue on the device
  // ("queue.nic.*"). Declared before flow_table_/notif_queues_ so they
  // outlive the queues whose destructors settle them.
  telemetry::QueueDepthGauges tx_ring_gauges_;
  telemetry::QueueDepthGauges rx_ring_gauges_;
  telemetry::QueueDepthGauges notify_gauges_;
  telemetry::QueueDepthGauges qdisc_gauges_;
  telemetry::QueueDepthGauges sram_gauges_;
  // Per-queue lane ring gauges ("queue.nic.{tx,rx}_ring.q<N>"), registered
  // eagerly for every possible lane in the ctor so the metric manifest is
  // shape-stable whether or not a run shards — and so watchdog queue-stall
  // rules can bind per lane. Declared before lanes_ (ring destructors
  // settle into these).
  std::vector<telemetry::QueueDepthGauges> lane_tx_gauges_;
  std::vector<telemetry::QueueDepthGauges> lane_rx_gauges_;
  // Tenant cycle shares + per-tenant metric bundles. Declared before
  // flow_cache_/top_talkers_: their destructors refund tenant-attributed
  // SRAM, which reports back into this table's gauges.
  TenantTable tenant_table_;
  // Declared after sram_ so their destructors (which refund SRAM) run
  // first.
  FlowCache flow_cache_;
  std::unique_ptr<TopTalkers> top_talkers_;

  // One record per live connection; each entry owns its ring pair.
  FlowTable flow_table_;
  std::unordered_map<uint32_t, std::unique_ptr<NotificationQueue>>
      notif_queues_;

  Chain tx_{"nic.tx", "tx.pipeline"};
  Chain rx_{"nic.rx", "rx.pipeline"};
  std::unique_ptr<Scheduler> scheduler_;

  struct SlotState {
    std::optional<overlay::DecodedProgram> program;  // empty slot: nullopt
    uint64_t generation = 0;
  };
  std::array<SlotState, kNumOverlaySlots> overlay_slots_;

  sim::Resource wire_{"nic.wire"};

  // Lane 0 from construction; EnableSharding appends the rest. unique_ptr:
  // Lane owns resources whose registered busy-callbacks capture their
  // address.
  std::vector<std::unique_ptr<Lane>> lanes_;

  // ---- Cycle attribution (telemetry::Profiler, owned by the simulator) --
  telemetry::Profiler* prof_;
  uint32_t prof_core_wire_ = 0;
  telemetry::ProfSite prof_wire_site_{"nic.wire"};

  std::function<void(net::PacketPtr)> wire_sink_;
  std::function<void(net::PacketPtr, net::Direction)> fallback_sink_;

  bool control_plane_taken_ = false;
  bool drain_scheduled_ = false;
  // NIC-side fault state (driven through the ControlPlane / MMIO).
  uint64_t fault_sram_pressure_ = 0;
  bool notify_stalled_ = false;
  std::vector<std::pair<uint32_t, Notification>> stalled_notifications_;
  telemetry::Gauge* fault_sram_pressure_gauge_;    // bytes held hostage
  telemetry::Gauge* fault_notify_stall_gauge_;     // 1 while stalled
  telemetry::Counter* fault_notify_deferred_;      // completions held back
  NicStats stats_;  // registered in sim_->metrics(); see ctor
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_SMART_NIC_H_
