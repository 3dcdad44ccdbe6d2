#include "src/nic/smart_nic.h"

#include <span>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/prefetch.h"
#include "src/net/frame_checksum.h"
#include "src/net/packet_builder.h"
#include "src/nic/fifo_scheduler.h"

namespace norman::nic {

namespace {

// Stages returning kDrop without tagging a reason (custom test stages,
// overlay verdicts) are attributed to the policy bucket so every drop
// still lands in exactly one reason counter.
DropReason NormalizeDropReason(DropReason reason) {
  return reason == DropReason::kNone ? DropReason::kPolicy : reason;
}

}  // namespace

// The tenant table sizes its per-lane horizons to the NIC's lane bound.
static_assert(TenantTable::kMaxLanes == SmartNic::kMaxShardQueues,
              "TenantTable lane bound must match the NIC's");

NicStats::NicStats(telemetry::MetricsRegistry* registry) {
  tx_seen_ = registry->GetCounter("nic.tx.seen");
  tx_accepted_ = registry->GetCounter("nic.tx.accepted");
  tx_fallback_ = registry->GetCounter("nic.tx.fallback");
  tx_bytes_wire_ = registry->GetCounter("nic.tx.bytes_wire");
  rx_seen_ = registry->GetCounter("nic.rx.seen");
  rx_accepted_ = registry->GetCounter("nic.rx.accepted");
  rx_fallback_ = registry->GetCounter("nic.rx.fallback");
  rx_unmatched_ = registry->GetCounter("nic.rx.unmatched");
  dma_transfers_ = registry->GetCounter("nic.dma.transfers");
  overlay_instructions_ = registry->GetCounter("nic.overlay.instructions");
  // Register every reason eagerly (slot 0 / kNone stays null): the metric
  // inventory is shape-stable whether or not a reason fired, which is what
  // lets CI diff it against the checked-in manifest.
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    const std::string suffix(DropReasonName(static_cast<DropReason>(r)));
    tx_drop_[r] = registry->GetCounter("nic.tx.drop." + suffix);
    rx_drop_[r] = registry->GetCounter("nic.rx.drop." + suffix);
  }
}

// Scheduler-side reasons are accounted under tx_sched_dropped() /
// rx_ring_overflow(), not the pipeline-verdict aggregates.
uint64_t NicStats::tx_dropped() const {
  uint64_t sum = 0;
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    const auto reason = static_cast<DropReason>(r);
    if (reason == DropReason::kSchedOverflow ||
        reason == DropReason::kRateLimited ||
        reason == DropReason::kRingFull) {
      continue;
    }
    sum += tx_drop_[r]->value();
  }
  return sum;
}

uint64_t NicStats::rx_dropped() const {
  uint64_t sum = 0;
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    const auto reason = static_cast<DropReason>(r);
    if (reason == DropReason::kSchedOverflow ||
        reason == DropReason::kRateLimited ||
        reason == DropReason::kRingFull) {
      continue;
    }
    sum += rx_drop_[r]->value();
  }
  return sum;
}

uint64_t NicStats::total_drops() const {
  uint64_t sum = 0;
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    sum += tx_drop_[r]->value() + rx_drop_[r]->value();
  }
  return sum;
}

std::vector<NicStats::DropRecord> NicStats::DropLedger() const {
  std::vector<DropRecord> out;
  out.reserve(ledger_.size());
  for (const auto& [key, count] : ledger_) {
    out.push_back(DropRecord{static_cast<net::Direction>(std::get<0>(key)),
                             static_cast<DropReason>(std::get<1>(key)),
                             std::get<2>(key), count});
  }
  return out;
}

void NicStats::RecordDrop(net::Direction dir, DropReason reason,
                          uint32_t owner_pid, uint32_t tp_core,
                          uint32_t tenant) {
  const auto r = static_cast<size_t>(reason);
  NORMAN_CHECK(r > 0 && r < kNumDropReasons);
  (dir == net::Direction::kTx ? tx_drop_ : rx_drop_)[r]->Increment();
  ++ledger_[{static_cast<uint8_t>(dir), static_cast<uint8_t>(reason),
             owner_pid}];
  if (prof_ != nullptr && prof_->enabled()) {
    prof_->CountDrop(prof_->OwnerSlot(owner_pid));
  }
  if (tenants_ != nullptr && tenant != 0) {
    tenants_->CountDrop(tenant);
  }
  if (tp_ != nullptr) {
    // Every drop class routes through here (single choke point), so this
    // one emit covers the qdisc/rate-limit, ring-full and generic drop
    // probes; the reason rides in a0 for trigger matching.
    using telemetry::Probe;
    const Probe probe =
        reason == DropReason::kSchedOverflow ||
                reason == DropReason::kRateLimited
            ? Probe::kQdiscDrop
            : reason == DropReason::kRingFull ? Probe::kRingFull
                                              : Probe::kNicDrop;
    const telemetry::TraceFlow flow{
        .dir = dir == net::Direction::kTx ? telemetry::kDirTx
                                          : telemetry::kDirRx};
    tp_->Emit(probe, tp_core, owner_pid, static_cast<uint64_t>(reason),
              static_cast<uint64_t>(flow.dir), 0, &flow);
  }
}

void NicStats::Reset() {
  tx_seen_->Reset();
  tx_accepted_->Reset();
  tx_fallback_->Reset();
  tx_bytes_wire_->Reset();
  rx_seen_->Reset();
  rx_accepted_->Reset();
  rx_fallback_->Reset();
  rx_unmatched_->Reset();
  dma_transfers_->Reset();
  overlay_instructions_->Reset();
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    tx_drop_[r]->Reset();
    rx_drop_[r]->Reset();
  }
  ledger_.clear();
}

SmartNic::SmartNic(sim::Simulator* sim, Options options)
    : sim_(sim),
      options_(options),
      sram_(options.sram_bytes),
      tx_ring_gauges_(&sim->metrics(), "nic.tx_ring"),
      rx_ring_gauges_(&sim->metrics(), "nic.rx_ring"),
      notify_gauges_(&sim->metrics(), "nic.notify"),
      qdisc_gauges_(&sim->metrics(), "nic.qdisc"),
      sram_gauges_(&sim->metrics(), "nic.sram"),
      // Constructed even when never enabled so the "fastpath.*" metric
      // inventory is shape-stable (the manifest CI diffs does not depend on
      // which features a run turned on).
      tenant_table_(&sim->metrics()),
      flow_cache_(&sram_, &sim->metrics()),
      flow_table_(&sram_),
      scheduler_(std::make_unique<FifoScheduler>()),
      prof_(&sim->profiler()),
      stats_(&sim->metrics()) {
  sram_.AttachGauges(&sram_gauges_);
  // Attribution cores: the profiler reads each resource's busy time at
  // export, and the conservation invariant holds per core. Registration is
  // unconditional (like metric registration) so inventories never depend
  // on whether a run enabled profiling. Each lane registers its own three
  // cores (AddLane below).
  prof_core_wire_ = prof_->RegisterCore(
      "nic.wire", telemetry::Profiler::CoreKind::kNic,
      [this] { return wire_.busy_ns(); });
  stats_.AttachProfiler(prof_);
  stats_.AttachTenants(&tenant_table_);
  // Tenant-attributed SRAM usage flows into tenant.<id>.sram_bytes as it
  // changes, so the sampler and quota dashboards track it continuously.
  sram_.SetTenantObserver([this](uint32_t tenant, uint64_t used) {
    tenant_table_.SetSramBytes(tenant, used);
  });
  // Probe-point hookup mirrors the profiler's: attachment is unconditional
  // and cold; disarmed probes stay a single branch on the emit path.
  stats_.AttachTracepoints(&sim->tracepoints());
  sram_.AttachTracepoints(&sim->tracepoints());
  flow_cache_.AttachTracepoints(&sim->tracepoints());
  // RSS steering/rebalance counters and the per-queue lane ring gauges are
  // registered eagerly for every possible lane — like the drop reasons
  // above, the manifest must not depend on whether a run shards.
  rss_.AttachMetrics(&sim->metrics());
  lane_tx_gauges_.reserve(kMaxShardQueues);
  lane_rx_gauges_.reserve(kMaxShardQueues);
  for (uint16_t q = 0; q < kMaxShardQueues; ++q) {
    lane_tx_gauges_.emplace_back(&sim->metrics(),
                                 "nic.tx_ring.q" + std::to_string(q));
    lane_rx_gauges_.emplace_back(&sim->metrics(),
                                 "nic.rx_ring.q" + std::to_string(q));
  }
  AddLane();
  // NIC-side fault instrumentation, eagerly registered so the metric
  // manifest is shape-stable whether or not a chaos campaign ever runs.
  fault_sram_pressure_gauge_ = sim->metrics().GetGauge(
      "fault.nic.sram_pressure_bytes");
  fault_notify_stall_gauge_ = sim->metrics().GetGauge(
      "fault.nic.notify_stalled");
  fault_notify_deferred_ = sim->metrics().GetCounter(
      "fault.nic.notify_deferred");
}

SmartNic::~SmartNic() = default;

std::unique_ptr<SmartNic::ControlPlane> SmartNic::TakeControlPlane() {
  if (control_plane_taken_) {
    return nullptr;
  }
  control_plane_taken_ = true;
  return std::unique_ptr<ControlPlane>(new ControlPlane(this));
}

// ---- ControlPlane ----------------------------------------------------------

Status SmartNic::ControlPlane::InstallFlow(FlowEntry entry) {
  NORMAN_ASSIGN_OR_RETURN(FlowEntry* installed,
                          nic_->flow_table_.Insert(std::move(entry)));
  // Ring descriptor state also lives in NIC SRAM.
  const uint32_t owner_pid = installed->owner.owner_pid;
  const Status s = nic_->sram_.Allocate("ring_state", kRingStateBytes,
                                        owner_pid,
                                        installed->owner.owner_tenant);
  if (!s.ok()) {
    (void)nic_->flow_table_.Remove(installed->conn_id);
    return s;
  }
  installed->rings = std::make_unique<RingPair>(nic_->options_.ring_entries);
  installed->rings->AttachGauges(&nic_->tx_ring_gauges_,
                                 &nic_->rx_ring_gauges_);
  // Intern the owner pid (ungated: slot numbering does not depend on the
  // profiler's runtime flag) and bill the flow's SRAM footprint — table
  // entry + ring descriptor state — to its ledger.
  const uint32_t owner_slot = nic_->prof_->RegisterOwner(owner_pid);
  nic_->prof_->ChargeSram(owner_slot,
                          static_cast<int64_t>(kFlowEntryBytes +
                                               kRingStateBytes));
  InvalidateFastPath();
  return OkStatus();
}

Status SmartNic::ControlPlane::RemoveFlow(net::ConnectionId conn_id) {
  NORMAN_ASSIGN_OR_RETURN(const overlay::ConnMetadata owner,
                          nic_->flow_table_.Remove(conn_id));
  nic_->prof_->ChargeSram(nic_->prof_->OwnerSlot(owner.owner_pid),
                          -static_cast<int64_t>(kFlowEntryBytes +
                                                kRingStateBytes));
  nic_->regs_.ClearDoorbell(conn_id);
  nic_->sram_.Free("ring_state", kRingStateBytes, owner.owner_tenant);
  nic_->ddio_.Invalidate(TxRingId(conn_id));
  nic_->ddio_.Invalidate(RxRingId(conn_id));
  InvalidateFastPath();
  return OkStatus();
}

FlowEntry* SmartNic::ControlPlane::LookupFlow(net::ConnectionId conn_id) {
  return nic_->flow_table_.Lookup(conn_id);
}

RingPair* SmartNic::ControlPlane::GetRings(net::ConnectionId conn_id) {
  const FlowEntry* entry = nic_->flow_table_.Lookup(conn_id);
  return entry == nullptr ? nullptr : entry->rings.get();
}

DoorbellWindow SmartNic::ControlPlane::MapDoorbell(net::ConnectionId conn_id) {
  return DoorbellWindow(&nic_->regs_, conn_id);
}

void SmartNic::ControlPlane::AddTxStage(PipelineStage* stage) {
  nic_->tx_.Add(stage);
  InvalidateFastPath();
}

void SmartNic::ControlPlane::AddRxStage(PipelineStage* stage) {
  nic_->rx_.Add(stage);
  InvalidateFastPath();
}

void SmartNic::ControlPlane::ClearStages() {
  nic_->tx_.Clear();
  nic_->rx_.Clear();
  InvalidateFastPath();
}

Status SmartNic::ControlPlane::SetScheduler(
    std::unique_ptr<Scheduler> scheduler) {
  if (scheduler == nullptr) {
    return InvalidArgumentError("scheduler must not be null");
  }
  if (nic_->scheduler_ != nullptr &&
      nic_->scheduler_->backlog_packets() > 0) {
    return FailedPreconditionError(
        "cannot swap scheduler with packets in flight");
  }
  nic_->scheduler_ = std::move(scheduler);
  InvalidateFastPath();
  return OkStatus();
}

StatusOr<Nanos> SmartNic::ControlPlane::LoadOverlay(
    size_t slot, const overlay::Program& program) {
  if (slot >= kNumOverlaySlots) {
    return InvalidArgumentError("overlay slot out of range");
  }
  NORMAN_ASSIGN_OR_RETURN(overlay::DecodedProgram decoded,
                          overlay::DecodedProgram::Decode(program));
  const auto& cost = nic_->options_.cost;
  const Nanos load_time =
      static_cast<Nanos>(program.size()) * cost.overlay_load_per_instr_ns +
      cost.overlay_activate_ns;
  nic_->overlay_slots_[slot].program = std::move(decoded);
  ++nic_->overlay_slots_[slot].generation;
  InvalidateFastPath();
  return load_time;
}

const overlay::DecodedProgram* SmartNic::ControlPlane::OverlaySlot(
    size_t slot) const {
  if (slot >= kNumOverlaySlots ||
      !nic_->overlay_slots_[slot].program.has_value()) {
    return nullptr;
  }
  return &*nic_->overlay_slots_[slot].program;
}

uint64_t SmartNic::ControlPlane::overlay_generation(size_t slot) const {
  return slot < kNumOverlaySlots ? nic_->overlay_slots_[slot].generation : 0;
}

Nanos SmartNic::ControlPlane::ReloadBitstream() {
  // A bitstream reload wipes loaded overlay programs — "the equivalent to
  // upgrading the kernel itself" (§4.4).
  for (auto& slot : nic_->overlay_slots_) {
    slot.program.reset();
    ++slot.generation;
  }
  InvalidateFastPath();
  return nic_->options_.cost.bitstream_reload_ns;
}

NotificationQueue* SmartNic::ControlPlane::RegisterNotificationQueue(
    uint32_t pid) {
  auto& q = nic_->notif_queues_[pid];
  if (q == nullptr) {
    q = std::make_unique<NotificationQueue>();
    q->AttachGauges(&nic_->notify_gauges_);
  }
  return q.get();
}

TopTalkers* SmartNic::ControlPlane::EnableTopTalkers(size_t max_entries) {
  nic_->top_talkers_ = std::make_unique<TopTalkers>(
      &nic_->sram_, &nic_->sim_->metrics(), max_entries);
  return nic_->top_talkers_.get();
}

FlowCache* SmartNic::ControlPlane::EnableFlowCache(size_t max_entries) {
  nic_->flow_cache_.Enable(max_entries);
  return &nic_->flow_cache_;
}

void SmartNic::ControlPlane::DisableFlowCache() {
  nic_->flow_cache_.Disable();
}

void SmartNic::ControlPlane::InvalidateFastPath() {
  nic_->flow_cache_.Invalidate();
}

Status SmartNic::ControlPlane::EnableSharding(uint16_t num_queues) {
  if (num_queues == 0 || num_queues > kMaxShardQueues) {
    return InvalidArgumentError(
        "shard queue count must be in [1, " +
        std::to_string(kMaxShardQueues) + "], got " +
        std::to_string(num_queues));
  }
  if (nic_->lanes_.size() > 1) {
    return FailedPreconditionError(
        "dataplane already sharded; re-sharding a live dataplane would "
        "orphan in-flight lane state");
  }
  if (num_queues == 1) {
    return OkStatus();  // lane 0 exists from construction
  }
  nic_->rss_.SetNumQueues(num_queues);
  nic_->flow_cache_.SetPartitions(num_queues);
  nic_->sim_->set_num_lanes(num_queues);
  while (nic_->lanes_.size() < num_queues) {
    nic_->AddLane();
  }
  // Entries minted before sharding sat in the single partition;
  // SetPartitions flushed them, and the epoch bump below covers any caller
  // holding a stale pointer across this call.
  InvalidateFastPath();
  return OkStatus();
}

Status SmartNic::ControlPlane::SetRssIndirection(size_t index,
                                                 uint16_t queue) {
  const uint16_t old_queue = nic_->rss_.indirection(index);
  NORMAN_RETURN_IF_ERROR(nic_->rss_.SetIndirection(index, queue));
  if (nic_->flow_cache_.partitions() > 1 && old_queue != queue) {
    // Flows hashing to this slot migrate lanes mid-flight: cached verdicts
    // on both sides of the migration must re-walk the chain on their next
    // packet (each lane's SRAM segment is charged separately, and observer
    // state replays in per-lane order).
    if (old_queue < nic_->flow_cache_.partitions()) {
      nic_->flow_cache_.InvalidatePartition(old_queue);
    }
    if (queue < nic_->flow_cache_.partitions()) {
      nic_->flow_cache_.InvalidatePartition(queue);
    }
  }
  return OkStatus();
}

void SmartNic::AddLane() {
  const auto q = static_cast<uint16_t>(lanes_.size());
  auto lane = std::make_unique<Lane>(q, options_.lane_ring_entries);
  lane->rings.AttachGauges(&lane_tx_gauges_[q], &lane_rx_gauges_[q]);
  Lane* raw = lane.get();
  using telemetry::Profiler;
  lane->core_pipe =
      prof_->RegisterCore(raw->pipeline.name(), Profiler::CoreKind::kNic,
                          [raw] { return raw->pipeline.busy_ns(); });
  lane->core_stages =
      prof_->RegisterCore(raw->stages.name(), Profiler::CoreKind::kNic,
                          [raw] { return raw->stages.busy_ns(); });
  lane->core_dma =
      prof_->RegisterCore(raw->dma.name(), Profiler::CoreKind::kNic,
                          [raw] { return raw->dma.busy_ns(); });
  lanes_.push_back(std::move(lane));
}

uint32_t SmartNic::TpCore(const Lane& lane) const {
  return lanes_.size() == 1 ? telemetry::Tracepoints::kCoreNic
                            : telemetry::Tracepoints::kCoreLaneBase +
                                  lane.index;
}

double SmartNic::MeanLaneUtilization(sim::Resource Lane::*resource,
                                     Nanos horizon) const {
  double sum = 0;
  for (const auto& lane : lanes_) {
    sum += ((*lane).*resource).Utilization(horizon);
  }
  return sum / static_cast<double>(lanes_.size());
}

uint16_t SmartNic::TxLaneOf(const FlowEntry* entry) const {
  if (entry == nullptr) {
    return 0;
  }
  return static_cast<uint16_t>(rss_.Hash(entry->tuple) % lanes_.size());
}

NotificationQueue* SmartNic::ControlPlane::GetNotificationQueue(
    uint32_t pid) {
  const auto it = nic_->notif_queues_.find(pid);
  return it == nic_->notif_queues_.end() ? nullptr : it->second.get();
}

void SmartNic::ControlPlane::ReleaseNotificationQueue(uint32_t pid) {
  nic_->notif_queues_.erase(pid);
}

void SmartNic::ControlPlane::SetFallbackSink(
    std::function<void(net::PacketPtr, net::Direction)> sink) {
  nic_->fallback_sink_ = std::move(sink);
}

void SmartNic::ControlPlane::ConfigureTenant(uint32_t tenant,
                                             uint32_t cycle_weight,
                                             uint64_t sram_quota_bytes) {
  nic_->tenant_table_.Configure(tenant, cycle_weight);
  if (sram_quota_bytes > 0) {
    nic_->sram_.SetTenantQuota(tenant, sram_quota_bytes);
  } else {
    nic_->sram_.ClearTenantQuota(tenant);
  }
}

void SmartNic::ControlPlane::RemoveTenant(uint32_t tenant) {
  nic_->tenant_table_.Remove(tenant);
  nic_->sram_.ClearTenantQuota(tenant);
}

void SmartNic::ControlPlane::SetTenantIsolation(bool on) {
  nic_->tenant_table_.SetEnabled(on);
}

// ---- Datapath ---------------------------------------------------------------

overlay::PacketContext SmartNic::MakeContext(const net::Packet& packet,
                                             const net::ParsedPacket* parsed,
                                             const FlowEntry* entry,
                                             net::Direction dir) const {
  overlay::PacketContext ctx;
  ctx.frame = packet.bytes();
  ctx.parsed = parsed;
  ctx.direction = dir;
  if (entry != nullptr) {
    ctx.conn = entry->owner;
  }
  return ctx;
}

namespace {

// True when `to` is `from` with only the source (resp. destination)
// endpoint rewritten — the one transform shape the flow cache can replay.
bool IsSourceRewrite(const net::FiveTuple& from, const net::FiveTuple& to) {
  return from.proto == to.proto && from.dst_ip == to.dst_ip &&
         from.dst_port == to.dst_port &&
         (from.src_ip != to.src_ip || from.src_port != to.src_port);
}

bool IsDestinationRewrite(const net::FiveTuple& from,
                          const net::FiveTuple& to) {
  return from.proto == to.proto && from.src_ip == to.src_ip &&
         from.src_port == to.src_port &&
         (from.dst_ip != to.dst_ip || from.dst_port != to.dst_port);
}

}  // namespace

Nanos SmartNic::ServePipeline(Lane& lane, Chain& chain, uint32_t tenant,
                              Nanos arrival, uint32_t owner_slot,
                              uint32_t trace_id) {
  const Nanos pipe_cost = options_.cost.NicPipelineOccupancy();
  Nanos pipe_done;
  if (tenant_table_.Gated(tenant)) {
    const Nanos start =
        tenant_table_.Admit(tenant, lane.index, arrival, pipe_cost);
    lane.pipeline.AddBusy(pipe_cost);
    pipe_done = start + pipe_cost;
  } else {
    pipe_done = lane.pipeline.Serve(arrival, pipe_cost);
  }
  prof_->Charge(chain.pipeline_site, lane.core_pipe, owner_slot, pipe_cost);
  sim_->tracepoints().Span(trace_id, chain.pipeline_span, arrival, pipe_done,
                           TpCore(lane));
  return pipe_done;
}

SmartNic::ChainOutcome SmartNic::ResolveChain(
    Lane& lane, Chain& chain, net::Packet& packet,
    overlay::PacketContext& ctx, const std::optional<FlowCacheKey>& key,
    Nanos start, uint32_t trace_id, uint32_t owner_slot) {
  const sim::CostModel& cost = options_.cost;
  if (key) {
    if (const FlowCacheEntry* e = flow_cache_.Lookup(*key, lane.index)) {
      // One exact-match lookup replays the whole chain's verdict.
      telemetry::ProfScope fp_scope(prof_, chain.fastpath_site);
      const uint32_t observer_instructions =
          ReplayFastPath(*e, chain.stages, packet, ctx);
      stats_.overlay_instructions_->Increment(e->pure_instructions +
                                              observer_instructions);
      const Nanos fp_cost =
          cost.flow_cache_hit_ns +
          static_cast<Nanos>(observer_instructions) * cost.overlay_instr_ns;
      lane.stages.AddBusy(fp_cost);
      prof_->ChargeCurrent(lane.core_stages, owner_slot, fp_cost);
      const Nanos done = start + fp_cost;
      sim_->tracepoints().Span(trace_id, "fastpath", start, done,
                               TpCore(lane));
      return {static_cast<Verdict>(e->verdict), e->drop_reason, done};
    }
  }
  telemetry::ProfScope stages_scope(prof_, chain.stages_site);
  FlowCacheMint mint;
  const StageResult result = RunStages(lane, chain, packet, ctx, start,
                                       trace_id, key ? &mint : nullptr,
                                       owner_slot);
  stats_.overlay_instructions_->Increment(result.overlay_instructions);
  const Nanos done =
      start +
      static_cast<Nanos>(chain.stages.size()) * cost.nic_stage_latency_ns +
      static_cast<Nanos>(result.overlay_instructions) * cost.overlay_instr_ns;
  if (key) {
    // Fallback verdicts are never cached: the TX divert-loop rule depends
    // on per-packet state the cache cannot see.
    if (mint.cacheable && result.verdict != Verdict::kSoftwareFallback) {
      mint.entry.verdict = static_cast<uint8_t>(result.verdict);
      mint.entry.drop_reason = result.drop_reason;
      mint.entry.tenant = ctx.conn.owner_tenant;
      flow_cache_.Insert(*key, mint.entry, lane.index);
    } else {
      flow_cache_.RecordUncacheable();
    }
  }
  return {result.verdict, result.drop_reason, done};
}

StageResult SmartNic::RunStages(Lane& lane, Chain& chain, net::Packet& packet,
                                overlay::PacketContext& ctx,
                                Nanos stage_start, uint32_t trace_id,
                                FlowCacheMint* mint, uint32_t owner_slot) {
  const std::vector<PipelineStage*>& stages = chain.stages;
  StageResult aggregate;
  for (size_t i = 0; i < stages.size(); ++i) {
    PipelineStage* stage = stages[i];
    // Capture the pre-stage flow before a mutation invalidates the parse.
    std::optional<net::FiveTuple> pre_flow;
    if (mint != nullptr && ctx.parsed != nullptr) {
      pre_flow = ctx.parsed->flow();
    }
    const StageResult r = stage->Process(packet, ctx);
    aggregate.overlay_instructions += r.overlay_instructions;
    if (r.mutated) {
      // The stage rewrote the frame (NAT): refresh the single-pass parse so
      // downstream stages and the scheduler see the new headers. This is
      // the only re-parse on the whole datapath.
      packet.SetParsed(net::ParseFrame(packet.bytes()));
      ctx.parsed = packet.parsed();
      ctx.frame = packet.bytes();
    }
    if (mint != nullptr && mint->cacheable) {
      switch (stage->cache_class()) {
        case StageCacheClass::kPure:
          // Skipped entirely on hits; its instruction cost is replayed from
          // the entry so aggregate accounting matches a full walk.
          mint->entry.pure_instructions += r.overlay_instructions;
          break;
        case StageCacheClass::kObserver:
          // Observers re-run on every hit. They must behave as observers:
          // accept-only, frame untouched, and within the bitmask's width.
          if (r.mutated || r.verdict != Verdict::kAccept || i >= 32) {
            mint->cacheable = false;
          } else {
            mint->entry.observer_mask |= uint32_t{1} << i;
          }
          break;
        case StageCacheClass::kUncacheable:
          mint->cacheable = false;
          break;
      }
      if (r.mutated && mint->cacheable) {
        // Summarize the mutation as a cached header transform. Anything but
        // a single plain src/dst endpoint rewrite is beyond replay.
        std::optional<net::FiveTuple> post_flow;
        if (ctx.parsed != nullptr) post_flow = ctx.parsed->flow();
        if (!pre_flow || !post_flow ||
            mint->entry.rewrite_kind != RewriteKind::kNone) {
          mint->cacheable = false;
        } else if (IsSourceRewrite(*pre_flow, *post_flow)) {
          mint->entry.rewrite_stage = static_cast<int16_t>(i);
          mint->entry.rewrite_kind = RewriteKind::kSource;
          mint->entry.rewrite_ip = post_flow->src_ip;
          mint->entry.rewrite_port = post_flow->src_port;
        } else if (IsDestinationRewrite(*pre_flow, *post_flow)) {
          mint->entry.rewrite_stage = static_cast<int16_t>(i);
          mint->entry.rewrite_kind = RewriteKind::kDestination;
          mint->entry.rewrite_ip = post_flow->dst_ip;
          mint->entry.rewrite_port = post_flow->dst_port;
        } else {
          mint->cacheable = false;
        }
      }
    }
    // Each executed stage occupies stage latency plus its own overlay
    // instructions. The stage engine accrues exactly this (conservation
    // ground truth) and, when profiling, the same amount lands on the
    // stage's attribution node for the owning process.
    const Nanos stage_cost =
        options_.cost.nic_stage_latency_ns +
        static_cast<Nanos>(r.overlay_instructions) *
            options_.cost.overlay_instr_ns;
    lane.stages.AddBusy(stage_cost);
    prof_->Charge(chain.stage_sites[i], lane.core_stages, owner_slot,
                  stage_cost);
    if (trace_id != 0) {
      // Spans are laid end to end from `stage_start` so the chain tiles
      // exactly onto the cost model's stage window.
      const Nanos span_end = stage_start + stage_cost;
      sim_->tracepoints().Span(trace_id, stage->name(), stage_start,
                               span_end, TpCore(lane));
      stage_start = span_end;
    }
    if (r.verdict != Verdict::kAccept) {
      aggregate.verdict = r.verdict;
      aggregate.drop_reason = r.drop_reason;
      return aggregate;
    }
  }
  return aggregate;
}

uint32_t SmartNic::ReplayFastPath(const FlowCacheEntry& entry,
                                  const std::vector<PipelineStage*>& stages,
                                  net::Packet& packet,
                                  overlay::PacketContext& ctx) {
  uint32_t observer_instructions = 0;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (static_cast<int16_t>(i) == entry.rewrite_stage) {
      // Apply the cached transform exactly where the mutating stage sat, so
      // observers after it see the rewritten frame just as on a miss.
      if (entry.rewrite_kind == RewriteKind::kSource) {
        net::RewriteSource(packet.mutable_bytes(), entry.rewrite_ip,
                           entry.rewrite_port);
      } else if (entry.rewrite_kind == RewriteKind::kDestination) {
        net::RewriteDestination(packet.mutable_bytes(), entry.rewrite_ip,
                                entry.rewrite_port);
      }
      packet.SetParsed(net::ParseFrame(packet.bytes()));
      ctx.parsed = packet.parsed();
      ctx.frame = packet.bytes();
    }
    if ((entry.observer_mask >> i) & 1u) {
      observer_instructions +=
          stages[i]->Process(packet, ctx).overlay_instructions;
    }
  }
  return observer_instructions;
}

Status SmartNic::Doorbell(net::ConnectionId conn_id, Nanos now) {
  const FlowEntry* entry = flow_table_.Lookup(conn_id);
  if (entry == nullptr) {
    return NotFoundError("doorbell for unknown connection");
  }
  // The doorbell write starts (or pokes) this connection's descriptor
  // consumer; fetches are paced by the DMA engine, so an application that
  // outruns the NIC observes a full TX ring (backpressure).
  RingPair& ring = *entry->rings;
  if (!ring.tx_consumer_active()) {
    ring.set_tx_consumer_active(true);
    // The consumer event carries the flow's TX lane so the interleave
    // schedule orders same-tick wake-ups across lanes.
    sim_->ScheduleAtLane(TxLaneOf(entry), std::max(now, sim_->Now()),
                         [this, conn_id] { ConsumeTxRing(conn_id); });
  }
  return OkStatus();
}

void SmartNic::ConsumeTxRing(net::ConnectionId conn_id) {
  // Batched descriptor fetch: each iteration is exactly one old-style
  // consumer wake-up at virtual time `now`. The loop continues inline only
  // when the simulator has nothing scheduled at or before the next fetch
  // time — i.e. the re-arm event would have been the very next event to
  // run — so eliding it cannot reorder resource serialization and the
  // virtual-time trace stays bit-identical to unbatched execution.
  Nanos now = sim_->Now();
  // Hoisted per burst: no other event can run between inline iterations
  // (the continuation check above guarantees it) and nothing below installs
  // a flow, so the entry and its ring cannot be torn down, replaced or moved
  // mid-burst.
  FlowEntry* entry = flow_table_.Lookup(conn_id);
  if (entry == nullptr) {
    return;  // torn down: the consumer flag died with the ring
  }
  RingPair* ring = entry->rings.get();
  FixedRing<net::PacketPtr>& tx = ring->tx();
  // A burst serves one connection, so its lane — and therefore the
  // resource set every descriptor charges — is fixed for the whole pass.
  Lane& lane = *lanes_[TxLaneOf(entry)];
  for (uint32_t fetched = 0;;) {
    auto pkt = tx.TryPop();
    if (!pkt.has_value()) {
      // Ring drained: stop the consumer and post the drain notification if
      // the connection asked for it (blocking send support, §4.3).
      ring->set_tx_consumer_active(false);
      if (entry->notify_tx_drain) {
        PostNotification(*entry, NotificationKind::kTxDrained, now,
                         lane.index);
      }
      return;
    }
    // Warm the next descriptor while this one runs the pipeline.
    if (const net::PacketPtr* next_pkt = tx.Peek();
        next_pkt != nullptr && *next_pkt != nullptr) {
      PrefetchRead(next_pkt->get());
    }
    ProcessTxDescriptor(std::move(*pkt), conn_id, entry, now, lane);
    // Next descriptor fetch when the lane's DMA engine frees up.
    const Nanos next = std::max(lane.dma.next_free(), now + 1);
    if (++fetched >= kTxFetchBatch || sim_->HasEventAtOrBefore(next)) {
      sim_->ScheduleAtLane(lane.index, next,
                           [this, conn_id] { ConsumeTxRing(conn_id); });
      return;
    }
    now = next;
  }
}

void SmartNic::ProcessTxDescriptor(net::PacketPtr packet,
                                   net::ConnectionId conn_id, FlowEntry* entry,
                                   Nanos now, Lane& lane) {
  stats_.tx_seen_->Increment();

  // Attribution context for the whole descriptor: everything below charges
  // under dispatch;nic.tx for the flow's owning pid (resolved through the
  // flow entry the kernel installed — the interposition layer's flow→pid
  // map). Host-injected frames carry their owner in packet metadata.
  telemetry::ProfScope tx_scope(prof_, tx_.scope_site);
  const uint32_t owner_pid = entry != nullptr ? entry->owner.owner_pid
                                              : packet->meta().owner_pid;
  const uint32_t tenant = entry != nullptr ? entry->owner.owner_tenant
                                           : packet->meta().tenant;
  packet->meta().owner_pid = owner_pid;  // for downstream charge points
  packet->meta().tenant = tenant;
  uint32_t owner_slot = 0;
  if (prof_->enabled()) {
    owner_slot = prof_->OwnerSlot(owner_pid);
    prof_->CountPacket(owner_slot, packet->size());
  }

  // Lifecycle tracing: deterministic 1-in-N arrival sampling. A zero id
  // makes every Span() below a no-op; virtual time is never touched.
  const uint32_t trace_id = sim_->tracepoints().SampleArrival();
  const uint32_t tp_core = TpCore(lane);

  // 1) DMA-fetch the payload from the host ring (DDIO hit or DRAM miss).
  const bool ddio_hit = ddio_.Access(TxRingId(conn_id), kHotWorkingSetBytes);
  const Nanos dma_cost = options_.cost.DmaCost(packet->size(), ddio_hit);
  const Nanos dma_done = lane.dma.Serve(now, dma_cost);
  prof_->Charge(tx_.dma_site, lane.core_dma, owner_slot, dma_cost);
  stats_.dma_transfers_->Increment();
  sim_->tracepoints().Span(trace_id, "tx.dma", now, dma_done, tp_core);

  // 2) Pipeline occupancy (line-rate cap), then the chain below.
  const Nanos pipe_done =
      ServePipeline(lane, tx_, tenant, dma_done, owner_slot, trace_id);

  // Single-pass parse: stored on the packet, refreshed only if a stage
  // mutates the frame. Everything downstream reads this copy.
  packet->SetParsed(net::ParseFrame(packet->bytes()));
  overlay::PacketContext ctx = MakeContext(*packet, packet->parsed(), entry,
                                           net::Direction::kTx);
  // Per-flow accounting (norman-top). Pure observation: no events, no cost.
  // Runs on hits and misses alike — top-talkers is stateful like conntrack,
  // just keyed outside the stage chain.
  std::optional<net::FiveTuple> flow;
  if (packet->parsed() != nullptr) {
    flow = packet->parsed()->flow();
  }
  if (top_talkers_ != nullptr && flow) {
    top_talkers_->Record(*flow, ctx.conn.owner_pid,
                         static_cast<uint32_t>(packet->size()), now,
                         ctx.conn.owner_tenant);
  }
  packet->meta().direction = net::Direction::kTx;
  packet->meta().connection = conn_id;
  packet->meta().nic_arrival = now;
  packet->meta().trace_id = trace_id;

  // Re-diverted software-fallback packets bypass the cache: their chain
  // semantics differ (repeat FALLBACK converts to accept, below).
  std::optional<FlowCacheKey> key;
  if (flow_cache_.enabled() && flow && !packet->meta().software_fallback) {
    key = FlowCacheKey{net::Direction::kTx, *flow, conn_id};
  }
  ChainOutcome out = ResolveChain(lane, tx_, *packet, ctx, key, pipe_done,
                                  trace_id, owner_slot);
  // A packet already diverted once (software path) is not diverted again
  // — repeat FALLBACK verdicts pass through, preventing divert loops.
  if (out.verdict == Verdict::kSoftwareFallback &&
      packet->meta().software_fallback) {
    out.verdict = Verdict::kAccept;
  }

  if (entry != nullptr) {
    ++entry->tx_packets;
    entry->tx_bytes += packet->size();
  }

  switch (out.verdict) {
    case Verdict::kDrop:
      stats_.RecordDrop(net::Direction::kTx,
                        NormalizeDropReason(out.drop_reason),
                        ctx.conn.owner_pid, tp_core, ctx.conn.owner_tenant);
      return;
    case Verdict::kSoftwareFallback: {
      stats_.tx_fallback_->Increment();
      packet->meta().software_fallback = true;
      sim_->ScheduleAt(out.done, [this, p = std::move(packet)]() mutable {
        if (fallback_sink_) {
          fallback_sink_(std::move(p), net::Direction::kTx);
        }
      });
      return;
    }
    case Verdict::kAccept:
      break;
  }

  // 3) Hand to the queueing discipline at the time the pipeline finishes,
  // then keep the wire busy. The event carries the lane so same-tick qdisc
  // handoffs across lanes follow the interleave schedule.
  const overlay::ConnMetadata conn_meta = ctx.conn;
  sim_->ScheduleAtLane(
      lane.index, out.done,
      [this, p = std::move(packet), conn_meta, tp_core]() mutable {
    // Rebuild a minimal context for the scheduler (classification inputs).
    // The packet's cached parse is already fresh — RunStages re-parsed in
    // place if (and only if) a stage rewrote the frame — so classifying
    // disciplines read it directly instead of re-parsing.
    overlay::PacketContext sched_ctx;
    sched_ctx.frame = p->bytes();
    sched_ctx.parsed = p->parsed();
    sched_ctx.conn = conn_meta;
    sched_ctx.direction = net::Direction::kTx;
    p->meta().sched_enqueued_at = sim_->Now();
    if (!scheduler_->Enqueue(std::move(p), sched_ctx)) {
      stats_.RecordDrop(net::Direction::kTx, scheduler_->last_drop_reason(),
                        conn_meta.owner_pid, tp_core,
                        conn_meta.owner_tenant);
      return;
    }
    stats_.tx_accepted_->Increment();
    qdisc_gauges_.Set(static_cast<int64_t>(scheduler_->backlog_packets()));
    DrainWire();
  });
}

void SmartNic::InjectHostPacket(net::PacketPtr packet, Nanos now) {
  // Same path as a descriptor fetch; the source "ring" is host kernel
  // memory, which is never DDIO-resident (conn id from metadata, if any).
  if (packet == nullptr) {
    return;
  }
  const net::ConnectionId conn = packet->meta().connection;
  FlowEntry* entry = flow_table_.Lookup(conn);
  const uint16_t q = TxLaneOf(entry);
  Lane& lane = *lanes_[q];
  if (lanes_.size() == 1) {
    // One lane has nothing to interleave with: run the frame inside this
    // event.
    ProcessTxDescriptor(std::move(packet), conn, entry, now, lane);
    return;
  }
  // Several lanes: stage the frame in its lane's TX ring and let the lane's
  // batched drain run it under the interleave schedule, so host-injected
  // traffic charges the same per-core resources as doorbell traffic on
  // that lane.
  const uint32_t owner_pid = packet->meta().owner_pid;
  const uint32_t owner_tenant = packet->meta().tenant;
  if (!lane.rings.tx().TryPush(std::move(packet))) {
    stats_.RecordDrop(net::Direction::kTx, DropReason::kRingFull, owner_pid,
                      TpCore(lane), owner_tenant);
    return;
  }
  if (!lane.tx_drain_scheduled) {
    lane.tx_drain_scheduled = true;
    sim_->ScheduleAtLane(q, std::max(now, sim_->Now()),
                         [this, q] { DrainTxLane(q); });
  }
}

void SmartNic::DrainTxLane(uint16_t queue) {
  Lane& lane = *lanes_[queue];
  lane.tx_drain_scheduled = false;
  const Nanos now = sim_->Now();
  const uint32_t n =
      lane.rings.tx().PopN(std::span<net::PacketPtr>(lane.burst));
  for (uint32_t i = 0; i < n; ++i) {
    net::PacketPtr pkt = std::move(lane.burst[i]);
    const net::ConnectionId conn = pkt->meta().connection;
    // Per-frame flow lookup (unlike the doorbell consumer's hoist): staged
    // frames on one lane can belong to different connections.
    ProcessTxDescriptor(std::move(pkt), conn, flow_table_.Lookup(conn), now,
                        lane);
  }
  if (!lane.rings.tx().empty() && !lane.tx_drain_scheduled) {
    lane.tx_drain_scheduled = true;
    sim_->ScheduleAtLane(queue, now, [this, queue] { DrainTxLane(queue); });
  }
}

void SmartNic::ScheduleDrain(Nanos when) {
  if (drain_scheduled_) {
    return;
  }
  drain_scheduled_ = true;
  sim_->ScheduleAt(when, [this] {
    drain_scheduled_ = false;
    DrainWire();
  });
}

void SmartNic::DrainWire() {
  if (scheduler_ == nullptr) {
    return;
  }
  const Nanos now = sim_->Now();
  if (wire_.next_free() > now) {
    ScheduleDrain(wire_.next_free());
    return;
  }
  net::PacketPtr pkt = scheduler_->Dequeue(now);
  qdisc_gauges_.Set(static_cast<int64_t>(scheduler_->backlog_packets()));
  if (pkt == nullptr) {
    const Nanos eligible = scheduler_->NextEligibleTime(now);
    if (eligible > now) {
      ScheduleDrain(eligible);
    }
    return;
  }
  const Nanos wire_cost = options_.cost.WireCost(pkt->size());
  const Nanos done = wire_.Serve(now, wire_cost);
  if (prof_->enabled()) {
    // Serialization is charged to whoever owned the frame at TX time; the
    // pid rode along in packet metadata so we need no flow-table re-walk.
    prof_->Charge(prof_wire_site_, prof_core_wire_,
                  prof_->OwnerSlot(pkt->meta().owner_pid), wire_cost);
  }
  if (pkt->meta().trace_id != 0) {
    // Time parked in the discipline, then serialization onto the wire,
    // which every lane shares: both spans go to the NIC ring.
    const uint32_t core = telemetry::Tracepoints::kCoreNic;
    sim_->tracepoints().Span(pkt->meta().trace_id, "tx.qdisc",
                             pkt->meta().sched_enqueued_at, now, core);
    sim_->tracepoints().Span(pkt->meta().trace_id, "tx.wire", now, done, core);
  }
  pkt->meta().completed_at = done;
  stats_.tx_bytes_wire_->Increment(pkt->size());
  sim_->ScheduleAt(done, [this, p = std::move(pkt)]() mutable {
    EmitToWire(std::move(p));
    DrainWire();
  });
}

void SmartNic::EmitToWire(net::PacketPtr packet) {
  if (wire_sink_) {
    wire_sink_(std::move(packet));
  }
}

Status SmartNic::ControlPlane::InjectSramPressure(uint64_t bytes) {
  NORMAN_RETURN_IF_ERROR(nic_->sram_.Allocate("fault_pressure", bytes));
  nic_->fault_sram_pressure_ += bytes;
  nic_->fault_sram_pressure_gauge_->Set(
      static_cast<int64_t>(nic_->fault_sram_pressure_));
  nic_->priv_mmio_.Write(kRegFaultSramPressure,
                         static_cast<uint32_t>(nic_->fault_sram_pressure_));
  return OkStatus();
}

void SmartNic::ControlPlane::ReleaseSramPressure() {
  if (nic_->fault_sram_pressure_ == 0) {
    return;
  }
  nic_->sram_.Free("fault_pressure", nic_->fault_sram_pressure_);
  nic_->fault_sram_pressure_ = 0;
  nic_->fault_sram_pressure_gauge_->Set(0);
  nic_->priv_mmio_.Write(kRegFaultSramPressure, 0);
}

void SmartNic::ControlPlane::StallNotifications(bool stalled) {
  if (nic_->notify_stalled_ == stalled) {
    return;
  }
  nic_->notify_stalled_ = stalled;
  nic_->fault_notify_stall_gauge_->Set(stalled ? 1 : 0);
  nic_->priv_mmio_.Write(kRegFaultNotifyStall, stalled ? 1u : 0u);
  if (stalled) {
    return;
  }
  // Flush the holding pen in arrival order; each Post may still fire a
  // one-shot interrupt exactly as it would have at stall time.
  std::vector<std::pair<uint32_t, Notification>> pen;
  pen.swap(nic_->stalled_notifications_);
  for (auto& [pid, notification] : pen) {
    const auto it = nic_->notif_queues_.find(pid);
    if (it != nic_->notif_queues_.end()) {
      it->second->Post(notification);
    }
  }
}

void SmartNic::PostNotification(const FlowEntry& entry, NotificationKind kind,
                                Nanos now, uint16_t queue) {
  if (notify_stalled_) {
    stalled_notifications_.emplace_back(
        entry.owner.owner_pid, Notification{kind, entry.conn_id, now, queue});
    fault_notify_deferred_->Increment();
    sim_->tracepoints().Emit(telemetry::Probe::kNotifyStall,
                             telemetry::Tracepoints::kCoreNic,
                             entry.owner.owner_pid,
                             stalled_notifications_.size(),
                             static_cast<uint64_t>(kind));
    return;
  }
  const auto it = notif_queues_.find(entry.owner.owner_pid);
  if (it == notif_queues_.end()) {
    return;
  }
  it->second->Post(Notification{kind, entry.conn_id, now, queue});
}

FlowEntry* SmartNic::InboundEntry(const net::Packet& packet) {
  if (packet.parsed() == nullptr) {
    return nullptr;
  }
  const std::optional<net::FiveTuple> flow = packet.parsed()->flow();
  return flow ? flow_table_.LookupByInboundTuple(*flow) : nullptr;
}

void SmartNic::DeliverFromWire(net::PacketPtr packet, Nanos now) {
  // Seen-counting happens at the wire regardless of path, so frames a full
  // lane ingress ring refuses still count as seen.
  stats_.rx_seen_->Increment();
  // Wire ingress: the MAC parses the frame exactly as received — the one
  // parse unless a stage rewrites the frame — and steers on those
  // pre-rewrite headers, as real multi-queue NICs steer on what arrives at
  // the port (DESIGN.md §5b). The flow-table match picks up an explicit
  // queue override and the owner a ring-full drop is charged to.
  packet->SetParsed(net::ParseFrame(packet->bytes()));
  FlowEntry* entry = InboundEntry(*packet);
  uint16_t queue = 0;
  if (entry != nullptr && entry->rx_queue != 0) {
    queue = entry->rx_queue;
  } else if (packet->parsed() != nullptr) {
    if (const std::optional<net::FiveTuple> flow = packet->parsed()->flow()) {
      queue = rss_.Steer(*flow);
    }
  }
  // Explicit per-flow overrides may name a queue beyond the lane count.
  queue = static_cast<uint16_t>(queue % lanes_.size());
  packet->meta().rx_queue = queue;
  Lane& lane = *lanes_[queue];
  if (lanes_.size() == 1) {
    // One lane has nothing to interleave with: the frame enters lane 0
    // inside this event, with no ring hop.
    ProcessRxFrame(lane, std::move(packet), entry, now);
    return;
  }
  if (!lane.rings.rx().TryPush(std::move(packet))) {
    stats_.RecordDrop(net::Direction::kRx, DropReason::kRingFull,
                      entry != nullptr ? entry->owner.owner_pid : 0,
                      TpCore(lane),
                      entry != nullptr ? entry->owner.owner_tenant : 0);
    return;
  }
  if (!lane.rx_drain_scheduled) {
    lane.rx_drain_scheduled = true;
    sim_->ScheduleAtLane(queue, now, [this, queue] { DrainRxLane(queue); });
  }
}

void SmartNic::DrainRxLane(uint16_t queue) {
  Lane& lane = *lanes_[queue];
  lane.rx_drain_scheduled = false;
  const Nanos now = sim_->Now();
  const uint32_t n =
      lane.rings.rx().PopN(std::span<net::PacketPtr>(lane.burst));
  for (uint32_t i = 0; i < n; ++i) {
    net::PacketPtr pkt = std::move(lane.burst[i]);
    // Re-match: the flow may have been torn down while the frame queued.
    FlowEntry* entry = InboundEntry(*pkt);
    ProcessRxFrame(lane, std::move(pkt), entry, now);
  }
  if (!lane.rings.rx().empty() && !lane.rx_drain_scheduled) {
    lane.rx_drain_scheduled = true;
    sim_->ScheduleAtLane(queue, now, [this, queue] { DrainRxLane(queue); });
  }
}

void SmartNic::ProcessRxFrame(Lane& lane, net::PacketPtr packet,
                              FlowEntry* entry, Nanos now) {
  telemetry::ProfScope rx_scope(prof_, rx_.scope_site);
  packet->meta().direction = net::Direction::kRx;
  packet->meta().nic_arrival = now;
  const uint32_t trace_id = sim_->tracepoints().SampleArrival();
  const uint32_t tp_core = TpCore(lane);
  packet->meta().trace_id = trace_id;

  // Ingress already parsed the pristine frame and nothing between there
  // and here touches the bytes.
  std::optional<net::FiveTuple> flow;
  if (packet->parsed() != nullptr) {
    flow = packet->parsed()->flow();
  }

  // RX ownership: the receiving connection's pid (flow-table owner), or
  // "unowned" for unmatched frames bound for the host slow path. Restamp the
  // metadata — the TX-side pid from the sending NIC is not this side's owner.
  // Unmatched wire frames belong to tenant 0 (the system share, never
  // gated by the pipeline below).
  const uint32_t owner_pid = entry != nullptr ? entry->owner.owner_pid : 0;
  const uint32_t tenant = entry != nullptr ? entry->owner.owner_tenant : 0;
  packet->meta().owner_pid = owner_pid;
  packet->meta().tenant = tenant;
  uint32_t owner_slot = 0;
  if (prof_->enabled()) {
    owner_slot = prof_->OwnerSlot(owner_pid);
    prof_->CountPacket(owner_slot, packet->size());
  }
  const Nanos pipe_done =
      ServePipeline(lane, rx_, tenant, now, owner_slot, trace_id);

  // Graceful degradation under wire faults: frames whose IPv4 or L4
  // checksum no longer verifies were damaged in flight and are dropped here,
  // before any stage or application can act on corrupt bytes. Every frame is
  // verified — the wire is outside the host, and this is where the fault
  // plane's corruption is caught. Zero virtual time — the MAC verifies at
  // line rate.
  if (packet->parsed() != nullptr &&
      !net::FrameChecksumsValid(packet->bytes(), *packet->parsed())) {
    stats_.RecordDrop(net::Direction::kRx, DropReason::kCorrupt, owner_pid,
                      tp_core, tenant);
    return;
  }

  overlay::PacketContext ctx = MakeContext(*packet, packet->parsed(), entry,
                                           net::Direction::kRx);
  if (top_talkers_ != nullptr && flow) {
    top_talkers_->Record(*flow, ctx.conn.owner_pid,
                         static_cast<uint32_t>(packet->size()), now,
                         ctx.conn.owner_tenant);
  }

  // Keyed on the wire tuple as seen *before* any stage rewrite, matching
  // the ingress flow-table match; unmatched frames head to the host slow
  // path and are never cached.
  std::optional<FlowCacheKey> key;
  if (flow_cache_.enabled() && flow && entry != nullptr &&
      !packet->meta().software_fallback) {
    key = FlowCacheKey{net::Direction::kRx, *flow, entry->conn_id};
  }
  const ChainOutcome out = ResolveChain(lane, rx_, *packet, ctx, key,
                                        pipe_done, trace_id, owner_slot);
  const Nanos ready = out.done;

  if (out.verdict == Verdict::kDrop) {
    stats_.RecordDrop(net::Direction::kRx,
                      NormalizeDropReason(out.drop_reason),
                      ctx.conn.owner_pid, tp_core, ctx.conn.owner_tenant);
    return;
  }

  if (entry == nullptr || out.verdict == Verdict::kSoftwareFallback) {
    // No registered connection (or explicitly diverted): host slow path.
    if (entry == nullptr) {
      stats_.rx_unmatched_->Increment();
    } else {
      stats_.rx_fallback_->Increment();
    }
    packet->meta().software_fallback = true;
    sim_->ScheduleAt(ready, [this, p = std::move(packet)]() mutable {
      if (fallback_sink_) {
        fallback_sink_(std::move(p), net::Direction::kRx);
      }
    });
    return;
  }

  // The lane ingress steered to (on the pre-rewrite headers) IS the queue.
  // Steering is combinational (zero cost-model time); the zero-width span
  // still marks the RSS decision point on a traced packet's track.
  sim_->tracepoints().Span(trace_id, "rx.rss", ready, ready, tp_core);
  packet->meta().connection = entry->conn_id;
  ++entry->rx_packets;
  entry->rx_bytes += packet->size();

  // DMA into the connection's RX ring (DDIO model again).
  const bool ddio_hit =
      ddio_.Access(RxRingId(entry->conn_id), kHotWorkingSetBytes);
  const Nanos dma_cost = options_.cost.DmaCost(packet->size(), ddio_hit);
  const Nanos dma_done = lane.dma.Serve(ready, dma_cost);
  prof_->Charge(rx_.dma_site, lane.core_dma, owner_slot, dma_cost);
  stats_.dma_transfers_->Increment();
  sim_->tracepoints().Span(trace_id, "rx.dma", ready, dma_done, tp_core);

  const net::ConnectionId conn_id = entry->conn_id;
  sim_->ScheduleAtLane(
      lane.index, dma_done,
      [this, p = std::move(packet), conn_id, queue = lane.index,
       tp_core]() mutable {
    FlowEntry* e = flow_table_.Lookup(conn_id);
    if (e == nullptr) {
      return;  // connection torn down in flight
    }
    p->meta().completed_at = sim_->Now();
    const uint32_t tid = p->meta().trace_id;
    const Nanos ring_at = p->meta().completed_at;
    if (!e->rings->rx().TryPush(std::move(p))) {
      stats_.RecordDrop(net::Direction::kRx, DropReason::kRingFull,
                        e->owner.owner_pid, tp_core, e->owner.owner_tenant);
      return;
    }
    // Delivery into the app-visible ring (zero-width: the push itself is
    // instantaneous in the cost model; the wait was charged to rx.dma).
    sim_->tracepoints().Span(tid, "rx.ring", ring_at, ring_at, tp_core);
    stats_.rx_accepted_->Increment();
    if (e->notify_rx) {
      PostNotification(*e, NotificationKind::kRxData, sim_->Now(), queue);
    }
  });
}

}  // namespace norman::nic
