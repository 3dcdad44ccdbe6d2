#include "src/kernel/kernel.h"

#include <algorithm>
#include <span>

#include "src/common/logging.h"

namespace norman::kernel {

Kernel::Kernel(sim::Simulator* sim, nic::SmartNic* nic, Options options)
    : sim_(sim),
      nic_(nic),
      options_(options),
      accept_gauges_(&sim->metrics(), "kernel.accept") {
  prof_ = &sim_->profiler();
  prof_core_kernel_ = prof_->RegisterCore(
      "kernel.core", telemetry::Profiler::CoreKind::kHost,
      [this] { return kernel_core_.busy_ns(); });
  sampler_ = std::make_unique<telemetry::TimeSeriesSampler>(&sim_->metrics());
  watchdog_ = std::make_unique<telemetry::HealthWatchdog>(sampler_.get(),
                                                          &sim_->metrics());
  InstallDefaultHealthRules();
  drop_malformed_ = sim_->metrics().GetCounter("kernel.drop.malformed");
  drop_unmatched_ = sim_->metrics().GetCounter("kernel.drop.unmatched");
  drop_sram_exhausted_ =
      sim_->metrics().GetCounter("kernel.drop.sram_exhausted");
  notify_drained_ = sim_->metrics().GetCounter("kernel.notify.drained");
  for (uint16_t q = 0; q < nic::SmartNic::kMaxShardQueues; ++q) {
    notify_drained_q_[q] = sim_->metrics().GetCounter(
        "kernel.notify.q" + std::to_string(q) + ".drained");
  }
  nic_cp_ = nic_->TakeControlPlane();
  NORMAN_CHECK(nic_cp_ != nullptr)
      << "NIC control plane already taken: only the kernel may own it";
  filter_input_ = std::make_unique<dataplane::FilterEngine>(
      dataplane::FilterAction::kAccept);
  filter_output_ = std::make_unique<dataplane::FilterEngine>(
      dataplane::FilterAction::kAccept);
  sniffer_ = std::make_unique<dataplane::SnifferTap>(sim_);
  arp_ = std::make_unique<dataplane::ArpService>(sim_, options_.host_ip,
                                                 options_.host_mac);
  conntrack_ = std::make_unique<dataplane::Conntrack>(&nic_cp_->sram());
  icmp_ = std::make_unique<dataplane::IcmpResponder>(options_.host_ip,
                                                     options_.host_mac);
  spoof_guard_ =
      std::make_unique<dataplane::SpoofGuard>(&nic_cp_->flow_table());
  custom_tx_ =
      std::make_unique<dataplane::OverlayStage>(nic_cp_.get(), kCustomTxSlot);
  custom_rx_ =
      std::make_unique<dataplane::OverlayStage>(nic_cp_.get(), kCustomRxSlot);
  tenant_tx_ =
      std::make_unique<dataplane::OverlayStage>(nic_cp_.get(), kTenantTxSlot);
  tenant_rx_ =
      std::make_unique<dataplane::OverlayStage>(nic_cp_.get(), kTenantRxSlot);
  // Probe hookup: the kernel owns the interposition stages, so it is the
  // one place every decision site can be armed from.
  filter_input_->AttachTracepoints(&sim_->tracepoints());
  filter_output_->AttachTracepoints(&sim_->tracepoints());
  conntrack_->AttachTracepoints(&sim_->tracepoints());
  watchdog_->AttachTracepoints(&sim_->tracepoints());
  arp_->SetReplyInjector([this](net::PacketPtr reply) {
    nic_->InjectHostPacket(std::move(reply), sim_->Now());
  });
  icmp_->SetReplyInjector([this](net::PacketPtr reply) {
    nic_->InjectHostPacket(std::move(reply), sim_->Now());
  });
  // Boot-time discipline: FIFO behind the transparent per-connection pacer.
  auto paced = std::make_unique<dataplane::PacedScheduler>();
  pacer_ = paced.get();
  NORMAN_CHECK(nic_cp_->SetScheduler(std::move(paced)).ok());
  // The kernel is the host slow path: unmatched RX traffic comes here for
  // listen-socket dispatch.
  nic_cp_->SetFallbackSink([this](net::PacketPtr packet, net::Direction dir) {
    HandleHostPacket(std::move(packet), dir);
  });
  InstallPipeline();
}

Kernel::~Kernel() = default;

void Kernel::InstallPipeline() {
  // TX chain: sniffer sees everything first (including packets the filter
  // will drop — tcpdump semantics), then ARP observation, conntrack, the
  // OUTPUT filter, the custom overlay policy, and optionally NAT.
  nic_cp_->ClearStages();
  nic_cp_->AddTxStage(sniffer_.get());
  nic_cp_->AddTxStage(spoof_guard_.get());
  nic_cp_->AddTxStage(arp_.get());
  nic_cp_->AddTxStage(conntrack_.get());
  nic_cp_->AddTxStage(filter_output_.get());
  nic_cp_->AddTxStage(custom_tx_.get());
  if (tenant_tx_holder_ != kSystemTenant) {
    nic_cp_->AddTxStage(tenant_tx_.get());
  }
  if (nat_ != nullptr) {
    nic_cp_->AddTxStage(nat_.get());
  }
  // RX chain: sniffer first (sees filtered-out packets too, tcpdump-style),
  // NAT reverse translation so the filter sees internal addresses, the
  // NIC-terminated protocols (ICMP echo, ARP), conntrack, the INPUT filter,
  // and the custom overlay policy.
  nic_cp_->AddRxStage(sniffer_.get());
  if (nat_ != nullptr) {
    nic_cp_->AddRxStage(nat_.get());
  }
  nic_cp_->AddRxStage(icmp_.get());
  nic_cp_->AddRxStage(arp_.get());
  nic_cp_->AddRxStage(conntrack_.get());
  nic_cp_->AddRxStage(filter_input_.get());
  nic_cp_->AddRxStage(custom_rx_.get());
  if (tenant_rx_holder_ != kSystemTenant) {
    nic_cp_->AddRxStage(tenant_rx_.get());
  }
}

void Kernel::Housekeeping() {
  // Invoked on demand (no self-rescheduling: it would keep the DES alive
  // forever). Benchmarks and tools call this before reading tables; the
  // periodic path is NicConfig::maintenance.
  if (conntrack_->Sweep(sim_->Now()) > 0) {
    // Expired conntrack state frees SRAM and can change what the chain
    // would decide (e.g. NAT admission): stale fast-path verdicts must go.
    nic_cp_->InvalidateFastPath();
  }
}

void Kernel::InstallDefaultHealthRules() {
  // Every rule reads a series the sampler derives from always-registered
  // metrics, so the rule set is valid before the first packet flows.
  watchdog_->AddQueueStallRule("nic.qdisc", "queue.nic.qdisc.depth",
                               "kernel.tc");
  watchdog_->AddQueueStallRule("app.rx", "queue.nic.rx_ring.depth", "app.rx");
  // Per-lane stall rules for a multi-lane dataplane: a single wedged lane
  // moves its own ring-depth series while the aggregate may look healthy
  // (7 draining lanes mask the stuck one). The per-queue gauges are
  // registered eagerly whatever the lane count, and an absent/zero series
  // reads healthy, so one-lane worlds (no ring hop) see no change.
  for (uint16_t q = 0; q < nic::SmartNic::kMaxShardQueues; ++q) {
    const std::string qs = std::to_string(q);
    watchdog_->AddQueueStallRule("app.rx.q" + qs,
                                 "queue.nic.rx_ring.q" + qs + ".depth",
                                 "app.rx");
  }
  // Any sustained drop rate is a health event: thresholds are "more than
  // zero per second" because drops on these paths are exceptional.
  watchdog_->AddRateSpikeRule("nic.qdisc", "nic.tx.drop.sched_overflow.rate",
                              "kernel.tc", 0.0);
  watchdog_->AddRateSpikeRule("app.rx", "nic.rx.drop.ring_full.rate",
                              "app.rx", 0.0);
  watchdog_->AddLatencyRule("nic.qdisc", "trace.stage.tx.qdisc.p99",
                            "kernel.tc", 1 * kMillisecond);
  // Wire faults (sim::FaultInjector): a down link is an immediate stall,
  // and any sustained rate of checksum-failed RX frames means the physical
  // path is damaging bytes. Both series read healthy when absent/zero, so
  // worlds without a fault plane see no change.
  watchdog_->AddLinkDownRule("link", "fault.link.down", "net.wire");
  watchdog_->AddRateSpikeRule("link", "nic.rx.drop.corrupt.rate", "net.wire",
                              0.0);
}

void Kernel::StartMaintenance() {
  if (maintenance_on_) {
    return;
  }
  maintenance_on_ = true;
  sim_->ScheduleAt(sim_->Now() + options_.housekeeping_period,
                   [this] { MaintenanceTick(); });
}

void Kernel::MaintenanceTick() {
  if (!maintenance_on_) {
    return;  // StopMaintenance() raced an already-scheduled tick
  }
  ++maintenance_ticks_;
  // Zero-cost attribution scope: the tick charges no virtual time, but its
  // entry count keeps periodic kernel work visible in the context tree.
  telemetry::ProfScope maint_scope(prof_, prof_maint_site_);
  const Nanos now = sim_->Now();
  if (conntrack_->Sweep(now) > 0) {
    nic_cp_->InvalidateFastPath();  // see Housekeeping()
  }
  sampler_->Sample(now);
  watchdog_->Evaluate(now);
  // Lazy re-arm: keep ticking only while the world has other events left.
  // With an empty heap the simulation is over; unconditionally rescheduling
  // would tick forever and Run() would never return.
  if (sim_->pending_events() > 0) {
    sim_->ScheduleAt(now + options_.housekeeping_period,
                     [this] { MaintenanceTick(); });
  } else {
    maintenance_on_ = false;
  }
}

Status Kernel::RequireRoot(Uid caller) const {
  if (caller != kRootUid) {
    return PermissionDeniedError(
        "operation requires root (caller uid " + std::to_string(caller) +
        ")");
  }
  return OkStatus();
}

// ---- Connections ------------------------------------------------------------

// Ring working set one NIC connection pins (its TX and RX rings), charged
// to the tenant's ring budget at admission and refunded at close.
constexpr uint64_t kConnRingBytes = 2 * nic::kHotWorkingSetBytes;

StatusOr<AppPort> Kernel::Connect(Pid pid, net::Ipv4Address remote_ip,
                                  uint16_t remote_port,
                                  const ConnectOptions& opts) {
  // Socket-surface probes fire at call entry (strace semantics: the
  // syscall is traced whether or not it succeeds).
  sim_->tracepoints().Emit(
      telemetry::Probe::kSocketCall, telemetry::Tracepoints::kCoreHost, pid,
      static_cast<uint64_t>(telemetry::SocketOp::kConnect), remote_port);
  Process* proc = processes_.Lookup(pid);
  if (proc == nullptr || proc->state == ProcessState::kExited) {
    return NotFoundError("connect: no such process");
  }
  const net::ConnectionId conn_id = next_conn_id_++;
  uint16_t local_port = opts.local_port;
  if (local_port == 0) {
    local_port = next_ephemeral_port_++;
    if (next_ephemeral_port_ == 0) {
      next_ephemeral_port_ = 30000;
    }
  }
  const net::FiveTuple tuple{options_.host_ip, remote_ip, local_port,
                            remote_port, opts.proto};
  NORMAN_RETURN_IF_ERROR(AdmitConnection(*proc, conn_id, tuple, opts,
                                         opts.allow_software_fallback));
  return PortFor(conn_id, tuple);
}

Status Kernel::AdmitConnection(const Process& proc, net::ConnectionId conn_id,
                               const net::FiveTuple& tuple,
                               const ConnectOptions& opts,
                               bool allow_fallback) {
  nic::FlowEntry entry;
  entry.conn_id = conn_id;
  entry.tuple = tuple;
  entry.owner = overlay::ConnMetadata{conn_id, proc.uid, proc.pid,
                                      proc.cgroup, proc.comm_id};
  entry.owner.owner_tenant = TenantOf(proc.uid);
  entry.notify_rx = opts.notify_rx;
  entry.notify_tx_drain = opts.notify_tx_drain;

  // Tenant ring-memory admission: each NIC connection pins a TX and an RX
  // ring working set. A tenant whose ring budget is spent is refused before
  // any NIC state is touched (kResourceExhausted — release a connection and
  // retry), and the refusal never falls back. An accepted connection
  // charges the listener's tenant, so a flood of new peers cannot grow a
  // tenant's ring footprint past its envelope either.
  const auto t = tenants_.find(entry.owner.owner_tenant);
  if (t != tenants_.end() && t->second.spec.ring_bytes != 0 &&
      t->second.ring_bytes_used + kConnRingBytes >
          t->second.spec.ring_bytes) {
    nic_cp_->tenants().CountDenied(entry.owner.owner_tenant);
    return ResourceExhaustedError(
        "connect: tenant " + std::to_string(entry.owner.owner_tenant) +
        " ring budget exhausted (" +
        std::to_string(t->second.ring_bytes_used) + " of " +
        std::to_string(t->second.spec.ring_bytes) + " bytes in use)");
  }

  ConnRecord rec{.owner = entry.owner, .tuple = tuple};
  const Status install = nic_cp_->InstallFlow(std::move(entry));
  if (install.ok()) {
    if (opts.notify_rx || opts.notify_tx_drain) {
      nic_cp_->RegisterNotificationQueue(proc.pid);
    }
    rec.ring_charged = t != tenants_.end();
    if (rec.ring_charged) {
      t->second.ring_bytes_used += kConnRingBytes;
    }
  } else if (install.code() == StatusCode::kResourceExhausted &&
             allow_fallback) {
    // NIC memory is full: register a host-software connection (§5).
    // Intern the owner even without a NIC flow: slow-path cycles for this
    // connection are still attributed to the pid.
    prof_->RegisterOwner(proc.pid);
    rec.software_fallback = true;
  } else {
    return install;
  }
  conns_.PushFront(conn_id, rec);
  return OkStatus();
}

AppPort Kernel::PortFor(net::ConnectionId conn_id,
                        const net::FiveTuple& tuple) {
  // A fallback connection has no rings, which makes its port inert.
  return AppPort(conn_id, tuple, options_.host_mac, options_.gateway_mac,
                 nic_cp_->GetRings(conn_id), nic_cp_->MapDoorbell(conn_id),
                 nic_);
}

Status Kernel::Close(net::ConnectionId conn_id) {
  const ConnRecord* found = conns_.Get(conn_id);
  sim_->tracepoints().Emit(
      telemetry::Probe::kSocketCall, telemetry::Tracepoints::kCoreHost,
      found == nullptr ? 0 : found->owner.owner_pid,
      static_cast<uint64_t>(telemetry::SocketOp::kClose),
      static_cast<uint64_t>(conn_id));
  if (found == nullptr) {
    return NotFoundError("close: no such connection");
  }
  const ConnRecord rec = *found;
  conns_.Erase(conn_id);
  // Parked waiters are dropped unrun; their pid's blocked count follows.
  uint32_t dropped = 0;
  for (uint32_t w = rec.first_waiter; w != kNoWaiter;) {
    const uint32_t next = waiters_[w].next;
    FreeWaiter(w);
    ++dropped;
    w = next;
  }
  if (dropped > 0) {
    *blocked_.Get(rec.owner.owner_pid) -= dropped;
  }
  if (rec.pending_accept) {
    // Never accepted: take it off its listener's queue.
    std::erase(
        listeners_.at(KeyOf(rec.tuple.src_port, rec.tuple.proto)).accept_queue,
        conn_id);
    accept_gauges_.Add(-1);
  }
  if (rec.ring_charged) {
    // Refund the connection's ring working sets to its tenant's budget.
    tenants_.at(rec.owner.owner_tenant).ring_bytes_used -= kConnRingBytes;
  }
  if (rec.rate_bps != 0) {
    pacer_->ClearRate(conn_id);  // releases any paced backlog for the wire
  }
  return rec.software_fallback ? OkStatus() : nic_cp_->RemoveFlow(conn_id);
}

template <typename Pred>
void Kernel::CloseMatching(Pred match) {
  // Collect the ids first: Close erases records.
  std::vector<net::ConnectionId> ids;
  conns_.ForEach([&](net::ConnectionId conn, const ConnRecord& rec) {
    if (match(rec)) {
      ids.push_back(conn);
    }
  });
  std::sort(ids.begin(), ids.end());
  for (const net::ConnectionId conn : ids) {
    (void)Close(conn);
  }
}

Status Kernel::Exit(Pid pid) {
  Process* proc = processes_.Lookup(pid);
  if (proc == nullptr) {
    return NotFoundError("exit: no such process");
  }
  // Connections queued on the pid's listeners carry its identity, so this
  // empties their accept queues too.
  CloseMatching(
      [pid](const ConnRecord& rec) { return rec.owner.owner_pid == pid; });
  // Closing dropped the pid's waiters, so its notification queue and
  // blocked count have nothing left to serve.
  nic_cp_->ReleaseNotificationQueue(pid);
  blocked_.Erase(pid);
  std::erase_if(listeners_,
                [pid](const auto& entry) { return entry.second.pid == pid; });
  proc->state = ProcessState::kExited;
  return OkStatus();
}

Status Kernel::Listen(Pid pid, uint16_t local_port, net::IpProto proto,
                      const ConnectOptions& accept_opts) {
  sim_->tracepoints().Emit(
      telemetry::Probe::kSocketCall, telemetry::Tracepoints::kCoreHost, pid,
      static_cast<uint64_t>(telemetry::SocketOp::kListen), local_port);
  Process* proc = processes_.Lookup(pid);
  if (proc == nullptr || proc->state == ProcessState::kExited) {
    return NotFoundError("listen: no such process");
  }
  const auto key = KeyOf(local_port, proto);
  if (listeners_.contains(key)) {
    return AlreadyExistsError("listen: port already bound");
  }
  ListenState state;
  state.pid = pid;
  state.accept_opts = accept_opts;
  state.accept_opts.proto = proto;
  listeners_.emplace(key, std::move(state));
  return OkStatus();
}

StatusOr<AppPort> Kernel::Accept(Pid pid, uint16_t local_port,
                                 net::IpProto proto) {
  sim_->tracepoints().Emit(
      telemetry::Probe::kSocketCall, telemetry::Tracepoints::kCoreHost, pid,
      static_cast<uint64_t>(telemetry::SocketOp::kAccept), local_port);
  const auto it = listeners_.find(KeyOf(local_port, proto));
  if (it == listeners_.end()) {
    return NotFoundError("accept: not listening on that port");
  }
  ListenState& state = it->second;
  if (state.pid != pid) {
    return PermissionDeniedError("accept: not the listening process");
  }
  if (state.accept_queue.empty()) {
    // Would-block, not a missing resource: the listener exists, there is
    // just nothing to accept yet (see the convention in socket.h).
    return UnavailableError("accept: no pending connections");
  }
  const net::ConnectionId conn_id = state.accept_queue.front();
  state.accept_queue.pop_front();
  accept_gauges_.Add(-1);
  // Close takes a connection off the queue, so a queued one is live.
  ConnRecord& rec = *conns_.Get(conn_id);
  rec.pending_accept = false;
  return PortFor(conn_id, rec.tuple);
}

Status Kernel::StopListening(Pid pid, uint16_t local_port,
                             net::IpProto proto) {
  const auto it = listeners_.find(KeyOf(local_port, proto));
  if (it == listeners_.end() || it->second.pid != pid) {
    return NotFoundError("stop-listening: no such listener");
  }
  // Nobody can accept them any more: close the queued connections (each
  // Close takes itself off the queue).
  while (!it->second.accept_queue.empty()) {
    (void)Close(it->second.accept_queue.front());
  }
  listeners_.erase(it);
  return OkStatus();
}

void Kernel::HandleHostPacket(net::PacketPtr packet, net::Direction dir) {
  sim_->tracepoints().Emit(
      telemetry::Probe::kSlowPath, telemetry::Tracepoints::kCoreHost,
      packet->meta().owner_pid,
      static_cast<uint64_t>(telemetry::SlowPathOp::kHostDeliver),
      dir == net::Direction::kTx ? telemetry::kDirTx : telemetry::kDirRx,
      packet->size());
  if (dir == net::Direction::kTx) {
    // A TX packet diverted by a FALLBACK rule: it already traversed the
    // interposition pipeline; re-inject for transmission. The NIC treats
    // marked packets' repeat FALLBACK verdicts as accept, so no loop.
    nic_->InjectHostPacket(std::move(packet), sim_->Now());
    return;
  }
  // Unmatched RX: dispatch against the listen table.
  auto parsed = net::ParseFrame(packet->bytes());
  if (!parsed || !parsed->flow()) {
    drop_malformed_->Increment();
    return;
  }
  const auto inbound = *parsed->flow();
  const auto it = listeners_.find(KeyOf(inbound.dst_port, inbound.proto));
  if (it == listeners_.end() || inbound.dst_ip != options_.host_ip) {
    drop_unmatched_->Increment();
    return;
  }
  ListenState& listener = it->second;
  Process* proc = processes_.Lookup(listener.pid);
  if (proc == nullptr || proc->state == ProcessState::kExited) {
    drop_unmatched_->Increment();
    return;
  }

  // Auto-install the connection (local = the listening endpoint, remote =
  // the peer that just spoke), stamped with the listener's identity. A
  // refusal drops the trigger packet: there is no server-side fallback.
  const net::ConnectionId conn_id = next_conn_id_++;
  if (!AdmitConnection(*proc, conn_id, inbound.Reversed(),
                       listener.accept_opts, /*allow_fallback=*/false)
           .ok()) {
    drop_sram_exhausted_->Increment();
    return;
  }
  conns_.Get(conn_id)->pending_accept = true;

  // Deliver the trigger packet into the new connection's RX ring so the
  // first request is not lost, then queue the accept event. Without a
  // fallback, admission means the flow is on the NIC.
  packet->meta().connection = conn_id;
  nic::FlowEntry* installed = nic_cp_->LookupFlow(conn_id);
  (void)installed->rings->rx().TryPush(std::move(packet));
  ++installed->rx_packets;
  listener.accept_queue.push_back(conn_id);
  accept_gauges_.Add(1);
}

std::vector<ConnectionInfo> Kernel::ListConnections() const {
  std::vector<ConnectionInfo> out;
  conns_.ForEach([&](net::ConnectionId conn_id, const ConnRecord& rec) {
    ConnectionInfo info;
    info.conn_id = conn_id;
    info.tuple = rec.tuple;
    info.pid = rec.owner.owner_pid;
    info.uid = rec.owner.owner_uid;
    info.comm = processes_.CommName(rec.owner.owner_comm);
    info.software_fallback = rec.software_fallback;
    if (const nic::FlowEntry* e = nic_cp_->LookupFlow(conn_id); e != nullptr) {
      info.tx_packets = e->tx_packets;
      info.rx_packets = e->rx_packets;
      info.tx_bytes = e->tx_bytes;
      info.rx_bytes = e->rx_bytes;
    }
    out.push_back(std::move(info));
  });
  return out;
}

// ---- Blocking I/O -----------------------------------------------------------

Status Kernel::BlockOnRx(net::ConnectionId conn_id,
                         sim::InlineCallback resume) {
  return Block(conn_id, nic::NotificationKind::kRxData, std::move(resume));
}

Status Kernel::BlockOnTxDrain(net::ConnectionId conn_id,
                              sim::InlineCallback resume) {
  return Block(conn_id, nic::NotificationKind::kTxDrained, std::move(resume));
}

Status Kernel::Block(net::ConnectionId conn_id, nic::NotificationKind kind,
                     sim::InlineCallback resume) {
  ConnRecord* rec = conns_.Get(conn_id);
  if (rec == nullptr) {
    return NotFoundError("block: unknown connection");
  }
  const nic::FlowEntry* entry = nic_cp_->LookupFlow(conn_id);
  const bool rx = kind == nic::NotificationKind::kRxData;
  if (entry == nullptr || !(rx ? entry->notify_rx : entry->notify_tx_drain)) {
    return FailedPreconditionError(
        rx ? "block: connection not configured for RX notifications"
           : "block: connection not configured for TX-drain notifications");
  }
  const uint32_t w = AllocWaiter(kind, std::move(resume));
  if (rec->last_waiter == kNoWaiter) {
    rec->first_waiter = w;
  } else {
    waiters_[rec->last_waiter].next = w;
  }
  rec->last_waiter = w;
  const Pid pid = rec->owner.owner_pid;
  if (uint32_t* blocked = blocked_.Get(pid); blocked != nullptr) {
    ++*blocked;
  } else {
    blocked_.PushFront(pid, 1);
  }
  PumpNotifications(pid);
  return OkStatus();
}

uint32_t Kernel::AllocWaiter(nic::NotificationKind kind,
                             sim::InlineCallback resume) {
  if (free_waiter_ == kNoWaiter) {
    waiters_.push_back(Waiter{kind, std::move(resume), kNoWaiter});
    return static_cast<uint32_t>(waiters_.size() - 1);
  }
  const uint32_t w = free_waiter_;
  free_waiter_ = waiters_[w].next;
  waiters_[w] = Waiter{kind, std::move(resume), kNoWaiter};
  return w;
}

void Kernel::FreeWaiter(uint32_t w) {
  waiters_[w].resume = sim::InlineCallback();
  waiters_[w].next = free_waiter_;
  free_waiter_ = w;
}

void Kernel::PumpNotifications(Pid pid) {
  nic::NotificationQueue* queue = nic_cp_->GetNotificationQueue(pid);
  if (queue == nullptr) {
    return;
  }
  // Drain whatever is pending in bursts (bulk PollN over the shared ring:
  // one gauge update and one counter add per burst instead of one per
  // notification); for each notification wake matching waiters.
  telemetry::ProfScope notify_scope(prof_, prof_notify_site_);
  constexpr uint32_t kNotifyDrainBatch = 16;
  nic::Notification batch[kNotifyDrainBatch];
  for (;;) {
    const uint32_t count =
        queue->PollN(std::span<nic::Notification>(batch));
    if (count == 0) {
      break;
    }
    notify_drained_->Increment(count);
    for (uint32_t i = 0; i < count; ++i) {
      const nic::Notification& n = batch[i];
      if (n.queue < notify_drained_q_.size()) {
        notify_drained_q_[n.queue]->Increment();
      }
      ConnRecord* rec = conns_.Get(n.conn_id);
      if (rec == nullptr) {
        continue;  // nobody blocked; notification is informational
      }
      uint32_t prev = kNoWaiter;
      for (uint32_t w = rec->first_waiter; w != kNoWaiter;) {
        Waiter& waiter = waiters_[w];
        const uint32_t next = waiter.next;
        if (waiter.kind != n.kind) {
          prev = w;
          w = next;
          continue;
        }
        // Waking a blocked thread costs a context switch on the kernel/app
        // core; the continuation runs after that charge. Attributed to the
        // pid being woken (this queue's owner).
        const Nanos cs = nic_->cost().context_switch_ns;
        const Nanos done = kernel_core_.Serve(sim_->Now(), cs);
        if (prof_->enabled()) {
          prof_->ChargeCurrent(prof_core_kernel_, prof_->OwnerSlot(pid), cs);
        }
        sim_->ScheduleAt(done, std::move(waiter.resume));
        if (prev == kNoWaiter) {
          rec->first_waiter = next;
        } else {
          waiters_[prev].next = next;
        }
        if (rec->last_waiter == w) {
          rec->last_waiter = prev;
        }
        FreeWaiter(w);
        --*blocked_.Get(rec->owner.owner_pid);
        w = next;
      }
    }
    if (count < kNotifyDrainBatch) {
      break;  // short burst: the queue is empty now
    }
  }
  // If waiters remain, arm the interrupt so the next Post re-enters here —
  // "enable interrupts for notification queues with low activity" (§4.3).
  if (const uint32_t* blocked = blocked_.Get(pid);
      blocked != nullptr && *blocked > 0) {
    queue->ArmInterrupt([this, pid] {
      // Interrupt dispatch cost, then pump again. The scope opens under
      // whatever context raised the interrupt (often the NIC RX path), so
      // the flamegraph shows where interrupt load originates.
      telemetry::ProfScope irq_scope(prof_, prof_irq_site_);
      const Nanos cs = nic_->cost().context_switch_ns / 2;
      const Nanos done = kernel_core_.Serve(sim_->Now(), cs);
      if (prof_->enabled()) {
        prof_->ChargeCurrent(prof_core_kernel_, prof_->OwnerSlot(pid), cs);
      }
      sim_->ScheduleAt(done, [this, pid] { PumpNotifications(pid); });
    });
  } else {
    queue->DisarmInterrupt();
  }
}

// ---- Admin configuration ----------------------------------------------------

StatusOr<size_t> Kernel::AppendFilterRule(Uid caller, Chain chain,
                                          const dataplane::FilterRule& rule) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  auto& engine = chain == Chain::kInput ? *filter_input_ : *filter_output_;
  auto index = engine.AppendRule(rule);
  if (index.ok()) {
    // The rule set changed underneath the installed FilterEngine stage —
    // a mutation the NIC control plane cannot observe on its own.
    nic_cp_->InvalidateFastPath();
  }
  return index;
}

Status Kernel::DeleteFilterRule(Uid caller, Chain chain, size_t index) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  auto& engine = chain == Chain::kInput ? *filter_input_ : *filter_output_;
  const Status s = engine.DeleteRule(index);
  if (s.ok()) {
    nic_cp_->InvalidateFastPath();
  }
  return s;
}

Status Kernel::FlushFilterRules(Uid caller, Chain chain) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  auto& engine = chain == Chain::kInput ? *filter_input_ : *filter_output_;
  engine.Flush();
  nic_cp_->InvalidateFastPath();
  return OkStatus();
}

const dataplane::FilterEngine& Kernel::filter(Chain chain) const {
  return chain == Chain::kInput ? *filter_input_ : *filter_output_;
}

Status Kernel::SetQdisc(Uid caller, std::unique_ptr<nic::Scheduler> qdisc) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  if (qdisc == nullptr) {
    return InvalidArgumentError("qdisc must not be null");
  }
  return InstallPacedQdisc(std::move(qdisc));
}

Status Kernel::InstallPacedQdisc(std::unique_ptr<nic::Scheduler> qdisc) {
  auto paced = std::make_unique<dataplane::PacedScheduler>(std::move(qdisc));
  dataplane::PacedScheduler* raw = paced.get();
  NORMAN_RETURN_IF_ERROR(nic_cp_->SetScheduler(std::move(paced)));
  pacer_ = raw;
  conns_.ForEach([this](net::ConnectionId conn, const ConnRecord& rec) {
    if (rec.rate_bps != 0) {
      pacer_->SetRate(conn, rec.rate_bps, rec.burst_bytes);
    }
  });
  return OkStatus();
}

Status Kernel::SetConnRateLimit(Uid caller, net::ConnectionId conn,
                                BitsPerSecond rate_bps,
                                uint64_t burst_bytes) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  ConnRecord* rec = conns_.Get(conn);
  if (rec == nullptr) {
    return NotFoundError("rate limit: unknown connection");
  }
  rec->rate_bps = rate_bps;
  rec->burst_bytes = burst_bytes;
  pacer_->SetRate(conn, rate_bps, burst_bytes);  // rate 0 clears
  // Pacer reconfiguration happens behind the Scheduler interface, invisible
  // to the NIC control plane.
  nic_cp_->InvalidateFastPath();
  return OkStatus();
}

StatusOr<Nanos> Kernel::LoadCustomPolicy(Uid caller, Chain chain,
                                         const overlay::Program& program) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  const size_t slot =
      chain == Chain::kOutput ? kCustomTxSlot : kCustomRxSlot;
  if (program.empty()) {
    // Clear: load the trivially-accepting program is not the same as an
    // empty slot (cost-wise), so wipe via a bitstream-free slot reset:
    // LoadOverlay rejects empty programs, so emulate with accept-all.
    const overlay::Program accept_all{overlay::Instruction::RetImm(1)};
    return nic_cp_->LoadOverlay(slot, accept_all);
  }
  return nic_cp_->LoadOverlay(slot, program);
}

Status Kernel::StartCapture(Uid caller,
                            std::optional<overlay::Program> filter) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  NORMAN_RETURN_IF_ERROR(sniffer_->SetFilter(std::move(filter)));
  sniffer_->Start();
  // The sniffer is an observer stage, but toggling capture changes its
  // per-packet instruction cost (the cached pure-instruction total).
  nic_cp_->InvalidateFastPath();
  return OkStatus();
}

Status Kernel::StopCapture(Uid caller) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  sniffer_->Stop();
  nic_cp_->InvalidateFastPath();
  return OkStatus();
}

// ---- Declarative configuration & tenancy ------------------------------------

Status Kernel::Configure(Uid caller, const NicConfig& config) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  // ---- Validate the whole config first: a rejected config applies
  // nothing, so the dataplane never ends up half-way between two states.
  if (config.flow_cache && config.flow_cache_entries == 0) {
    return InvalidArgumentError("config: flow_cache_entries must be > 0");
  }
  if (config.top_talkers && config.top_talker_entries == 0) {
    return InvalidArgumentError("config: top_talker_entries must be > 0");
  }
  if (config.shard_queues > nic::SmartNic::kMaxShardQueues) {
    return InvalidArgumentError(
        "config: shard_queues must be <= " +
        std::to_string(nic::SmartNic::kMaxShardQueues) + ", got " +
        std::to_string(config.shard_queues));
  }
  const uint16_t live_lanes = nic_cp_->shard_queues();
  if (live_lanes > 1 && config.shard_queues != live_lanes) {
    return FailedPreconditionError(
        "config: sharding is one-shot; the live dataplane has " +
        std::to_string(live_lanes) + " lanes and cannot be re-carved to " +
        std::to_string(config.shard_queues));
  }
  if (config.nat &&
      (config.nat_prefix_len == 0 || config.nat_prefix_len > 32)) {
    return InvalidArgumentError(
        "config: nat_prefix_len must be in [1, 32], got " +
        std::to_string(config.nat_prefix_len));
  }
  if (!config.nat && nat_ != nullptr) {
    return FailedPreconditionError(
        "config: NAT cannot be removed once enabled (live translations "
        "would strand)");
  }
  if (config.tenant_isolation != active_config_.tenant_isolation &&
      nic_cp_->scheduler()->backlog_packets() > 0) {
    return FailedPreconditionError(
        "config: cannot swap the TX discipline with packets in flight");
  }

  // ---- Apply. No step below can fail: every precondition the individual
  // operations check was validated above, so the CHECKs are invariants.
  if (config.shard_queues > live_lanes) {
    NORMAN_CHECK(nic_cp_->EnableSharding(config.shard_queues).ok());
  }
  if (config.flow_cache) {
    nic_cp_->EnableFlowCache(config.flow_cache_entries);
  } else if (nic_cp_->flow_cache().enabled()) {
    nic_cp_->DisableFlowCache();
  }
  if (config.top_talkers) {
    nic::TopTalkers* tt = nic_cp_->top_talkers();
    if (tt == nullptr || tt->max_entries() != config.top_talker_entries) {
      nic_cp_->EnableTopTalkers(config.top_talker_entries);
    }
  } else if (nic_cp_->top_talkers() != nullptr) {
    nic_cp_->DisableTopTalkers();
  }
  if (config.nat && nat_ == nullptr) {
    nat_ = std::make_unique<dataplane::NatEngine>(
        &nic_cp_->sram(), net::Ipv4Address{config.nat_private_prefix},
        config.nat_prefix_len, net::Ipv4Address{config.nat_public_ip});
    InstallPipeline();
  }
  nic_cp_->SetTenantIsolation(config.tenant_isolation);
  if (config.tenant_isolation != active_config_.tenant_isolation) {
    if (config.tenant_isolation) {
      InstallTenantQdisc();
    } else {
      // Back to the boot discipline: FIFO behind the transparent pacer.
      NORMAN_CHECK(
          InstallPacedQdisc(std::make_unique<nic::FifoScheduler>()).ok());
    }
  }
  if (config.maintenance) {
    StartMaintenance();
  } else {
    StopMaintenance();
  }
  active_config_ = config;
  return OkStatus();
}

void Kernel::InstallTenantQdisc() {
  // The wire-side half of tenant isolation: the shared TX wire is FIFO
  // inside any one discipline, so without this an aggressor's backlog sits
  // in front of the victim even when the pipeline shares are enforced. A
  // WFQ discipline classified on owner uid gives each tenant the same
  // weighted share of the wire as of the pipeline; unregistered uids fall
  // into class 0 (the system share).
  std::map<uint32_t, uint32_t> uid_to_class;
  for (const auto& [id, state] : tenants_) {
    uid_to_class[id] = id;
  }
  auto wfq = std::make_unique<dataplane::WfqQdisc>(
      dataplane::ClassifyByUid(std::move(uid_to_class)));
  for (const auto& [id, state] : tenants_) {
    wfq->SetWeight(id, static_cast<double>(state.spec.cycle_weight));
  }
  // Callers validated the empty-backlog precondition, so the swap holds.
  NORMAN_CHECK(InstallPacedQdisc(std::move(wfq)).ok());
}

StatusOr<Tenant> Kernel::CreateTenant(Uid caller, Uid tenant_uid,
                                      const TenantSpec& spec) {
  NORMAN_RETURN_IF_ERROR(RequireRoot(caller));
  if (tenant_uid == kRootUid) {
    return InvalidArgumentError(
        "tenant: uid 0 is the system tenant and cannot be quota'd");
  }
  if (spec.cycle_weight == 0) {
    return InvalidArgumentError("tenant: cycle_weight must be >= 1");
  }
  const TenantId id = tenant_uid;
  if (tenants_.contains(id)) {
    return AlreadyExistsError("tenant " + std::to_string(id) +
                              " already registered");
  }
  if (active_config_.tenant_isolation &&
      nic_cp_->scheduler()->backlog_packets() > 0) {
    return UnavailableError(
        "tenant: cannot re-weight the TX discipline with packets in flight");
  }
  tenants_.emplace(id, TenantState{spec});
  nic_cp_->ConfigureTenant(id, spec.cycle_weight, spec.sram_bytes);
  if (tenant_rules_installed_.insert(id).second) {
    // A tenant spending more than half of wall time throttled is starved —
    // either its weight is too small for its offered load or an aggressor
    // is saturating the shares. The rule reads healthy while the tenant is
    // absent or idle.
    const std::string ts = std::to_string(id);
    watchdog_->AddRateSpikeRule("tenant." + ts + ".starved",
                                "tenant." + ts + ".throttled_ns.rate",
                                "tenant." + ts, 0.5e9);
  }
  if (active_config_.tenant_isolation) {
    InstallTenantQdisc();
  }
  return Tenant(this, id, spec);
}

Status Kernel::ReleaseTenant(TenantId tenant) {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return NotFoundError("tenant " + std::to_string(tenant) +
                         " not registered");
  }
  // Close every connection charged to the tenant, oldest first.
  CloseMatching([tenant](const ConnRecord& rec) {
    return rec.ring_charged && rec.owner.owner_tenant == tenant;
  });
  // Free any chain slots the tenant's policies hold.
  if (tenant_tx_holder_ == tenant || tenant_rx_holder_ == tenant) {
    if (tenant_tx_holder_ == tenant) {
      tenant_tx_holder_ = kSystemTenant;
    }
    if (tenant_rx_holder_ == tenant) {
      tenant_rx_holder_ = kSystemTenant;
    }
    InstallPipeline();
    nic_cp_->InvalidateFastPath();
  }
  nic_cp_->RemoveTenant(tenant);
  tenants_.erase(it);
  if (active_config_.tenant_isolation &&
      nic_cp_->scheduler()->backlog_packets() == 0) {
    InstallTenantQdisc();
  }
  return OkStatus();
}

TenantId Kernel::TenantOf(Uid uid) const {
  return tenants_.contains(uid) ? uid : kSystemTenant;
}

const TenantSpec* Kernel::FindTenantSpec(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second.spec;
}

StatusOr<Nanos> Kernel::LoadTenantPolicy(TenantId tenant, Chain chain,
                                         const overlay::Program& program) {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return NotFoundError("tenant " + std::to_string(tenant) +
                         " not registered");
  }
  TenantId& holder =
      chain == Chain::kOutput ? tenant_tx_holder_ : tenant_rx_holder_;
  const size_t slot = chain == Chain::kOutput ? kTenantTxSlot : kTenantRxSlot;
  if (program.empty()) {
    if (holder != tenant) {
      return NotFoundError("tenant policy: slot not held by this tenant");
    }
    holder = kSystemTenant;
    if (it->second.overlay_slots_used > 0) {
      --it->second.overlay_slots_used;
    }
    InstallPipeline();
    nic_cp_->InvalidateFastPath();
    return static_cast<Nanos>(0);
  }
  if (holder != kSystemTenant && holder != tenant) {
    // Would-block, not a quota failure: nothing of the caller's is spent,
    // the slot is simply busy (see the convention in tenant.h).
    return UnavailableError("tenant policy: chain slot held by tenant " +
                            std::to_string(holder));
  }
  const bool newly_held = holder != tenant;
  if (newly_held &&
      it->second.overlay_slots_used >= it->second.spec.overlay_slots) {
    nic_cp_->tenants().CountDenied(tenant);
    return ResourceExhaustedError(
        "tenant " + std::to_string(tenant) +
        " overlay slot quota exhausted (" +
        std::to_string(it->second.spec.overlay_slots) + " admitted)");
  }
  auto load = nic_cp_->LoadOverlay(slot, program);
  if (!load.ok()) {
    return load;
  }
  if (newly_held) {
    holder = tenant;
    ++it->second.overlay_slots_used;
    InstallPipeline();
  }
  nic_cp_->InvalidateFastPath();
  return load;
}

// ---- Tenant (RAII handle) ---------------------------------------------------

Tenant::~Tenant() { Release(); }

Tenant& Tenant::operator=(Tenant&& other) noexcept {
  if (this != &other) {
    Release();
    MoveFrom(other);
  }
  return *this;
}

void Tenant::Release() {
  if (kernel_ != nullptr) {
    (void)kernel_->ReleaseTenant(id_);
    kernel_ = nullptr;
  }
}

Status Kernel::SoftwareTransmit(net::ConnectionId conn_id,
                                net::PacketPtr packet) {
  const ConnRecord* rec = conns_.Get(conn_id);
  if (rec == nullptr || !rec->software_fallback) {
    return NotFoundError("software tx: not a fallback connection");
  }
  // Host kernel-stack costs: syscall + per-packet processing + copy. All of
  // it charged to the fallback connection's owner — the slow path is where
  // per-process attribution matters most (§5: fallback traffic must not
  // hide inside an anonymous kernel bucket).
  telemetry::ProfScope slow_scope(prof_, prof_slow_site_);
  const uint32_t owner_pid = rec->owner.owner_pid;
  packet->meta().owner_pid = owner_pid;
  packet->meta().tenant = rec->owner.owner_tenant;
  sim_->tracepoints().Emit(
      telemetry::Probe::kSlowPath, telemetry::Tracepoints::kCoreHost,
      owner_pid, static_cast<uint64_t>(telemetry::SlowPathOp::kSoftTransmit),
      static_cast<uint64_t>(conn_id), packet->size());
  const auto& cost = nic_->cost();
  const Nanos cpu = cost.syscall_ns + cost.kernel_stack_per_packet_ns +
                    cost.CopyCost(packet->size());
  const Nanos ready = kernel_core_.Serve(sim_->Now(), cpu);
  if (prof_->enabled()) {
    prof_->ChargeCurrent(prof_core_kernel_, prof_->OwnerSlot(owner_pid), cpu);
  }
  // Software-path packets still traverse the NIC pipeline (they are not
  // exempt from interposition) via an anonymous descriptor: we deliver them
  // through a temporary flow-less injection, tagging fallback in metadata.
  packet->meta().software_fallback = true;
  packet->meta().connection = conn_id;
  sim_->ScheduleAt(ready, [this, p = std::move(packet)]() mutable {
    // Software-path packets still traverse the NIC TX pipeline — they are
    // not exempt from interposition — via the host injection port.
    nic_->InjectHostPacket(std::move(p), sim_->Now());
  });
  return OkStatus();
}

}  // namespace norman::kernel
