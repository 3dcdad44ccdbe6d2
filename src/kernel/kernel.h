// The in-kernel control plane (§4.2, §4.4).
//
// The kernel is the only holder of the SmartNIC's control-plane capability.
// It allocates network resources to applications (connections, rings,
// doorbells), stamps process identity into the NIC flow table, composes and
// configures the on-NIC dataplane (filter chains, qdiscs, sniffer taps, ARP,
// conntrack, NAT), monitors notification queues to wake blocked threads,
// and services the administrative tools (norman-iptables/tc/tcpdump/
// netstat/arp in src/tools) — all of which "continue to be routed through
// the kernel".
#ifndef NORMAN_KERNEL_KERNEL_H_
#define NORMAN_KERNEL_KERNEL_H_

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/health.h"
#include "src/common/slab_map.h"
#include "src/common/status.h"
#include "src/common/timeseries.h"
#include "src/dataplane/arp_service.h"
#include "src/dataplane/conntrack.h"
#include "src/dataplane/filter_engine.h"
#include "src/dataplane/icmp_responder.h"
#include "src/dataplane/nat.h"
#include "src/dataplane/overlay_stage.h"
#include "src/dataplane/qdisc.h"
#include "src/dataplane/rate_limiter.h"
#include "src/dataplane/sniffer.h"
#include "src/dataplane/spoof_guard.h"
#include "src/kernel/app_port.h"
#include "src/kernel/process.h"
#include "src/kernel/tenant.h"
#include "src/net/types.h"
#include "src/nic/smart_nic.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace norman::kernel {

// Which filter chain a rule goes to (iptables INPUT/OUTPUT equivalents).
enum class Chain { kInput, kOutput };

// NIC overlay slot allocation: 0/1 carry tenant-loaded policies (charged
// against TenantSpec::overlay_slots); 2/3 back the kernel's custom-policy
// stages.
inline constexpr size_t kTenantTxSlot = 0;
inline constexpr size_t kTenantRxSlot = 1;
inline constexpr size_t kCustomTxSlot = 2;
inline constexpr size_t kCustomRxSlot = 3;

struct ConnectOptions {
  net::IpProto proto = net::IpProto::kUdp;
  bool notify_rx = false;        // post notifications for blocking recv
  bool notify_tx_drain = false;  // post notifications for blocking send
  uint16_t local_port = 0;       // 0 = ephemeral
  // When NIC SRAM is exhausted, fall back to the host software path instead
  // of failing (§5 mitigation). Fallback connections have no NIC ring; their
  // traffic is charged host-CPU costs.
  bool allow_software_fallback = false;
};

struct ConnectionInfo {
  net::ConnectionId conn_id = net::kUnknownConnection;
  net::FiveTuple tuple;
  Pid pid = 0;
  Uid uid = 0;
  std::string comm;
  bool software_fallback = false;
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
};

class Kernel {
 public:
  struct Options {
    net::Ipv4Address host_ip = net::Ipv4Address::FromOctets(10, 0, 0, 1);
    net::MacAddress host_mac = net::MacAddress::ForHost(1);
    net::MacAddress gateway_mac = net::MacAddress::ForHost(0xfffffe);
    // Sweep period for conntrack GC and notification polling fallback.
    Nanos housekeeping_period = 10 * kMillisecond;
  };

  Kernel(sim::Simulator* sim, nic::SmartNic* nic, Options options);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Simulator* simulator() { return sim_; }
  ProcessTable& processes() { return processes_; }
  const ProcessTable& processes() const { return processes_; }
  const Options& options() const { return options_; }

  // ---- Connection lifecycle (connect(2)-equivalents) ---------------------
  StatusOr<AppPort> Connect(Pid pid, net::Ipv4Address remote_ip,
                            uint16_t remote_port, const ConnectOptions& opts);
  Status Close(net::ConnectionId conn_id);
  // exit(2): closes the pid's connections oldest first, unbinds its
  // listeners, then marks it exited, so every byte of NIC state it held
  // (flows, SRAM, rings) is refunded.
  Status Exit(Pid pid);

  // ---- Server side: listen(2)/accept(2) ----------------------------------
  // Registers `pid` as the listener on local_port/proto. The first inbound
  // packet of each new peer auto-installs a NIC connection stamped with the
  // listener's identity and queues it for Accept; the packet itself lands
  // in the new connection's RX ring (nothing is lost).
  Status Listen(Pid pid, uint16_t local_port, net::IpProto proto,
                const ConnectOptions& accept_opts = {});
  // Pops one pending inbound connection; Unavailable when none is waiting.
  // Only the listening pid may accept.
  StatusOr<AppPort> Accept(Pid pid, uint16_t local_port, net::IpProto proto);
  // Unbinds the listener and closes every connection still waiting in its
  // accept queue.
  Status StopListening(Pid pid, uint16_t local_port, net::IpProto proto);

  // netstat's data source: every live connection with owner + counters,
  // newest first.
  std::vector<ConnectionInfo> ListConnections() const;

  // ---- Blocking I/O (§4.3) ------------------------------------------------
  // Registers a continuation to run when the next RX-data notification for
  // `conn_id` arrives. Charges a context switch to the kernel core. The
  // connection must have been opened with notify_rx. The continuation is a
  // sim::InlineCallback: a capture of up to 64 B (the socket's receive and
  // send continuations are 40 B and 64 B) is stored inline, and the waiter
  // it lives in comes from a kernel-wide slab, so a block allocates nothing
  // once the slab has grown. Waiters on one connection wake in FIFO order.
  Status BlockOnRx(net::ConnectionId conn_id, sim::InlineCallback resume);
  // Same for TX-ring drain.
  Status BlockOnTxDrain(net::ConnectionId conn_id, sim::InlineCallback resume);

  // Kernel CPU time spent on wakeups (context switches) — E5's metric.
  const sim::Resource& kernel_core() const { return kernel_core_; }

  // ---- Declarative NIC configuration (root-only) --------------------------
  // Applies a whole NicConfig atomically: every field is validated before
  // any of them takes effect, so a rejected config leaves the dataplane
  // exactly as it was (the error names the offending field). The one way
  // to configure the NIC from above the kernel; it drives the control
  // plane's EnableFlowCache/EnableSharding/EnableTopTalkers primitives.
  // Re-applying active_config() changes nothing except restarting a
  // maintenance tick that parked itself.
  Status Configure(Uid caller, const NicConfig& config);
  const NicConfig& active_config() const { return active_config_; }

  // ---- Multi-tenant isolation (root-only) ---------------------------------
  // Registers `tenant_uid`'s resource envelope and returns the RAII handle
  // that owns it; the handle's destruction (or Release) unwinds everything:
  // quotas cleared, WFQ share removed, the tenant's connections closed, any
  // held overlay slots freed. Tenant identity is the uid itself; every
  // connection a process of that uid opens is stamped and charged to it.
  // Fails kAlreadyExists if the uid is already a tenant.
  StatusOr<Tenant> CreateTenant(Uid caller, Uid tenant_uid,
                                const TenantSpec& spec);
  // Unwinds a tenant by id (the Tenant handle calls this).
  Status ReleaseTenant(TenantId tenant);
  // Tenant a uid's traffic is charged to; kSystemTenant when unregistered.
  TenantId TenantOf(Uid uid) const;
  const TenantSpec* FindTenantSpec(TenantId tenant) const;
  size_t tenant_count() const { return tenants_.size(); }

  // Loads a tenant-owned overlay program into the chain's tenant slot,
  // charged against TenantSpec::overlay_slots. kResourceExhausted when the
  // tenant's slot quota is spent; kUnavailable when another tenant holds
  // the chain's slot (retry later — nothing of the caller's is consumed).
  // An empty program releases the slot.
  StatusOr<Nanos> LoadTenantPolicy(TenantId tenant, Chain chain,
                                   const overlay::Program& program);

  // ---- Administrative configuration (root-only syscalls) -----------------
  // iptables: first-match rule chains compiled to the NIC overlay.
  StatusOr<size_t> AppendFilterRule(Uid caller, Chain chain,
                                    const dataplane::FilterRule& rule);
  Status DeleteFilterRule(Uid caller, Chain chain, size_t index);
  Status FlushFilterRules(Uid caller, Chain chain);
  const dataplane::FilterEngine& filter(Chain chain) const;

  // tc: replace the TX queueing discipline on the NIC. The kernel wraps
  // every discipline in a transparent per-connection pacer (rate limits
  // survive qdisc swaps).
  Status SetQdisc(Uid caller, std::unique_ptr<nic::Scheduler> qdisc);

  // Per-connection TX rate limit enforced by the NIC pacer (SENIC-style;
  // also the knob a congestion-control module drives). rate 0 clears.
  Status SetConnRateLimit(Uid caller, net::ConnectionId conn,
                          BitsPerSecond rate_bps, uint64_t burst_bytes);

  // Packets contending for the wire inside the TX discipline (excludes
  // per-connection pacer queues) — the congestion signal for rate control.
  size_t LinkBacklog() const { return pacer_->inner_backlog(); }

  // Custom overlay policies (§4.4's "add eBPF support" path, without the
  // bitstream update): verifies + loads `program` into the chain's reserved
  // NIC slot; it runs as the last stage of that chain. Returns the hardware
  // load time. An empty program clears the slot.
  StatusOr<Nanos> LoadCustomPolicy(Uid caller, Chain chain,
                                   const overlay::Program& program);

  // On-NIC ICMP echo responder stats.
  const dataplane::IcmpResponder& icmp() const { return *icmp_; }

  // TX anti-spoofing stats (frames dropped for forged headers).
  const dataplane::SpoofGuard& spoof_guard() const { return *spoof_guard_; }

  // tcpdump: the NIC sniffer tap (sees both directions).
  Status StartCapture(Uid caller,
                      std::optional<overlay::Program> filter = std::nullopt);
  Status StopCapture(Uid caller);
  const dataplane::SnifferTap& sniffer() const { return *sniffer_; }

  // arp: the NIC's ARP cache and TX-side ARP observations.
  const dataplane::ArpService& arp() const { return *arp_; }

  // conntrack view.
  const dataplane::Conntrack& conntrack() const { return *conntrack_; }

  // Source NAT (NicConfig::nat); null until Configure enables it.
  const dataplane::NatEngine* nat() const { return nat_.get(); }

  // Helper for rules that match on a process name: interned comm id.
  uint32_t CommIdFor(const std::string& comm) {
    return processes_.InternComm(comm);
  }

  // Direct access for experiments: the NIC control-plane capability stays
  // inside the kernel, but benchmarks need read access to NIC state.
  nic::SmartNic::ControlPlane& nic_control() { return *nic_cp_; }

  // Software-fallback TX: used by AppPort-less fallback connections. The
  // packet is charged host-kernel costs and then injected at the NIC.
  Status SoftwareTransmit(net::ConnectionId conn_id, net::PacketPtr packet);

  // On-demand housekeeping (conntrack GC). Tools call this before reads.
  void Housekeeping();

  // ---- Continuous monitoring (the time dimension of interposition) -------
  // NicConfig::maintenance runs the periodic maintenance tick: every
  // housekeeping_period it runs conntrack expiry, scrapes the registry into
  // the time-series sampler, and evaluates the health watchdog — all on the
  // virtual clock.
  //
  // Opt-in and self-limiting: the tick re-arms only while other events are
  // pending, so an idle world still terminates (a free-running timer would
  // keep the DES alive forever) and default goldens are unaffected.
  // Re-applying active_config() restarts a parked tick.
  bool maintenance_running() const { return maintenance_on_; }
  uint64_t maintenance_ticks() const { return maintenance_ticks_; }

  telemetry::TimeSeriesSampler& sampler() { return *sampler_; }
  const telemetry::TimeSeriesSampler& sampler() const { return *sampler_; }
  telemetry::HealthWatchdog& watchdog() { return *watchdog_; }
  const telemetry::HealthWatchdog& watchdog() const { return *watchdog_; }

 private:
  Status RequireRoot(Uid caller) const;
  void InstallPipeline();
  Status Block(net::ConnectionId conn_id, nic::NotificationKind kind,
               sim::InlineCallback resume);
  void PumpNotifications(Pid pid);
  void StartMaintenance();
  void StopMaintenance() { maintenance_on_ = false; }
  void MaintenanceTick();
  void InstallDefaultHealthRules();
  // (Re)installs the per-tenant WFQ TX discipline classifying on owner uid
  // with the registered cycle weights — the wire-side half of tenant
  // isolation (the pipeline half lives in the NIC's TenantTable).
  void InstallTenantQdisc();
  // Swaps `qdisc`, wrapped in a new transparent per-connection pacer, into
  // the NIC and re-applies the configured rate limits, so they survive
  // every discipline swap.
  Status InstallPacedQdisc(std::unique_ptr<nic::Scheduler> qdisc);

  sim::Simulator* sim_;
  nic::SmartNic* nic_;
  Options options_;
  // Aggregate accept-queue occupancy across listeners ("queue.kernel.accept").
  telemetry::QueueDepthGauges accept_gauges_;
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler_;
  std::unique_ptr<telemetry::HealthWatchdog> watchdog_;
  bool maintenance_on_ = false;
  uint64_t maintenance_ticks_ = 0;
  std::unique_ptr<nic::SmartNic::ControlPlane> nic_cp_;

  ProcessTable processes_;

  // On-NIC dataplane components (owned by the kernel, installed on the NIC).
  std::unique_ptr<dataplane::FilterEngine> filter_input_;
  std::unique_ptr<dataplane::FilterEngine> filter_output_;
  std::unique_ptr<dataplane::SnifferTap> sniffer_;
  std::unique_ptr<dataplane::ArpService> arp_;
  std::unique_ptr<dataplane::IcmpResponder> icmp_;
  std::unique_ptr<dataplane::Conntrack> conntrack_;
  std::unique_ptr<dataplane::NatEngine> nat_;
  std::unique_ptr<dataplane::SpoofGuard> spoof_guard_;
  std::unique_ptr<dataplane::OverlayStage> custom_tx_;
  std::unique_ptr<dataplane::OverlayStage> custom_rx_;
  // Tenant overlay stages (slots kTenantTxSlot/kTenantRxSlot). They join
  // the chains only while a tenant program is loaded, so default pipelines
  // keep their stage count (and their pinned golden timings).
  std::unique_ptr<dataplane::OverlayStage> tenant_tx_;
  std::unique_ptr<dataplane::OverlayStage> tenant_rx_;
  TenantId tenant_tx_holder_ = kSystemTenant;  // kSystemTenant = slot free
  TenantId tenant_rx_holder_ = kSystemTenant;

  // ---- Tenancy registry ----------------------------------------------------
  struct TenantState {
    TenantSpec spec;
    uint64_t ring_bytes_used = 0;     // TX+RX ring working sets charged
    uint32_t overlay_slots_used = 0;  // chain slots currently held
  };
  std::map<TenantId, TenantState> tenants_;
  // Tenants that already have a "tenant.<id>.starved" watchdog rule; rules
  // outlive releases (an absent series reads healthy) and must not stack.
  std::set<TenantId> tenant_rules_installed_;
  NicConfig active_config_;
  // Owned by the NIC once installed; kernel keeps the typed handle.
  dataplane::PacedScheduler* pacer_ = nullptr;

  sim::Resource kernel_core_{"kernel.core"};

  // Cycle attribution (src/common/profiler.h): the kernel registers its core
  // and charges every kernel_core_.Serve under a named scope, attributed to
  // the pid the work was done for.
  telemetry::Profiler* prof_ = nullptr;
  uint32_t prof_core_kernel_ = 0;
  telemetry::ProfSite prof_notify_site_{"kernel.notify"};
  telemetry::ProfSite prof_irq_site_{"kernel.irq"};
  telemetry::ProfSite prof_slow_site_{"kernel.slow_path"};
  telemetry::ProfSite prof_maint_site_{"kernel.maintenance"};

  net::ConnectionId next_conn_id_ = 1;
  uint16_t next_ephemeral_port_ = 30000;

  // The kernel's one record per live connection, NIC-backed or software
  // fallback: written by AdmitConnection, erased by Close.
  static constexpr uint32_t kNoWaiter = ~uint32_t{0};
  struct ConnRecord {
    overlay::ConnMetadata owner;
    net::FiveTuple tuple;
    bool software_fallback = false;
    bool ring_charged = false;    // rings charged to the owner's tenant
    bool pending_accept = false;  // queued on its listener, not accepted
    // TX rate limit (rate 0 = none), re-applied to every new pacer.
    BitsPerSecond rate_bps = 0;
    uint64_t burst_bytes = 0;
    // FIFO list of blocked waiters, linked by index through waiters_.
    uint32_t first_waiter = kNoWaiter;
    uint32_t last_waiter = kNoWaiter;
  };
  // connect() and accept()'s one admission path. A NIC SRAM refusal
  // becomes a software-fallback record when `allow_fallback` is set; any
  // other refusal records nothing.
  Status AdmitConnection(const Process& proc, net::ConnectionId conn_id,
                         const net::FiveTuple& tuple,
                         const ConnectOptions& opts, bool allow_fallback);
  AppPort PortFor(net::ConnectionId conn_id, const net::FiveTuple& tuple);
  // Closes every connection whose record `match` selects, oldest (lowest
  // id) first.
  template <typename Pred>
  void CloseMatching(Pred match);
  struct Waiter {
    nic::NotificationKind kind = nic::NotificationKind::kRxData;
    sim::InlineCallback resume;
    uint32_t next = kNoWaiter;  // next in its connection's list, or free
  };
  uint32_t AllocWaiter(nic::NotificationKind kind, sim::InlineCallback resume);
  void FreeWaiter(uint32_t w);

  SlabMap<net::ConnectionId, ConnRecord> conns_;
  // Kernel-wide waiter slab; free slots are chained from free_waiter_.
  std::vector<Waiter> waiters_;
  uint32_t free_waiter_ = kNoWaiter;
  // pid -> waiters parked on its connections. Non-zero keeps the pid's
  // notification interrupt armed after a pump.
  SlabMap<Pid, uint32_t> blocked_;

  struct ListenState {
    Pid pid = 0;
    ConnectOptions accept_opts;
    std::deque<net::ConnectionId> accept_queue;
  };
  // (local_port, proto) -> listener.
  std::map<std::pair<uint16_t, uint8_t>, ListenState> listeners_;
  static std::pair<uint16_t, uint8_t> KeyOf(uint16_t local_port,
                                            net::IpProto proto) {
    return {local_port, static_cast<uint8_t>(proto)};
  }
  // Slow-path drop accounting ("kernel.drop.*" in the registry): packets
  // the NIC diverted to the host that the kernel then had to discard.
  telemetry::Counter* drop_malformed_ = nullptr;
  telemetry::Counter* drop_unmatched_ = nullptr;
  telemetry::Counter* drop_sram_exhausted_ = nullptr;
  // Notifications consumed by PumpNotifications, added once per bulk
  // drain. The per-queue breakdown (kernel.notify.q<N>.drained) keys on
  // Notification::queue so a sharded world's per-lane completion flow is
  // visible end to end; registered eagerly for every possible lane
  // (manifest shape-stability).
  telemetry::Counter* notify_drained_ = nullptr;
  std::array<telemetry::Counter*, nic::SmartNic::kMaxShardQueues>
      notify_drained_q_{};

  // Handles packets the NIC diverted to the host (unmatched RX -> listen
  // dispatch; TX fallback completions).
  void HandleHostPacket(net::PacketPtr packet, net::Direction dir);
};

}  // namespace norman::kernel

#endif  // NORMAN_KERNEL_KERNEL_H_
