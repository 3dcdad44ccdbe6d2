// Multi-tenant resource governance (OSMOSIS-style SmartNIC isolation).
//
// Hypervisors and in-network devices cannot tell tenants apart at the
// dataplane; the kernel can, because it owns the process table and the NIC
// control-plane capability (§4.2). A tenant here is a uid-scoped resource
// envelope the kernel enforces at every NIC charge point: SRAM bytes (flow
// table, conntrack, flow-cache partitions, top-talkers), ring/notify
// memory, overlay program slots, and a WFQ share of NIC pipeline cycles.
//
// Admission-failure semantics follow the socket.h convention: a request
// that exceeds the tenant's envelope fails with kResourceExhausted (the
// quota is spent — retry after releasing something), while a shared slot
// currently held by another tenant fails with kUnavailable (would-block —
// retry later without releasing anything of your own).
#ifndef NORMAN_KERNEL_TENANT_H_
#define NORMAN_KERNEL_TENANT_H_

#include <cstdint>
#include <utility>

#include "src/kernel/process.h"

namespace norman::kernel {

class Kernel;

// Tenants are derived from user identity: tenant id == uid. Uid 0 (root)
// maps to the system tenant, which is never quota'd — unmatched wire
// traffic and kernel-originated state also land there.
using TenantId = uint32_t;
inline constexpr TenantId kSystemTenant = 0;

// Declarative per-tenant resource envelope. Zero means "unlimited" for the
// byte quotas and "none admitted" for the overlay slot count (loading a
// program is a privilege, not a default).
struct TenantSpec {
  uint64_t sram_bytes = 0;     // NIC SRAM quota across every category
  uint32_t cycle_weight = 1;   // WFQ weight over pipeline cycles (>= 1)
  uint32_t overlay_slots = 0;  // custom overlay programs the tenant may hold
  uint64_t ring_bytes = 0;     // TX+RX ring working-set budget
};

// Whole-NIC configuration, applied atomically by Kernel::Configure: the
// entire struct is validated before any field takes effect, so a rejected
// config leaves the dataplane exactly as it was.
struct NicConfig {
  // Megaflow-style verdict cache (fastpath.* metrics).
  bool flow_cache = false;
  size_t flow_cache_entries = 1024;
  // Per-flow heavy-hitter accounting for norman-top (flow.* metrics).
  bool top_talkers = false;
  size_t top_talker_entries = 64;
  // Dataplane lanes (0 or 1 = the NIC's one lane). Sharding is one-shot:
  // once carved, a live dataplane cannot be re-carved or un-carved.
  uint16_t shard_queues = 0;
  // Source NAT for a private prefix.
  bool nat = false;
  uint32_t nat_private_prefix = 0;  // host byte order
  uint32_t nat_prefix_len = 0;
  uint32_t nat_public_ip = 0;  // host byte order
  // Periodic maintenance tick (conntrack GC + sampler + watchdog).
  bool maintenance = false;
  // WFQ cycle-share enforcement for registered tenants, plus a per-tenant
  // WFQ TX discipline so the shared wire follows the same shares.
  bool tenant_isolation = false;
};

// RAII tenant handle (mirrors norman::Listener): Kernel::CreateTenant
// registers the envelope and returns this; destruction releases the
// tenant — quotas cleared, cycle share removed, owned connections closed,
// held overlay slots freed. Move-only, like every kernel capability.
class Tenant {
 public:
  Tenant() = default;
  ~Tenant();

  Tenant(Tenant&& other) noexcept { MoveFrom(other); }
  Tenant& operator=(Tenant&& other) noexcept;
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  bool valid() const { return kernel_ != nullptr; }
  TenantId id() const { return id_; }
  const TenantSpec& spec() const { return spec_; }

  // Releases the tenant early (the destructor also does this).
  void Release();

 private:
  friend class Kernel;
  Tenant(Kernel* kernel, TenantId id, const TenantSpec& spec)
      : kernel_(kernel), id_(id), spec_(spec) {}

  void MoveFrom(Tenant& other) noexcept {
    kernel_ = std::exchange(other.kernel_, nullptr);
    id_ = other.id_;
    spec_ = other.spec_;
  }

  Kernel* kernel_ = nullptr;
  TenantId id_ = kSystemTenant;
  TenantSpec spec_;
};

}  // namespace norman::kernel

#endif  // NORMAN_KERNEL_TENANT_H_
