// Per-tenant NIC resource shares: the enforcement half of multi-tenant
// isolation (OSMOSIS-style SmartNIC tenancy).
//
// The paper's argument is that the kernel's process view must extend onto
// the dataplane; this table is where that view becomes *enforcement*. Each
// registered tenant gets
//   * an SRAM byte quota (enforced by SramAllocator's tenant dimension),
//   * an integer WFQ weight over NIC pipeline cycles, per lane.
//
// The cycle share is a per-tenant *virtual server* over each lane's
// pipeline, not a gate in front of the shared sim::Resource: stretching a
// tenant's own busy horizon by active_weight/weight means an aggressor's
// backlog accumulates on the aggressor's horizon only. Serving gated work
// through the shared FIFO cursor instead would push every later arrival —
// including the victim's — behind the aggressor's backlog, which is exactly
// the starvation this exists to prevent. The shared resource still gets the
// real occupancy via AddBusy so utilization and the profiler's
// attributed+unaccounted==busy invariant are unchanged.
//
// All arithmetic is integer and all iteration is over a std::map, so runs
// are bit-deterministic. With the table disabled (the default) no call site
// takes this path at all and trajectories are bit-identical to a build
// without tenancy.
#ifndef NORMAN_NIC_TENANT_TABLE_H_
#define NORMAN_NIC_TENANT_TABLE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/units.h"

namespace norman::nic {

class TenantTable {
 public:
  // Matches SmartNic::kMaxShardQueues (static_asserted in smart_nic.cc).
  static constexpr uint16_t kMaxLanes = 8;

  explicit TenantTable(telemetry::MetricsRegistry* registry)
      : registry_(registry),
        tenants_(registry->GetGauge("tenancy.tenants")),
        total_throttled_(registry->GetCounter("tenancy.throttled_ns")),
        denied_(registry->GetCounter("tenancy.denied")) {}

  // Cycle-share enforcement is armed only while enabled AND at least one
  // tenant is registered; flipping it on with no tenants is a no-op.
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Registers (or re-weights) a tenant. weight >= 1; a heavier tenant's
  // packets see proportionally less stretch under contention. Creates the
  // tenant.<id>.* metric bundle on first sight.
  void Configure(uint32_t tenant, uint32_t weight);

  // Drops the tenant's share. Its metrics remain registered (metric
  // registries are append-only) but stop moving.
  void Remove(uint32_t tenant);

  bool Gated(uint32_t tenant) const {
    return enabled_ && tenant != 0 && shares_.count(tenant) != 0;
  }

  // Admits `cost` ns of pipeline work by `tenant` on `lane` (the NIC lane
  // serving the packet; out-of-range lanes clamp to lane 0): returns the
  // time the work may start (>= now; the gap is recorded as throttled
  // time) and advances the tenant's virtual horizon by cost stretched by
  // active_weight_sum / weight.
  Nanos Admit(uint32_t tenant, uint16_t lane, Nanos now, Nanos cost);

  // Attribution hooks (no-ops for unknown tenants).
  void CountDrop(uint32_t tenant);
  void CountDenied(uint32_t tenant);
  void SetSramBytes(uint32_t tenant, uint64_t bytes);

  // Introspection for tools/tests.
  struct ShareReport {
    uint32_t tenant = 0;
    uint32_t weight = 0;
    uint64_t pkts = 0;
    uint64_t cycles_ns = 0;
    uint64_t throttled_ns = 0;
    uint64_t drops = 0;
    int64_t sram_bytes = 0;
    uint64_t denied = 0;
  };
  std::vector<ShareReport> Reports() const;
  size_t size() const { return shares_.size(); }
  uint64_t throttled_ns(uint32_t tenant) const;

 private:
  struct Share {
    uint32_t weight = 1;
    std::array<Nanos, kMaxLanes> busy_until{};
    uint64_t denied = 0;
    telemetry::Counter* pkts = nullptr;
    telemetry::Counter* cycles_ns = nullptr;
    telemetry::Counter* throttled_ns = nullptr;
    telemetry::Counter* drops = nullptr;
    telemetry::Gauge* sram_bytes = nullptr;
  };

  telemetry::MetricsRegistry* registry_;
  bool enabled_ = false;
  std::map<uint32_t, Share> shares_;  // ordered: deterministic iteration
  telemetry::Gauge* tenants_;
  telemetry::Counter* total_throttled_;
  telemetry::Counter* denied_;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_TENANT_TABLE_H_
