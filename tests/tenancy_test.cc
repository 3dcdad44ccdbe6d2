// Multi-tenant isolation: the WFQ cycle-share arithmetic in TenantTable,
// the kernel's quota admission at every charge point (ring memory, SRAM,
// overlay slots), the declarative Configure contract (validate everything,
// then apply — a rejected config changes nothing), tenant teardown
// reclaim, and the bit-determinism guarantee that registered-but-idle
// tenancy leaves trajectories untouched.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/metrics.h"
#include "src/nic/ring.h"
#include "src/nic/sram.h"
#include "src/nic/tenant_table.h"
#include "src/norman/listener.h"
#include "src/norman/socket.h"
#include "src/overlay/assembler.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using kernel::Chain;
using kernel::kRootUid;
using kernel::NicConfig;
using kernel::TenantSpec;

// ---- TenantTable: WFQ virtual-server arithmetic ---------------------------

TEST(TenantTableTest, GatedOnlyWhenEnabledAndRegistered) {
  telemetry::MetricsRegistry registry;
  nic::TenantTable table(&registry);
  table.Configure(7, 2);
  EXPECT_FALSE(table.Gated(7)) << "disabled table must gate nobody";
  table.SetEnabled(true);
  EXPECT_TRUE(table.Gated(7));
  EXPECT_FALSE(table.Gated(8)) << "unregistered tenant";
  EXPECT_FALSE(table.Gated(0)) << "the system tenant is never gated";
  table.Remove(7);
  EXPECT_FALSE(table.Gated(7));
}

TEST(TenantTableTest, SoloTenantSeesNoStretch) {
  telemetry::MetricsRegistry registry;
  nic::TenantTable table(&registry);
  table.SetEnabled(true);
  table.Configure(1, 3);
  // Alone on the lane, stretched == cost: the horizon advances at real
  // time, so work arriving after the horizon is never throttled.
  EXPECT_EQ(table.Admit(1, 0, 0, 100), 0);
  EXPECT_EQ(table.Admit(1, 0, 100, 100), 100);
  EXPECT_EQ(table.Admit(1, 0, 200, 100), 200);
  EXPECT_EQ(table.throttled_ns(1), 0u);
}

TEST(TenantTableTest, ContendedSharesFollowWeights) {
  telemetry::MetricsRegistry registry;
  nic::TenantTable table(&registry);
  table.SetEnabled(true);
  table.Configure(1, 3);  // heavy share
  table.Configure(2, 1);  // light share
  // Both flood at t=0 with equal per-packet cost. The light tenant's
  // horizon stretches by active_weight/weight = 4x per packet, the heavy
  // one's by 4/3x, so the light tenant queues ~3x deeper behind itself.
  for (int i = 0; i < 8; ++i) {
    table.Admit(1, 0, 0, 100);
    table.Admit(2, 0, 0, 100);
  }
  const auto reports = table.Reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].tenant, 1u);
  EXPECT_EQ(reports[1].tenant, 2u);
  // Equal work admitted...
  EXPECT_EQ(reports[0].cycles_ns, 800u);
  EXPECT_EQ(reports[1].cycles_ns, 800u);
  // ...but the light tenant waits behind its own share ~3x longer.
  EXPECT_GT(reports[1].throttled_ns, 2 * reports[0].throttled_ns);
  // The aggressor's backlog lives on its own horizon: the exact start
  // times are pinned (regression guard for the virtual-server math).
  EXPECT_EQ(table.Admit(2, 0, 0, 100), 3200);  // 8 * 400ns of stretch
  EXPECT_EQ(table.Admit(1, 0, 0, 100),
            100 + 7 * 133);  // first admit unstretched, then 100*4/3 each
}

TEST(TenantTableTest, LanesAreIndependent) {
  telemetry::MetricsRegistry registry;
  nic::TenantTable table(&registry);
  table.SetEnabled(true);
  table.Configure(1, 1);
  for (int i = 0; i < 4; ++i) {
    table.Admit(1, 0, 0, 100);  // pile backlog onto lane 0
  }
  // Lane 1 has its own horizon: no carry-over throttle.
  EXPECT_EQ(table.Admit(1, 1, 0, 100), 0);
  // Out-of-range lanes clamp to lane 0, which is now backlogged.
  EXPECT_GT(table.Admit(1, nic::TenantTable::kMaxLanes, 0, 100), 0);
}

// ---- SramAllocator: the per-tenant quota dimension ------------------------

TEST(SramQuotaTest, TenantQuotaCapsAllocations) {
  nic::SramAllocator sram(16 * 1024);
  sram.SetTenantQuota(42, 256);
  EXPECT_TRUE(sram.Allocate("flow_table", 200, /*pid=*/5, /*tenant=*/42).ok());
  // Over quota: the tenant's own budget refuses, global SRAM is untouched.
  const Status over = sram.Allocate("flow_table", 200, 5, 42);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(sram.TenantUsed(42), 200u);
  // Another tenant (and the system share) are unaffected by 42's limit.
  EXPECT_TRUE(sram.Allocate("flow_table", 200, 6, 43).ok());
  EXPECT_TRUE(sram.Allocate("flow_table", 200, 0, 0).ok());
  // Free refunds the tenant dimension too.
  sram.Free("flow_table", 200, 42);
  EXPECT_EQ(sram.TenantUsed(42), 0u);
  EXPECT_TRUE(sram.Allocate("flow_table", 200, 5, 42).ok());
}

// ---- Kernel admission: ring budget, SRAM envelope, overlay slots ----------

TEST(TenancyTest, RingBudgetAdmission) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "app");

  TenantSpec spec;
  spec.ring_bytes = 2 * nic::kHotWorkingSetBytes;  // exactly one connection
  auto tenant = k.CreateTenant(kRootUid, 1001, spec);
  ASSERT_TRUE(tenant.ok());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto first = Socket::Connect(&k, pid, peer, 1000, {});
  ASSERT_TRUE(first.ok());
  // The budget is spent: the second connection is refused before any NIC
  // state is touched.
  auto second = Socket::Connect(&k, pid, peer, 2000, {});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  // Close refunds the working sets; the retry is admitted.
  ASSERT_TRUE(first->Close().ok());
  auto retry = Socket::Connect(&k, pid, peer, 3000, {});
  EXPECT_TRUE(retry.ok());
}

TEST(TenancyTest, RingBudgetRefusalNeverFallsBack) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "app");

  TenantSpec spec;
  spec.ring_bytes = 2 * nic::kHotWorkingSetBytes;  // exactly one connection
  auto tenant = k.CreateTenant(kRootUid, 1001, spec);
  ASSERT_TRUE(tenant.ok());

  kernel::ConnectOptions fallback;
  fallback.allow_software_fallback = true;
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  ASSERT_TRUE(k.Connect(pid, peer, 1000, fallback).ok());
  // The ring budget is the tenant's envelope, not a shortage of NIC memory:
  // the refusal stands even for a caller that accepts the software path.
  auto refused = k.Connect(pid, peer, 2000, fallback);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(k.ListConnections().size(), 1u);
  EXPECT_EQ(k.nic_control().flow_table().size(), 1u);
}

TEST(TenancyTest, SramEnvelopeRefusesFlowInstall) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto capped_pid = *k.processes().Spawn(1001, "capped");
  const auto free_pid = *k.processes().Spawn(1002, "free");

  TenantSpec spec;
  spec.sram_bytes = 1;  // smaller than a single flow entry
  auto tenant = k.CreateTenant(kRootUid, 1001, spec);
  ASSERT_TRUE(tenant.ok());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto refused = Socket::Connect(&k, capped_pid, peer, 1000, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // The refusal was the tenant's own envelope, not the shared SRAM: an
  // unregistered uid installs fine.
  EXPECT_TRUE(Socket::Connect(&k, free_pid, peer, 2000, {}).ok());
}

TEST(TenancyTest, OverlaySlotQuotaAndContention) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");

  TenantSpec one_slot;
  one_slot.overlay_slots = 1;
  auto a = k.CreateTenant(kRootUid, 1001, one_slot);
  auto b = k.CreateTenant(kRootUid, 1002, one_slot);
  ASSERT_TRUE(a.ok() && b.ok());

  auto pass = overlay::Assemble("ret 1");
  ASSERT_TRUE(pass.ok());

  EXPECT_EQ(k.LoadTenantPolicy(9999, Chain::kOutput, *pass).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(k.LoadTenantPolicy(1001, Chain::kOutput, *pass).ok());
  // A's slot quota (1) is spent: a second chain is kResourceExhausted.
  EXPECT_EQ(k.LoadTenantPolicy(1001, Chain::kInput, *pass).status().code(),
            StatusCode::kResourceExhausted);
  // B is refused with kUnavailable — the TX slot is busy, but nothing of
  // B's was consumed, so B may retry later (convention in tenant.h).
  EXPECT_EQ(k.LoadTenantPolicy(1002, Chain::kOutput, *pass).status().code(),
            StatusCode::kUnavailable);
  // A releases (empty program); B's retry is admitted.
  ASSERT_TRUE(k.LoadTenantPolicy(1001, Chain::kOutput, {}).ok());
  EXPECT_TRUE(k.LoadTenantPolicy(1002, Chain::kOutput, *pass).ok());
  // And A's freed quota admits the RX chain now.
  EXPECT_TRUE(k.LoadTenantPolicy(1001, Chain::kInput, *pass).ok());
}

// ---- Tenant lifecycle: RAII handle, teardown reclaim ----------------------

TEST(TenancyTest, TeardownReclaimsEverything) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "app");
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);

  TenantSpec spec;
  spec.ring_bytes = 2 * nic::kHotWorkingSetBytes;
  spec.overlay_slots = 1;
  auto pass = overlay::Assemble("ret 1");
  ASSERT_TRUE(pass.ok());
  {
    auto tenant = k.CreateTenant(kRootUid, 1001, spec);
    ASSERT_TRUE(tenant.ok());
    EXPECT_EQ(k.tenant_count(), 1u);
    EXPECT_EQ(k.TenantOf(1001), 1001u);
    ASSERT_TRUE(Socket::Connect(&k, pid, peer, 1000, {}).ok());
    ASSERT_TRUE(k.LoadTenantPolicy(1001, Chain::kOutput, *pass).ok());
    // Budget spent (see RingBudgetAdmission).
    EXPECT_FALSE(Socket::Connect(&k, pid, peer, 2000, {}).ok());
  }  // RAII release: connections closed, slots freed, quotas cleared

  EXPECT_EQ(k.tenant_count(), 0u);
  EXPECT_EQ(k.TenantOf(1001), kernel::kSystemTenant);
  EXPECT_EQ(k.FindTenantSpec(1001), nullptr);
  // The uid is no longer budgeted: both connections admit fine.
  EXPECT_TRUE(Socket::Connect(&k, pid, peer, 3000, {}).ok());
  EXPECT_TRUE(Socket::Connect(&k, pid, peer, 4000, {}).ok());
  // The overlay slot was freed with the tenant: a fresh tenant can hold it.
  auto again = k.CreateTenant(kRootUid, 1001, spec);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(k.LoadTenantPolicy(1001, Chain::kOutput, *pass).ok());
}

TEST(TenancyTest, ReleaseClosesQueuedAccepts) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "server");
  auto tenant = k.CreateTenant(kRootUid, 1001, {});
  ASSERT_TRUE(tenant.ok());
  auto listener = Listener::Create(&k, pid, 8080);
  ASSERT_TRUE(listener.ok());
  bed.InjectUdpFromPeer(1111, 8080, 10, 100);
  bed.InjectUdpFromPeer(2222, 8080, 10, 200);
  bed.sim().Run();
  const telemetry::Gauge* depth =
      bed.sim().metrics().FindGauge("queue.kernel.accept.depth");
  ASSERT_EQ(depth->value(), 2);

  // Both unaccepted connections are charged to the tenant, so its release
  // closes them and takes them off the listener's queue.
  tenant->Release();
  EXPECT_EQ(depth->value(), 0);
  EXPECT_EQ(listener->Accept().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(listener->Accept().status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(k.ListConnections().empty());
}

TEST(TenancyTest, CreateTenantValidation) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  EXPECT_EQ(k.CreateTenant(/*caller=*/1001, 1001, {}).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(k.CreateTenant(kRootUid, 0, {}).status().code(),
            StatusCode::kInvalidArgument)
      << "root/system uid cannot be a quota'd tenant";
  auto ok = k.CreateTenant(kRootUid, 1001, {});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(k.CreateTenant(kRootUid, 1001, {}).status().code(),
            StatusCode::kAlreadyExists);
}

// ---- Declarative configuration --------------------------------------------

TEST(TenancyTest, ConfigureIsAtomic) {
  workload::TestBed bed;
  auto& k = bed.kernel();

  NicConfig bad;
  bad.top_talkers = true;
  bad.top_talker_entries = 8;
  bad.flow_cache = true;
  bad.flow_cache_entries = 0;  // invalid — must reject the WHOLE config
  const Status rejected = k.Configure(kRootUid, bad);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  // The valid half (top_talkers) must NOT have been applied.
  EXPECT_FALSE(k.active_config().top_talkers);
  EXPECT_FALSE(k.active_config().flow_cache);

  NicConfig good = bad;
  good.flow_cache_entries = 256;
  ASSERT_TRUE(k.Configure(kRootUid, good).ok());
  EXPECT_TRUE(k.active_config().top_talkers);
  EXPECT_TRUE(k.active_config().flow_cache);
  EXPECT_EQ(k.active_config().flow_cache_entries, 256u);

  // Non-root callers are refused.
  EXPECT_EQ(k.Configure(/*caller=*/1001, good).code(),
            StatusCode::kPermissionDenied);

  // Out-of-range shard counts are named invalid, not silently clamped.
  NicConfig shards = good;
  shards.shard_queues = nic::SmartNic::kMaxShardQueues + 1;
  EXPECT_EQ(k.Configure(kRootUid, shards).code(),
            StatusCode::kInvalidArgument);

  // NAT is one-shot: once enabled, a config that turns it off is refused
  // (live translations would strand) and the NAT stays.
  NicConfig nat = good;
  nat.nat = true;
  nat.nat_prefix_len = 8;
  ASSERT_TRUE(k.Configure(kRootUid, nat).ok());
  EXPECT_EQ(k.Configure(kRootUid, good).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(k.active_config().nat);
  EXPECT_NE(k.nat(), nullptr);
}

// ---- Determinism: tenancy disabled == tenancy absent ----------------------

struct Trace {
  uint64_t frames = 0;
  uint64_t bytes = 0;
  Nanos final_time = 0;
  std::vector<Nanos> completions;
};

Trace RunEchoWorld(bool register_tenants) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto p1 = *k.processes().Spawn(1001, "app1");
  const auto p2 = *k.processes().Spawn(1002, "app2");

  std::vector<kernel::Tenant> handles;
  if (register_tenants) {
    // Registered but dormant: zero quotas (unlimited) and isolation off.
    // Gated() is false, no charge point binds, so the trajectory must be
    // bit-identical to a world that never heard of tenants.
    TenantSpec spec;
    spec.cycle_weight = 3;
    auto t1 = k.CreateTenant(kernel::kRootUid, 1001, spec);
    spec.cycle_weight = 1;
    auto t2 = k.CreateTenant(kernel::kRootUid, 1002, spec);
    handles.push_back(std::move(*t1));
    handles.push_back(std::move(*t2));
  }

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto s1 = Socket::Connect(&k, p1, peer, 1000, {});
  auto s2 = Socket::Connect(&k, p2, peer, 2000, {});

  Trace trace;
  bed.SetEgressHook([&trace](const net::Packet& p) {
    trace.completions.push_back(p.meta().completed_at);
  });
  const std::vector<uint8_t> big(1200, 0xaa);
  const std::vector<uint8_t> small(128, 0xbb);
  uint8_t scratch[2048];
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      (void)s1->Send(big);
    }
    for (int i = 0; i < 4; ++i) {
      (void)s2->Send(small);
    }
    bed.sim().Run();
    while (s1->RecvInto(scratch).ok()) {
    }
    while (s2->RecvInto(scratch).ok()) {
    }
  }
  trace.frames = bed.egress_frames();
  trace.bytes = bed.egress_bytes();
  trace.final_time = bed.sim().Now();
  return trace;
}

TEST(TenancyTest, DormantTenancyIsBitIdentical) {
  const Trace off = RunEchoWorld(/*register_tenants=*/false);
  const Trace on = RunEchoWorld(/*register_tenants=*/true);
  EXPECT_EQ(off.frames, on.frames);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.final_time, on.final_time);
  ASSERT_EQ(off.completions.size(), on.completions.size());
  for (size_t i = 0; i < off.completions.size(); ++i) {
    ASSERT_EQ(off.completions[i], on.completions[i]) << "frame " << i;
  }
}

// ---- End-to-end: WFQ actually shapes contended service --------------------

TEST(TenancyTest, IsolationThrottlesAggressorNotVictim) {
  workload::TestBedOptions opts;
  opts.echo = true;
  // Slow the modeled pipeline (default 150 Mpps) so a 32-packet burst is
  // real contention: at 1 Mpps each packet occupies ~1us and backlogs form
  // behind each tenant's WFQ horizon.
  opts.nic.cost.nic_pipeline_pps = 1'000'000;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "victim");
  k.processes().AddUser(1002, "aggressor");
  const auto vp = *k.processes().Spawn(1001, "victim");
  const auto ap = *k.processes().Spawn(1002, "aggressor");

  TenantSpec victim_spec;
  victim_spec.cycle_weight = 3;
  TenantSpec aggressor_spec;
  aggressor_spec.cycle_weight = 1;
  auto victim = k.CreateTenant(kRootUid, 1001, victim_spec);
  auto aggressor = k.CreateTenant(kRootUid, 1002, aggressor_spec);
  ASSERT_TRUE(victim.ok() && aggressor.ok());

  NicConfig cfg;
  cfg.tenant_isolation = true;
  ASSERT_TRUE(k.Configure(kRootUid, cfg).ok());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto vs = Socket::Connect(&k, vp, peer, 1000, {});
  auto as = Socket::Connect(&k, ap, peer, 2000, {});
  ASSERT_TRUE(vs.ok() && as.ok());

  const std::vector<uint8_t> payload(1200, 0xaa);
  uint8_t scratch[2048];
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 32; ++i) {
      (void)as->Send(payload);  // the flood
    }
    for (int i = 0; i < 4; ++i) {
      (void)vs->Send(payload);  // the victim's trickle
    }
    bed.sim().Run();
    while (vs->RecvInto(scratch).ok()) {
    }
    while (as->RecvInto(scratch).ok()) {
    }
  }

  // The flood throttles behind its own horizon; the lightly-loaded victim
  // barely waits even though it shares every pipeline.
  const uint64_t aggressor_wait = bed.nic().tenants().throttled_ns(1002);
  const uint64_t victim_wait = bed.nic().tenants().throttled_ns(1001);
  EXPECT_GT(aggressor_wait, 0u);
  EXPECT_LT(victim_wait * 4, aggressor_wait)
      << "victim waited " << victim_wait << "ns vs aggressor "
      << aggressor_wait << "ns";
}

}  // namespace
}  // namespace norman
