// Multi-queue dataplane sharding: RSS spread, explicit indirection errors,
// mid-flow re-steer with flow-cache partition invalidation, per-lane
// telemetry (steered counters, ring gauges, per-queue notify counters),
// the per-lane watchdog rules, and the --by-core dashboard's stability.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/health.h"
#include "src/nic/rss.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"
#include "tests/test_util.h"

namespace norman {
namespace {

using net::FiveTuple;
using net::IpProto;
using net::Ipv4Address;

// Grows the kernel's NIC to `lanes` lanes through the declarative config.
Status Shard(kernel::Kernel& k, uint16_t lanes) {
  kernel::NicConfig cfg = k.active_config();
  cfg.shard_queues = lanes;
  return k.Configure(kernel::kRootUid, cfg);
}

// --- RSS spread -------------------------------------------------------------

// Toeplitz-over-indirection must actually spread: across a few hundred
// distinct tuples every configured queue receives traffic and no steer
// result escapes [0, num_queues).
TEST(MulticoreRssTest, SpreadsAcrossAllQueues) {
  for (const size_t queues : {2u, 4u, 8u}) {
    SCOPED_TRACE("queues=" + std::to_string(queues));
    nic::RssEngine rss(static_cast<uint16_t>(queues));
    std::vector<size_t> hits(queues, 0);
    for (uint16_t i = 0; i < 512; ++i) {
      const FiveTuple t{Ipv4Address::FromOctets(10, 0, 0, 2),
                        Ipv4Address::FromOctets(10, 0, 0, 1),
                        static_cast<uint16_t>(4000 + i),
                        static_cast<uint16_t>(9000 + i), IpProto::kUdp};
      const uint16_t q = rss.Steer(t);
      ASSERT_LT(q, queues);
      ++hits[q];
    }
    for (size_t q = 0; q < queues; ++q) {
      EXPECT_GT(hits[q], 0u) << "queue " << q << " starved";
    }
  }
}

// Steering is a pure function of the tuple: the same flow never migrates
// on its own (migration happens only through explicit indirection writes).
TEST(MulticoreRssTest, SteeringIsStablePerFlow) {
  nic::RssEngine rss(4);
  const FiveTuple t{Ipv4Address::FromOctets(10, 0, 0, 2),
                    Ipv4Address::FromOctets(10, 0, 0, 1), 4000, 9000,
                    IpProto::kUdp};
  const uint16_t first = rss.Steer(t);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rss.Steer(t), first);
  }
}

// --- Sharded end-to-end -----------------------------------------------------

// A sharded echo world: many flows spread across 4 lanes, every byte comes
// back, and the per-lane telemetry (steered counters, lane ring high
// waters) shows the spread actually happened on the wire path.
TEST(MulticoreShardingTest, ShardedEchoSpreadsAndDeliversEverything) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  ASSERT_TRUE(Shard(k, 4).ok());

  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  const auto peer = Ipv4Address::FromOctets(10, 0, 0, 2);

  std::vector<StatusOr<Socket>> socks;
  for (int i = 0; i < 16; ++i) {
    socks.push_back(
        Socket::Connect(&k, pid, peer, static_cast<uint16_t>(5000 + i), {}));
    ASSERT_TRUE(socks.back().ok());
  }
  const std::vector<uint8_t> payload(256, 0xcd);
  for (auto& s : socks) {
    for (int r = 0; r < 4; ++r) {
      ASSERT_TRUE(s->Send(payload).ok());
    }
  }
  bed.sim().Run();
  test::ExpectNicConservation(bed.nic().stats());

  // Every echo reply made it back up through its lane.
  uint8_t scratch[2048];
  for (auto& s : socks) {
    for (int r = 0; r < 4; ++r) {
      ASSERT_TRUE(s->RecvInto(scratch).ok());
    }
    EXPECT_FALSE(s->RecvInto(scratch).ok());  // nothing lost or duplicated
  }

  // The steered counters account for every inbound frame, across >1 lane.
  const auto snap = bed.sim().metrics().Snapshot();
  int64_t steered = 0;
  int lanes_hit = 0;
  for (int q = 0; q < 4; ++q) {
    const auto it = snap.values.find("rss.steered.q" + std::to_string(q));
    if (it == snap.values.end()) continue;
    steered += it->second;
    lanes_hit += it->second > 0 ? 1 : 0;
  }
  EXPECT_EQ(steered, 64);  // 16 flows x 4 echoes
  EXPECT_GE(lanes_hit, 2) << "16 flows all hashed to one lane";
  // The lane ingress rings saw real occupancy on the lanes that got flows.
  int64_t rx_high_water = 0;
  for (int q = 0; q < 4; ++q) {
    const auto it = snap.values.find("queue.nic.rx_ring.q" +
                                     std::to_string(q) + ".high_water");
    if (it != snap.values.end()) rx_high_water += it->second;
  }
  EXPECT_GT(rx_high_water, 0);
}

// The per-queue notification counters key on Notification::queue, so a
// sharded run's completion flow is attributable lane by lane — and the
// per-queue sum matches the aggregate drain counter.
TEST(MulticoreShardingTest, NotificationsCarryTheirLane) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  ASSERT_TRUE(Shard(k, 4).ok());
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  const auto peer = Ipv4Address::FromOctets(10, 0, 0, 2);

  kernel::ConnectOptions copts;
  copts.notify_rx = true;
  std::vector<StatusOr<Socket>> socks;
  for (int i = 0; i < 8; ++i) {
    socks.push_back(Socket::Connect(&k, pid, peer,
                                    static_cast<uint16_t>(6000 + i), copts));
    ASSERT_TRUE(socks.back().ok());
  }
  // Block on RX first: notification drains ride the kernel's wakeup pump,
  // which only runs on behalf of a sleeping thread.
  int woken = 0;
  for (auto& s : socks) {
    ASSERT_TRUE(
        s->RecvBlocking([&woken](std::vector<uint8_t>) { ++woken; }).ok());
  }
  const std::vector<uint8_t> payload(128, 0xee);
  for (auto& s : socks) {
    ASSERT_TRUE(s->Send(payload).ok());
  }
  bed.sim().Run();
  EXPECT_EQ(woken, 8);

  const auto snap = bed.sim().metrics().Snapshot();
  int64_t per_queue = 0;
  for (int q = 0; q < 4; ++q) {
    const auto it =
        snap.values.find("kernel.notify.q" + std::to_string(q) + ".drained");
    if (it != snap.values.end()) per_queue += it->second;
  }
  const auto total = snap.values.find("kernel.notify.drained");
  ASSERT_NE(total, snap.values.end());
  EXPECT_GT(per_queue, 0);
  EXPECT_EQ(per_queue, total->second);
}

// --- Indirection table errors and mid-flow re-steer -------------------------

// Through the control plane too, a bad indirection write is an explicit
// error — not a silent modulo remap.
TEST(MulticoreShardingTest, ControlPlaneRejectsBadIndirection) {
  workload::TestBed bed;
  auto& cp = bed.kernel().nic_control();
  ASSERT_TRUE(cp.EnableSharding(4).ok());
  EXPECT_EQ(cp.SetRssIndirection(0, 4).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cp.SetRssIndirection(nic::RssEngine::kIndirectionEntries, 0)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(cp.SetRssIndirection(0, 3).ok());
}

// Re-steering a live flow to another lane invalidates both affected flow
// cache partitions (the verdict cached on the old lane must not keep
// serving), and traffic keeps flowing correctly afterwards.
TEST(MulticoreShardingTest, MidFlowResteerInvalidatesPartitions) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  kernel::NicConfig cfg;
  cfg.flow_cache = true;
  cfg.shard_queues = 4;
  ASSERT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  const auto peer = Ipv4Address::FromOctets(10, 0, 0, 2);

  auto sock = Socket::Connect(&k, pid, peer, 7000, {});
  ASSERT_TRUE(sock.ok());
  const std::vector<uint8_t> payload(200, 0xab);
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(sock->Send(payload).ok());
  }
  bed.sim().Run();
  uint8_t scratch[2048];
  int echoed = 0;
  while (sock->RecvInto(scratch).ok()) ++echoed;
  EXPECT_EQ(echoed, 8);

  const auto before = bed.sim().metrics().Snapshot();
  const auto inval_before = before.values.count("fastpath.invalidations")
                                ? before.values.at("fastpath.invalidations")
                                : 0;
  // Rewrite the whole indirection table onto lane 1: every slot whose old
  // queue differs migrates, invalidating the source and destination
  // partitions.
  auto& cp = k.nic_control();
  for (size_t i = 0; i < nic::RssEngine::kIndirectionEntries; ++i) {
    ASSERT_TRUE(cp.SetRssIndirection(i, 1).ok());
  }
  const auto after = bed.sim().metrics().Snapshot();
  const auto inval_after = after.values.count("fastpath.invalidations")
                               ? after.values.at("fastpath.invalidations")
                               : 0;
  EXPECT_GT(inval_after, inval_before);

  // The flow lives on across the migration.
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(sock->Send(payload).ok());
  }
  bed.sim().Run();
  echoed = 0;
  while (sock->RecvInto(scratch).ok()) ++echoed;
  EXPECT_EQ(echoed, 4);
}

// --- Per-lane watchdog ------------------------------------------------------

// One wedged lane must page as that lane, not hide inside an aggregate:
// back up q2's ingress ring for three sampler windows and only the
// "app.rx.q2" component trips; its siblings stay healthy.
TEST(MulticoreShardingTest, SingleStalledLaneTripsOnlyItsRule) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  ASSERT_TRUE(Shard(k, 4).ok());

  auto* depth = bed.sim().metrics().GetGauge("queue.nic.rx_ring.q2.depth");
  for (int window = 1; window <= 3; ++window) {
    depth->Set(5 + window);  // backed up and not draining
    k.sampler().Sample(window * kMillisecond);
    k.watchdog().Evaluate(window * kMillisecond);
  }
  EXPECT_EQ(k.watchdog().StateOf("app.rx.q2"), telemetry::HealthState::kStalled);
  EXPECT_EQ(k.watchdog().StateOf("app.rx.q0"), telemetry::HealthState::kHealthy);
  EXPECT_EQ(k.watchdog().StateOf("app.rx.q1"), telemetry::HealthState::kHealthy);
  EXPECT_EQ(k.watchdog().StateOf("app.rx.q3"), telemetry::HealthState::kHealthy);

  // The lane drains: recovered.
  depth->Set(0);
  k.sampler().Sample(4 * kMillisecond);
  k.watchdog().Evaluate(4 * kMillisecond);
  EXPECT_EQ(k.watchdog().StateOf("app.rx.q2"), telemetry::HealthState::kHealthy);
}

// --- Telemetry shape --------------------------------------------------------

// All per-lane series are registered eagerly at construction — before any
// sharding or traffic — so the metric manifest has one shape regardless of
// configuration.
TEST(MulticoreShardingTest, PerLaneMetricNamesRegisteredEagerly) {
  workload::TestBed bed;  // no sharding, no traffic
  const auto names = bed.sim().metrics().MetricNames();
  auto has = [&names](const std::string& n) {
    for (const auto& name : names) {
      if (name == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("counter rss.rebalance"));
  for (int q = 0; q < 8; ++q) {
    const std::string qs = std::to_string(q);
    EXPECT_TRUE(has("counter rss.steered.q" + qs)) << qs;
    EXPECT_TRUE(has("gauge queue.nic.rx_ring.q" + qs + ".depth")) << qs;
    EXPECT_TRUE(has("gauge queue.nic.rx_ring.q" + qs + ".high_water")) << qs;
    EXPECT_TRUE(has("gauge queue.nic.tx_ring.q" + qs + ".depth")) << qs;
    EXPECT_TRUE(has("gauge queue.nic.tx_ring.q" + qs + ".high_water")) << qs;
    EXPECT_TRUE(has("counter kernel.notify.q" + qs + ".drained")) << qs;
  }
}

// --- norman-top --by-core ---------------------------------------------------

// The per-core dashboard is byte-stable for a deterministic sharded run and
// shows the lane resources plus every lane ring.
TEST(MulticoreShardingTest, TopByCoreIsByteStable) {
  auto run = [] {
    workload::TestBedOptions opts;
    opts.echo = true;
    workload::TestBed bed(opts);
    auto& k = bed.kernel();
    bed.sim().profiler().set_enabled(true);
    EXPECT_TRUE(Shard(k, 4).ok());
    k.processes().AddUser(1, "u");
    const auto pid = *k.processes().Spawn(1, "app");
    const auto peer = Ipv4Address::FromOctets(10, 0, 0, 2);
    auto sock = Socket::Connect(&k, pid, peer, 7100, {});
    EXPECT_TRUE(sock.ok());
    const std::vector<uint8_t> payload(300, 0x5a);
    for (int r = 0; r < 6; ++r) {
      EXPECT_TRUE(sock->Send(payload).ok());
    }
    bed.sim().Run();
    return tools::TopByCore(bed.kernel(), bed.nic());
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("4 lanes"), std::string::npos);
  EXPECT_NE(a.find("nic.stages.q0"), std::string::npos);
  EXPECT_NE(a.find("nic.rx_ring.q3"), std::string::npos);
  EXPECT_NE(a.find("nic.tx_ring.q7"), std::string::npos);
}

// Sharding is one-shot: a second enable is a precondition failure, and an
// out-of-range queue count is rejected up front.
TEST(MulticoreShardingTest, EnableShardingValidatesItsArguments) {
  workload::TestBed bed;
  auto& cp = bed.kernel().nic_control();
  EXPECT_EQ(cp.EnableSharding(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cp.EnableSharding(9).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(cp.EnableSharding(2).ok());
  EXPECT_EQ(cp.EnableSharding(4).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace norman
