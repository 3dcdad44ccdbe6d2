// PacedScheduler unit tests plus full-system per-connection rate limiting
// through the kernel API.
#include "src/dataplane/rate_limiter.h"

#include <gtest/gtest.h>

#include "src/norman/socket.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"
#include "tests/test_util.h"
#include "src/net/packet_pool.h"

namespace norman::dataplane {
namespace {

using net::Direction;
using overlay::ConnMetadata;

net::PacketPtr ConnPacket(net::ConnectionId conn, size_t bytes,
                          overlay::PacketContext* ctx) {
  ctx->conn = ConnMetadata{conn, 1000, 100, 1, 0};
  return net::MakePacket(std::vector<uint8_t>(bytes, 0x77));
}

TEST(PacedSchedulerTest, UnlimitedConnectionsPassStraightThrough) {
  PacedScheduler sched;
  overlay::PacketContext ctx;
  ASSERT_TRUE(sched.Enqueue(ConnPacket(1, 1000, &ctx), ctx));
  EXPECT_NE(sched.Dequeue(0), nullptr);
  EXPECT_EQ(sched.backlog_packets(), 0u);
}

TEST(PacedSchedulerTest, LimitedConnectionIsPaced) {
  PacedScheduler sched;
  // 8 Mbit/s = 1 byte/us, burst 1000B.
  sched.SetRate(5, 8'000'000, 1000);
  overlay::PacketContext ctx;
  ASSERT_TRUE(sched.Enqueue(ConnPacket(5, 1000, &ctx), ctx));
  ASSERT_TRUE(sched.Enqueue(ConnPacket(5, 1000, &ctx), ctx));
  EXPECT_NE(sched.Dequeue(0), nullptr);   // burst covers the first
  EXPECT_EQ(sched.Dequeue(0), nullptr);   // second must wait ~1ms
  const Nanos eligible = sched.NextEligibleTime(0);
  EXPECT_GT(eligible, 900 * kMicrosecond);
  EXPECT_LT(eligible, 1100 * kMicrosecond);
  EXPECT_NE(sched.Dequeue(eligible + 1), nullptr);
}

TEST(PacedSchedulerTest, MixedTrafficOnlyLimitsConfiguredConn) {
  PacedScheduler sched;
  sched.SetRate(5, 8'000'000, 100);  // tiny burst: conn 5 throttled hard
  overlay::PacketContext ctx;
  ASSERT_TRUE(sched.Enqueue(ConnPacket(5, 1000, &ctx), ctx));
  ASSERT_TRUE(sched.Enqueue(ConnPacket(6, 1000, &ctx), ctx));
  // Conn 6 drains immediately; conn 5's packet stays queued.
  EXPECT_NE(sched.Dequeue(0), nullptr);
  EXPECT_EQ(sched.Dequeue(0), nullptr);
  EXPECT_EQ(sched.backlog_packets(), 1u);
}

TEST(PacedSchedulerTest, ClearRateReleasesBacklog) {
  PacedScheduler sched;
  sched.SetRate(5, 1'000, 1);  // ~never conformant
  overlay::PacketContext ctx;
  ASSERT_TRUE(sched.Enqueue(ConnPacket(5, 1000, &ctx), ctx));
  EXPECT_EQ(sched.Dequeue(0), nullptr);
  sched.ClearRate(5);
  EXPECT_FALSE(sched.HasRate(5));
  EXPECT_NE(sched.Dequeue(0), nullptr);
}

TEST(PacedSchedulerTest, PerConnCapacityDrops) {
  PacedScheduler sched(std::make_unique<nic::FifoScheduler>(),
                       /*per_conn_capacity=*/2);
  sched.SetRate(5, 1'000, 1);
  overlay::PacketContext ctx;
  EXPECT_TRUE(sched.Enqueue(ConnPacket(5, 100, &ctx), ctx));
  EXPECT_TRUE(sched.Enqueue(ConnPacket(5, 100, &ctx), ctx));
  EXPECT_FALSE(sched.Enqueue(ConnPacket(5, 100, &ctx), ctx));
  EXPECT_EQ(sched.paced_drops(), 1u);
}

// An inner discipline that records the owner metadata of every hand-off.
class RecordingFifo : public nic::FifoScheduler {
 public:
  explicit RecordingFifo(std::vector<ConnMetadata>* seen) : seen_(seen) {}
  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& ctx) override {
    seen_->push_back(ctx.conn);
    return FifoScheduler::Enqueue(std::move(packet), ctx);
  }

 private:
  std::vector<ConnMetadata>* seen_;
};

TEST(PacedSchedulerTest, InnerDisciplineSeesHeldPacketsOwner) {
  // A held packet reaches the inner discipline with the owner metadata it
  // was enqueued with, whether tokens release it or ClearRate flushes it.
  std::vector<ConnMetadata> seen;
  PacedScheduler sched(std::make_unique<RecordingFifo>(&seen));
  sched.SetRate(5, 8'000'000, 1000);  // 1 byte/us: the burst covers one
  sched.SetRate(7, 1'000, 1);         // ~never conformant
  overlay::PacketContext ctx;
  net::PacketPtr released = ConnPacket(5, 1000, &ctx);
  ctx.conn.owner_pid = 505;
  ASSERT_TRUE(sched.Enqueue(std::move(released), ctx));
  net::PacketPtr flushed = ConnPacket(7, 1000, &ctx);
  ctx.conn.owner_pid = 707;
  ctx.conn.owner_tenant = 3;
  ASSERT_TRUE(sched.Enqueue(std::move(flushed), ctx));
  ASSERT_TRUE(seen.empty());  // both held by their pacers

  EXPECT_NE(sched.Dequeue(0), nullptr);  // token release
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].conn_id, 5u);
  EXPECT_EQ(seen[0].owner_pid, 505u);
  EXPECT_EQ(seen[0].owner_uid, 1000u);

  sched.ClearRate(7);  // flush
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].conn_id, 7u);
  EXPECT_EQ(seen[1].owner_pid, 707u);
  EXPECT_EQ(seen[1].owner_tenant, 3u);
  EXPECT_NE(sched.Dequeue(0), nullptr);
  EXPECT_EQ(sched.backlog_packets(), 0u);
}

TEST(PacedSchedulerTest, AchievedRateTracksConfig) {
  PacedScheduler sched;
  const BitsPerSecond rate = 80'000'000;  // 10 MB/s
  sched.SetRate(5, rate, 2000);
  overlay::PacketContext ctx;
  uint64_t queued = 0;
  for (int i = 0; i < 300; ++i) {
    auto p = ConnPacket(5, 1000, &ctx);
    queued += p->size();
    ASSERT_TRUE(sched.Enqueue(std::move(p), ctx));
  }
  Nanos now = 0;
  uint64_t drained = 0;
  while (drained < queued) {
    if (auto p = sched.Dequeue(now)) {
      drained += p->size();
      continue;
    }
    const Nanos next = sched.NextEligibleTime(now);
    ASSERT_GT(next, now);
    now = next;
  }
  EXPECT_NEAR(AchievedBps(drained, now) / static_cast<double>(rate), 1.0,
              0.05);
}

// --- Full system through the kernel ---

TEST(RateLimitSystemTest, KernelApiShapesOneConnection) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "bulk");
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto fast = Socket::Connect(&k, pid, peer, 1111, {});
  auto slow = Socket::Connect(&k, pid, peer, 2222, {});
  ASSERT_TRUE(fast.ok() && slow.ok());

  // Root caps the second connection at 100 Mbit/s.
  ASSERT_TRUE(
      k.SetConnRateLimit(kernel::kRootUid, slow->conn_id(), 100'000'000,
                         4000)
          .ok());
  // Non-root cannot.
  EXPECT_EQ(k.SetConnRateLimit(1, fast->conn_id(), 1, 1).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(
      k.SetConnRateLimit(kernel::kRootUid, 999, 1, 1).code(),
      StatusCode::kNotFound);

  constexpr Nanos kRunFor = 10 * kMillisecond;
  workload::BulkSender s1(&bed.sim(), &*fast, 1400, 5 * kMicrosecond);
  workload::BulkSender s2(&bed.sim(), &*slow, 1400, 5 * kMicrosecond);
  s1.Start(0, kRunFor);
  s2.Start(0, kRunFor);

  uint64_t fast_bytes = 0, slow_bytes = 0;
  bed.SetEgressHook([&](const net::Packet& p) {
    auto parsed = net::ParseFrame(p.bytes());
    if (!parsed || !parsed->flow()) {
      return;
    }
    (parsed->flow()->dst_port == 1111 ? fast_bytes : slow_bytes) += p.size();
  });
  bed.DiscardEgress();
  bed.sim().RunUntil(kRunFor);

  const double slow_bps = AchievedBps(slow_bytes, kRunFor);
  const double fast_bps = AchievedBps(fast_bytes, kRunFor);
  EXPECT_LT(slow_bps, 120e6);  // capped near 100 Mbit/s
  EXPECT_GT(slow_bps, 60e6);
  EXPECT_GT(fast_bps, 10 * slow_bps);  // unthrottled peer runs free
}

TEST(RateLimitSystemTest, LimitsSurviveQdiscSwap) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "bulk");
  auto sock = Socket::Connect(&k, pid,
                              net::Ipv4Address::FromOctets(10, 0, 0, 2),
                              1111, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(k.SetConnRateLimit(kernel::kRootUid, sock->conn_id(),
                                 50'000'000, 3000)
                  .ok());
  // Swap the discipline; the limit must persist.
  ASSERT_TRUE(
      k.SetQdisc(kernel::kRootUid, std::make_unique<nic::FifoScheduler>())
          .ok());

  constexpr Nanos kRunFor = 10 * kMillisecond;
  workload::BulkSender sender(&bed.sim(), &*sock, 1400, 5 * kMicrosecond);
  sender.Start(0, kRunFor);
  bed.sim().RunUntil(kRunFor);
  const double bps = AchievedBps(bed.egress_bytes(), kRunFor);
  EXPECT_LT(bps, 65e6);
  EXPECT_GT(bps, 30e6);
}

}  // namespace
}  // namespace norman::dataplane
