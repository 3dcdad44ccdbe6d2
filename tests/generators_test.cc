// Workload generator tests: emission counts, pacing, Poisson statistics,
// flooder frame contents, and bulk-sender backpressure behavior.
#include "src/workload/generators.h"

#include <gtest/gtest.h>

#include "src/workload/testbed.h"
#include "tests/test_util.h"

namespace norman::workload {
namespace {

using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class GeneratorsTest : public ::testing::Test {
 protected:
  GeneratorsTest() {
    bed_.kernel().processes().AddUser(1, "u");
    pid_ = *bed_.kernel().processes().Spawn(1, "gen");
  }
  Socket Connect(uint16_t port) {
    auto s = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, port, {});
    EXPECT_TRUE(s.ok());
    return std::move(*s);
  }
  workload::TestBed bed_;
  kernel::Pid pid_ = 0;
};

TEST_F(GeneratorsTest, CbrSendsExactCount) {
  auto sock = Connect(1000);
  CbrSender cbr(&bed_.sim(), &sock, 100, 10 * kMicrosecond);
  cbr.Start(0, 1 * kMillisecond);
  bed_.sim().Run();
  EXPECT_EQ(cbr.sent(), 100u);
  EXPECT_EQ(cbr.failed(), 0u);
  EXPECT_EQ(bed_.egress_frames(), 100u);
}

TEST_F(GeneratorsTest, CbrPacingOnTheWire) {
  auto sock = Connect(1001);
  CbrSender cbr(&bed_.sim(), &sock, 100, 50 * kMicrosecond);
  cbr.Start(0, 1 * kMillisecond);
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 20u);
  for (size_t i = 1; i < bed_.egress().size(); ++i) {
    const Nanos gap = bed_.egress()[i]->meta().created_at -
                      bed_.egress()[i - 1]->meta().created_at;
    EXPECT_EQ(gap, 50 * kMicrosecond);
  }
}

TEST_F(GeneratorsTest, PoissonMeanInterarrival) {
  auto sock = Connect(1002);
  PoissonSender poisson(&bed_.sim(), &sock, 64, 20 * kMicrosecond,
                        /*seed=*/33);
  poisson.Start(0, 100 * kMillisecond);
  bed_.sim().Run();
  // Expect ~5000 sends; allow 10% statistical slack.
  EXPECT_NEAR(static_cast<double>(poisson.sent()), 5000.0, 500.0);
}

TEST_F(GeneratorsTest, PoissonIsSeedDeterministic) {
  auto s1 = Connect(1003);
  auto s2 = Connect(1004);
  PoissonSender p1(&bed_.sim(), &s1, 64, 30 * kMicrosecond, 7);
  PoissonSender p2(&bed_.sim(), &s2, 64, 30 * kMicrosecond, 7);
  p1.Start(0, 10 * kMillisecond);
  p2.Start(0, 10 * kMillisecond);
  bed_.sim().Run();
  EXPECT_EQ(p1.sent(), p2.sent());
}

TEST_F(GeneratorsTest, ArpFlooderEmitsBogusRequests) {
  auto sock = Connect(1005);
  const auto bogus = net::MacAddress::ForHost(0xbad);
  ArpFlooder flooder(&bed_.sim(), &sock, bogus,
                     Ipv4Address::FromOctets(10, 0, 0, 66),
                     100 * kMicrosecond);
  flooder.Start(0, 1 * kMillisecond);
  bed_.sim().Run();
  EXPECT_EQ(flooder.sent(), 10u);
  ASSERT_EQ(bed_.egress_frames(), 10u);
  for (const auto& frame : bed_.egress()) {
    auto parsed = net::ParseFrame(frame->bytes());
    ASSERT_TRUE(parsed && parsed->is_arp());
    EXPECT_EQ(parsed->arp->sender_mac, bogus);
    EXPECT_EQ(parsed->arp->op, net::ArpOp::kRequest);
  }
}

TEST_F(GeneratorsTest, BulkSenderBacksOffOnFullRing) {
  // A slow link: bulk sender must hit ring-full and keep retrying.
  workload::TestBedOptions opts;
  opts.nic.cost.link_rate_bps = 100'000'000;  // 100 Mbit/s
  workload::TestBed bed(opts);
  bed.kernel().processes().AddUser(1, "u");
  const auto pid = *bed.kernel().processes().Spawn(1, "bulk");
  auto sock = Socket::Connect(&bed.kernel(), pid, kPeerIp, 1006, {});
  ASSERT_TRUE(sock.ok());
  BulkSender bulk(&bed.sim(), &*sock, 1400, 5 * kMicrosecond);
  bulk.Start(0, 20 * kMillisecond);
  bed.sim().RunUntil(20 * kMillisecond);
  EXPECT_GT(bulk.sent(), 100u);
  // Offered load >> link capacity: backpressure shows up at the NIC
  // scheduler (the DMA engine drains the ring far faster than the 100Mbit
  // wire drains the scheduler), and the wire stays saturated.
  EXPECT_GT(bed.nic().stats().tx_sched_dropped(), 0u);
  EXPECT_GT(bed.nic().wire().Utilization(20 * kMillisecond), 0.95);
  // Drained, every fetched frame was queued for the wire or dropped by the
  // scheduler, and only the queued ones count as accepted.
  bed.sim().Run();
  test::ExpectNicConservation(bed.nic().stats());
  EXPECT_EQ(bed.nic().stats().tx_accepted(), bed.egress_frames());
}

}  // namespace
}  // namespace norman::workload
