// Golden-string tests for the tool renderers. The scenario is fixed and
// virtual time is deterministic, so the full rendered output is pinned
// byte-for-byte: any change to the stat or iptables rendering (or to the
// dataplane timing feeding it) must update these goldens deliberately.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// Fixed traffic: 4 accepted UDP sends (echoed), 3 filtered sends, 2
// unmatched peer datagrams, 1 unparseable runt frame.
class RenderFixture : public ::testing::Test {
 protected:
  RenderFixture() {
    workload::TestBedOptions opts;
    opts.echo = true;
    bed_ = std::make_unique<workload::TestBed>(opts);
    auto& k = bed_->kernel();
    k.processes().AddUser(1001, "alice");
    k.processes().AddUser(1002, "bob");
    const auto web_pid = *k.processes().Spawn(1001, "webapp");
    const auto batch_pid = *k.processes().Spawn(1002, "batch");

    EXPECT_TRUE(tools::IptablesAppend(&k, kernel::kRootUid,
                                      "-A OUTPUT -p udp --dport 7777 "
                                      "-j ACCEPT")
                    .ok());
    EXPECT_TRUE(tools::IptablesAppend(&k, kernel::kRootUid,
                                      "-A OUTPUT -p udp --dport 9999 -j DROP")
                    .ok());

    auto good = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
    auto bad = Socket::Connect(&k, batch_pid, kPeerIp, 9999, {});
    EXPECT_TRUE(good.ok());
    EXPECT_TRUE(bad.ok());
    const std::vector<uint8_t> payload(200, 0xab);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(good->Send(payload).ok());
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(bad->Send(payload).ok());
    }
    bed_->sim().Run();
    Nanos t = bed_->sim().Now();
    bed_->InjectUdpFromPeer(1234, 4321, 64, t += kMicrosecond);
    bed_->InjectUdpFromPeer(1234, 4321, 64, t += kMicrosecond);
    bed_->InjectFromNetwork(net::MakePacket(std::vector<uint8_t>(6, 0xee)),
                            t += kMicrosecond);
    bed_->sim().Run();
  }

  std::unique_ptr<workload::TestBed> bed_;
};

TEST_F(RenderFixture, NicStatGolden) {
  const std::string got = tools::NicStat(bed_->kernel(), bed_->nic());
  const std::string want =
      "NIC statistics (virtual time 8.58us):\n"
      "  tx: seen 7, accepted 4, filtered 3, sched-drop 0, sw-fallback 0, "
      "wire bytes 968\n"
      "  rx: seen 7, accepted 4, filtered 0, unmatched 3, ring-overflow 0, "
      "sw-fallback 0\n"
      "  dma transfers 11, overlay instructions 94\n"
      "  drops by reason (owner-annotated):\n"
      "    tx filter_deny pid=101 (batch): 3\n"
      "  ddio: 72.7% hit (8/11), resident 6144 B of 4194304 B\n"
      "  sram: 1088 / 8388608 B  conntrack=192  flow_table=768  "
      "ring_state=128\n"
      "  utilization: wire 0.9%, pipeline 1.1%, dma 11.6%, kernel-core "
      "0.0%\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

TEST_F(RenderFixture, NicStatDropsGolden) {
  const std::string got = tools::NicStatDrops(bed_->kernel(), bed_->nic());
  const std::string want =
      "Drop accounting (virtual time 8.58us):\n"
      "  reason                  tx        rx\n"
      "  filter_deny              3         0\n"
      "  total                    3         0\n"
      "  drops by reason (owner-annotated):\n"
      "    tx filter_deny pid=101 (batch): 3\n"
      "  kernel slow path: malformed 1, unmatched 2, sram_exhausted 0\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

TEST_F(RenderFixture, IptablesListGolden) {
  const std::string got = tools::IptablesList(bed_->kernel());
  const std::string want =
      "Chain INPUT (policy ACCEPT, 7 default hits)\n"
      "Chain OUTPUT (policy ACCEPT, 0 default hits)\n"
      "  [0] ACCEPT -p udp --dport 7777:7777  [4 hits]\n"
      "  [1] DROP -p udp --dport 9999:9999  [3 hits]\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

// On a multi-lane NIC every packet is served by some lane's pipeline and
// DMA engine, so the utilization line (the mean over lanes) must show the
// work rather than an idle resource no packet ever charges.
TEST(NicStatLanesTest, UtilizationAveragesOverLanes) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  kernel::NicConfig cfg;
  cfg.shard_queues = 4;
  ASSERT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "webapp");
  std::vector<Socket> socks;
  for (uint16_t port = 7000; port < 7008; ++port) {
    auto s = Socket::Connect(&k, pid, kPeerIp, port, {});
    ASSERT_TRUE(s.ok());
    socks.push_back(std::move(*s));
  }
  const std::vector<uint8_t> payload(1000, 0xab);
  for (auto& s : socks) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(s.Send(payload).ok());
    }
  }
  bed.sim().Run();

  const std::string got = tools::NicStat(k, bed.nic());
  const size_t at = got.find("utilization: ");
  ASSERT_NE(at, std::string::npos) << got;
  double wire = 0;
  double pipeline = 0;
  double dma = 0;
  ASSERT_EQ(std::sscanf(got.c_str() + at,
                        "utilization: wire %lf%%, pipeline %lf%%, dma %lf%%",
                        &wire, &pipeline, &dma),
            3)
      << got;
  EXPECT_GT(wire, 0.0) << got;
  EXPECT_GT(pipeline, 0.0) << got;
  EXPECT_GT(dma, 0.0) << got;
}

}  // namespace
}  // namespace norman
