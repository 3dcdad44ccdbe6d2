// Tests for the NIC-terminated services and custom overlay policies:
// ICMP echo responder, the OverlayStage, and kernel LoadCustomPolicy.
#include <gtest/gtest.h>

#include "src/dataplane/icmp_responder.h"
#include "src/norman/socket.h"
#include "src/overlay/assembler.h"
#include "src/workload/testbed.h"
#include "src/net/packet_pool.h"

namespace norman {
namespace {

using kernel::Chain;
using kernel::kRootUid;
using net::Ipv4Address;
using net::MacAddress;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class NicServicesTest : public ::testing::Test {
 protected:
  NicServicesTest() {
    bed_.kernel().processes().AddUser(1, "u");
    pid_ = *bed_.kernel().processes().Spawn(1, "app");
  }

  net::PacketPtr PingFrame(uint16_t seq, Ipv4Address target) {
    net::FrameEndpoints ep{MacAddress::ForHost(2),
                           bed_.kernel().options().host_mac, kPeerIp, target};
    return net::BuildIcmpEchoPacket(ep, net::IcmpType::kEchoRequest,
                                    /*id=*/7, seq,
                                    std::vector<uint8_t>(24, 0x42));
  }

  workload::TestBed bed_;
  kernel::Pid pid_ = 0;
};

TEST_F(NicServicesTest, NicAnswersPing) {
  bed_.InjectFromNetwork(PingFrame(1, bed_.kernel().options().host_ip), 100);
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 1u);
  auto reply = net::ParseFrame(bed_.egress()[0]->bytes());
  ASSERT_TRUE(reply && reply->is_icmp());
  EXPECT_EQ(reply->icmp->type, net::IcmpType::kEchoReply);
  EXPECT_EQ(reply->icmp->identifier, 7);
  EXPECT_EQ(reply->icmp->sequence, 1);
  EXPECT_EQ(reply->ipv4->src, bed_.kernel().options().host_ip);
  EXPECT_EQ(reply->ipv4->dst, kPeerIp);
  EXPECT_EQ(reply->payload_size(), 24u);
  EXPECT_EQ(bed_.kernel().icmp().echo_replies(), 1u);
  // The request never reached the host slow path.
  EXPECT_EQ(bed_.nic().stats().rx_unmatched(), 0u);
}

TEST_F(NicServicesTest, PingForOtherAddressIgnored) {
  bed_.InjectFromNetwork(PingFrame(1, Ipv4Address::FromOctets(10, 0, 0, 77)),
                         100);
  bed_.sim().Run();
  EXPECT_EQ(bed_.kernel().icmp().echo_replies(), 0u);
  EXPECT_TRUE(bed_.egress().empty());
  EXPECT_EQ(bed_.nic().stats().rx_unmatched(),
            1u);  // fell to the host path
}

TEST_F(NicServicesTest, CustomTxPolicyDropsLowTtl) {
  // A policy iptables cannot express: drop TX IPv4 packets with TTL < 5.
  auto prog = overlay::Assemble(R"(
      ldf r1, is_ipv4
      jeq r1, 0, accept
      ldf r2, ip_ttl
      jlt r2, 5, drop
  accept:
      ret 1
  drop:
      ret 0
  )");
  ASSERT_TRUE(prog.ok()) << prog.status();
  auto load = bed_.kernel().LoadCustomPolicy(kRootUid, Chain::kOutput, *prog);
  ASSERT_TRUE(load.ok()) << load.status();
  EXPECT_GT(*load, 0);

  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 5000, {});
  ASSERT_TRUE(sock.ok());
  // Default TTL is 64: passes.
  ASSERT_TRUE(sock->Send("normal ttl").ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 1u);

  // Hand-craft a TTL-2 frame through the zero-copy interface.
  net::FrameEndpoints ep{bed_.kernel().options().host_mac,
                         MacAddress::ForHost(2),
                         bed_.kernel().options().host_ip, kPeerIp};
  auto low_ttl = net::BuildUdpPacket(ep, sock->tuple().src_port, 5000,
                                     std::vector<uint8_t>(8, 1), /*dscp=*/0,
                                     /*ttl=*/2);
  ASSERT_TRUE(sock->SendFrame(std::move(low_ttl)).ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 1u);  // dropped by the custom policy
  EXPECT_EQ(bed_.nic().stats().tx_dropped(), 1u);
}

TEST_F(NicServicesTest, CustomPolicyRequiresRoot) {
  auto prog = overlay::Assemble("ret 1");
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(bed_.kernel()
                .LoadCustomPolicy(/*caller=*/1, Chain::kOutput, *prog)
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(NicServicesTest, CustomPolicyRejectsInvalidProgram) {
  overlay::Program bad{overlay::Instruction::Ldi(1, 0)};  // falls off end
  EXPECT_FALSE(
      bed_.kernel().LoadCustomPolicy(kRootUid, Chain::kOutput, bad).ok());
}

TEST_F(NicServicesTest, CustomPolicyCanBeCleared) {
  auto drop_all = overlay::Assemble("ret 0");
  ASSERT_TRUE(drop_all.ok());
  ASSERT_TRUE(
      bed_.kernel().LoadCustomPolicy(kRootUid, Chain::kOutput, *drop_all)
          .ok());
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 5000, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("blocked").ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 0u);

  // Clear (empty program -> accept-all) and retry.
  ASSERT_TRUE(
      bed_.kernel().LoadCustomPolicy(kRootUid, Chain::kOutput, {}).ok());
  ASSERT_TRUE(sock->Send("unblocked").ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 1u);
}

TEST_F(NicServicesTest, CustomRxPolicyFiltersInbound) {
  // Drop every RX UDP packet with payload > 100B (a DoS guard).
  auto prog = overlay::Assemble(R"(
      ldf r1, payload_len
      jgt r1, 100, drop
      ret 1
  drop:
      ret 0
  )");
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_TRUE(
      bed_.kernel().LoadCustomPolicy(kRootUid, Chain::kInput, *prog).ok());

  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 6000, {});
  ASSERT_TRUE(sock.ok());
  bed_.InjectUdpFromPeer(6000, sock->tuple().src_port, 50, 100);    // ok
  bed_.InjectUdpFromPeer(6000, sock->tuple().src_port, 500, 200);   // dropped
  bed_.sim().Run();
  EXPECT_EQ(sock->RecvFrame() != nullptr, true);
  EXPECT_EQ(sock->RecvFrame(), nullptr);
  EXPECT_EQ(bed_.nic().stats().rx_dropped(), 1u);
}

}  // namespace
}  // namespace norman
