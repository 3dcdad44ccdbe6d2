// TX anti-spoofing tests: forged headers from the zero-copy lane must be
// dropped at the NIC; honest traffic, kernel-originated frames, and the
// (deliberately) observable ARP case pass.
#include "src/dataplane/spoof_guard.h"

#include <gtest/gtest.h>

#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"
#include "src/net/packet_pool.h"

namespace norman {
namespace {

using net::Ipv4Address;
using net::MacAddress;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class SpoofGuardTest : public ::testing::Test {
 protected:
  SpoofGuardTest() {
    bed_.kernel().processes().AddUser(1002, "charlie");
    rogue_pid_ = *bed_.kernel().processes().Spawn(1002, "rogue");
  }

  // A frame with an arbitrary forged tuple, sent through a socket's ring.
  net::PacketPtr ForgedFrame(uint16_t src_port, uint16_t dst_port,
                             Ipv4Address src_ip = Ipv4Address::FromOctets(
                                 10, 0, 0, 1)) {
    net::FrameEndpoints ep{bed_.kernel().options().host_mac,
                           MacAddress::ForHost(2), src_ip, kPeerIp};
    return net::BuildUdpPacket(ep, src_port, dst_port,
                               std::vector<uint8_t>(16, 0x66));
  }

  workload::TestBed bed_;
  kernel::Pid rogue_pid_ = 0;
};

TEST_F(SpoofGuardTest, HonestTrafficPasses) {
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("honest").ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 1u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 0u);
}

TEST_F(SpoofGuardTest, ForgedSourcePortDropped) {
  // The §2 partitioning policy allows postgres's src... a rogue forges a
  // *different source port* to masquerade as another connection.
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(
      sock->SendFrame(ForgedFrame(/*src_port=*/5432, /*dst_port=*/80))
          .ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 0u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 1u);
  EXPECT_EQ(bed_.nic().stats().tx_dropped(), 1u);
}

TEST_F(SpoofGuardTest, ForgedDestinationDropped) {
  // A connection is a 5-tuple grant: sending to a different destination
  // port through it is equally forged.
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendFrame(
                      ForgedFrame(sock->tuple().src_port, /*dst_port=*/22))
                  .ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 0u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 1u);
}

TEST_F(SpoofGuardTest, ForgedSourceAddressDropped) {
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendFrame(ForgedFrame(sock->tuple().src_port, 80,
                                          Ipv4Address::FromOctets(
                                              192, 168, 66, 66)))
                  .ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 0u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 1u);
}

TEST_F(SpoofGuardTest, GarbageBytesFromRingDropped) {
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendFrame(net::MakePacket(
                      std::vector<uint8_t>(7, 0xff)))  // not even Ethernet
                  .ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 0u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 1u);
}

TEST_F(SpoofGuardTest, AppArpIsObservableButAllowedByDefault) {
  // The debugging story (§2): the buggy flood reaches the network, fully
  // attributed — the guard does not silently fix the bug for Alice.
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendFrame(net::BuildArpRequestPacket(
                                  MacAddress::ForHost(0xbad),
                                  Ipv4Address::FromOctets(10, 0, 0, 99),
                                  kPeerIp))
                  .ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 1u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 0u);
  ASSERT_EQ(bed_.kernel().arp().tx_observations().size(), 1u);
  EXPECT_EQ(bed_.kernel().arp().tx_observations()[0].owner.owner_pid,
            rogue_pid_);
}

TEST_F(SpoofGuardTest, StrictModeDropsAppArp) {
  // A registered connection emits ARP under a strict-mode guard.
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  dataplane::SpoofGuard strict(&bed_.kernel().nic_control().flow_table(),
                               /*strict_arp=*/true);
  const net::PacketPtr packet = net::BuildArpRequestPacket(
      MacAddress::ForHost(1), Ipv4Address::FromOctets(10, 0, 0, 1), kPeerIp);
  auto parsed = *net::ParseFrame(packet->bytes());
  overlay::PacketContext ctx;
  ctx.frame = packet->bytes();
  ctx.parsed = &parsed;
  ctx.direction = net::Direction::kTx;
  ctx.conn.conn_id = sock->conn_id();  // from a real app ring
  EXPECT_EQ(strict.Process(*packet, ctx).verdict, nic::Verdict::kDrop);
  EXPECT_EQ(strict.spoofed_drops(), 1u);
}

TEST_F(SpoofGuardTest, KernelInjectedFramesExempt) {
  // NIC-generated ARP replies (no conn metadata) must pass: a peer ARPs
  // for the host and the reply reaches the wire.
  auto req = net::BuildArpRequestPacket(MacAddress::ForHost(2), kPeerIp,
                                        bed_.kernel().options().host_ip);
  bed_.InjectFromNetwork(std::move(req), 100);
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 1u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 0u);
}

TEST_F(SpoofGuardTest, SpoofingCannotEvadePortPolicy) {
  // End-to-end: policy says only uid 1001 may hit 5432. The rogue (1002)
  // opens a connection to a *different* port and forges frames to 5432.
  bed_.kernel().processes().AddUser(1001, "bob");
  ASSERT_TRUE(tools::IptablesAppend(
                  &bed_.kernel(), kernel::kRootUid,
                  "-A OUTPUT -p udp --dport 5432 -m owner --uid-owner 1001 "
                  "-j ACCEPT")
                  .ok());
  ASSERT_TRUE(tools::IptablesAppend(&bed_.kernel(), kernel::kRootUid,
                                    "-A OUTPUT -p udp --dport 5432 -j DROP")
                  .ok());
  auto sock = Socket::Connect(&bed_.kernel(), rogue_pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        sock->SendFrame(ForgedFrame(sock->tuple().src_port, 5432)).ok());
  }
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 0u);
  EXPECT_EQ(bed_.kernel().spoof_guard().spoofed_drops(), 10u);
}

}  // namespace
}  // namespace norman
