#include "src/net/packet_builder.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/net/checksum.h"
#include "src/net/parsed_packet.h"

namespace norman::net {
namespace {

FrameEndpoints TestEndpoints() {
  return FrameEndpoints{MacAddress::ForHost(1), MacAddress::ForHost(2),
                        Ipv4Address::FromOctets(10, 0, 0, 1),
                        Ipv4Address::FromOctets(10, 0, 0, 2)};
}

std::vector<uint8_t> Payload(size_t n, uint8_t fill = 0xab) {
  return std::vector<uint8_t>(n, fill);
}

bool TransportChecksumValid(const ParsedPacket& p,
                            std::span<const uint8_t> frame) {
  auto l4 = frame.subspan(p.l4_offset);
  // Recomputing over the segment with the checksum field in place folds to 0
  // for TCP. For UDP the 0xffff substitution breaks that identity, so zero
  // the field and compare instead.
  std::vector<uint8_t> copy(l4.begin(), l4.end());
  const size_t csum_off = p.is_udp() ? 6 : 16;
  const uint16_t wire = static_cast<uint16_t>((copy[csum_off] << 8) |
                                              copy[csum_off + 1]);
  copy[csum_off] = copy[csum_off + 1] = 0;
  return TransportChecksum(p.ipv4->src, p.ipv4->dst, p.ipv4->protocol,
                           copy) == wire;
}

TEST(PacketBuilderTest, UdpFrameParsesBack) {
  const auto payload = Payload(100);
  const PacketPtr packet = BuildUdpPacket(TestEndpoints(), 5432, 9999, payload);
  const auto frame = packet->bytes();
  auto p = ParseFrame(frame);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_udp());
  EXPECT_EQ(p->udp->src_port, 5432);
  EXPECT_EQ(p->udp->dst_port, 9999);
  EXPECT_EQ(p->udp->length, kUdpHeaderSize + 100);
  EXPECT_EQ(p->payload_size(), 100u);
  EXPECT_EQ(p->ipv4->total_length,
            kIpv4MinHeaderSize + kUdpHeaderSize + 100);
  EXPECT_TRUE(Ipv4Header::ChecksumValid(frame.subspan(kEthernetHeaderSize)));
  EXPECT_TRUE(TransportChecksumValid(*p, frame));
}

TEST(PacketBuilderTest, UdpFlowMatchesEndpoints) {
  const PacketPtr packet =
      BuildUdpPacket(TestEndpoints(), 1111, 2222, Payload(10));
  auto p = ParseFrame(packet->bytes());
  ASSERT_TRUE(p.has_value());
  auto flow = p->flow();
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(flow->src_ip, Ipv4Address::FromOctets(10, 0, 0, 1));
  EXPECT_EQ(flow->dst_ip, Ipv4Address::FromOctets(10, 0, 0, 2));
  EXPECT_EQ(flow->src_port, 1111);
  EXPECT_EQ(flow->dst_port, 2222);
  EXPECT_EQ(flow->proto, IpProto::kUdp);
}

TEST(PacketBuilderTest, TcpFrameParsesBack) {
  const PacketPtr packet = BuildTcpPacket(
      TestEndpoints(), 22, 40000, /*seq=*/7, /*ack=*/9,
      TcpFlags::kPsh | TcpFlags::kAck, Payload(64));
  const auto frame = packet->bytes();
  auto p = ParseFrame(frame);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_tcp());
  EXPECT_EQ(p->tcp->src_port, 22);
  EXPECT_EQ(p->tcp->seq, 7u);
  EXPECT_EQ(p->tcp->ack, 9u);
  EXPECT_EQ(p->tcp->flags, TcpFlags::kPsh | TcpFlags::kAck);
  EXPECT_EQ(p->payload_size(), 64u);
  EXPECT_TRUE(TransportChecksumValid(*p, frame));
}

TEST(PacketBuilderTest, IcmpEchoFrame) {
  const PacketPtr packet = BuildIcmpEchoPacket(
      TestEndpoints(), IcmpType::kEchoRequest, 42, 1, Payload(32));
  auto p = ParseFrame(packet->bytes());
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_icmp());
  EXPECT_EQ(p->icmp->identifier, 42);
  // ICMP checksum folds to zero over the whole body.
  auto l4 = packet->bytes().subspan(p->l4_offset);
  EXPECT_EQ(InternetChecksum(l4), 0);
}

TEST(PacketBuilderTest, ArpRequestIsBroadcast) {
  const PacketPtr packet =
      BuildArpRequestPacket(MacAddress::ForHost(3),
                            Ipv4Address::FromOctets(10, 0, 0, 3),
                            Ipv4Address::FromOctets(10, 0, 0, 7));
  auto p = ParseFrame(packet->bytes());
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_arp());
  EXPECT_TRUE(p->eth.dst.IsBroadcast());
  EXPECT_EQ(p->arp->op, ArpOp::kRequest);
  EXPECT_EQ(p->arp->target_ip, Ipv4Address::FromOctets(10, 0, 0, 7));
  EXPECT_EQ(p->arp->sender_mac, MacAddress::ForHost(3));
}

TEST(PacketBuilderTest, ArpReplyIsUnicast) {
  const PacketPtr packet = BuildArpReplyPacket(
      MacAddress::ForHost(7), Ipv4Address::FromOctets(10, 0, 0, 7),
      MacAddress::ForHost(3), Ipv4Address::FromOctets(10, 0, 0, 3));
  auto p = ParseFrame(packet->bytes());
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_arp());
  EXPECT_EQ(p->eth.dst, MacAddress::ForHost(3));
  EXPECT_EQ(p->arp->op, ArpOp::kReply);
  EXPECT_EQ(p->arp->sender_ip, Ipv4Address::FromOctets(10, 0, 0, 7));
}

TEST(RewriteTest, SourceRewritePreservesChecksums) {
  const PacketPtr packet =
      BuildUdpPacket(TestEndpoints(), 1000, 2000, Payload(40));
  const auto frame = packet->mutable_bytes();
  ASSERT_TRUE(RewriteSource(frame, Ipv4Address::FromOctets(192, 168, 9, 9),
                            31337));
  auto p = ParseFrame(frame);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_udp());
  EXPECT_EQ(p->ipv4->src, Ipv4Address::FromOctets(192, 168, 9, 9));
  EXPECT_EQ(p->udp->src_port, 31337);
  EXPECT_EQ(p->ipv4->dst, Ipv4Address::FromOctets(10, 0, 0, 2));  // untouched
  EXPECT_TRUE(Ipv4Header::ChecksumValid(frame.subspan(kEthernetHeaderSize)));
  EXPECT_TRUE(TransportChecksumValid(*p, frame));
}

TEST(RewriteTest, DestinationRewritePreservesChecksums) {
  const PacketPtr packet = BuildTcpPacket(TestEndpoints(), 1000, 2000, 1, 2,
                                          TcpFlags::kAck, Payload(10));
  const auto frame = packet->mutable_bytes();
  ASSERT_TRUE(RewriteDestination(frame,
                                 Ipv4Address::FromOctets(172, 16, 5, 5), 80));
  auto p = ParseFrame(frame);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->is_tcp());
  EXPECT_EQ(p->ipv4->dst, Ipv4Address::FromOctets(172, 16, 5, 5));
  EXPECT_EQ(p->tcp->dst_port, 80);
  EXPECT_TRUE(Ipv4Header::ChecksumValid(frame.subspan(kEthernetHeaderSize)));
  EXPECT_TRUE(TransportChecksumValid(*p, frame));
}

TEST(RewriteTest, RandomizedRewritesAlwaysChecksumClean) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const bool udp = rng.NextBool(0.5);
    const auto payload = Payload(rng.NextBounded(200));
    const PacketPtr packet =
        udp ? BuildUdpPacket(TestEndpoints(),
                             static_cast<uint16_t>(rng.NextInRange(1, 65535)),
                             static_cast<uint16_t>(rng.NextInRange(1, 65535)),
                             payload)
            : BuildTcpPacket(TestEndpoints(),
                             static_cast<uint16_t>(rng.NextInRange(1, 65535)),
                             static_cast<uint16_t>(rng.NextInRange(1, 65535)),
                             rng.NextU32(), rng.NextU32(), TcpFlags::kAck,
                             payload);
    const auto frame = packet->mutable_bytes();
    const Ipv4Address new_ip{rng.NextU32()};
    const auto new_port = static_cast<uint16_t>(rng.NextInRange(1, 65535));
    ASSERT_TRUE(rng.NextBool(0.5) ? RewriteSource(frame, new_ip, new_port)
                                  : RewriteDestination(frame, new_ip,
                                                       new_port));
    auto p = ParseFrame(frame);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(Ipv4Header::ChecksumValid(frame.subspan(kEthernetHeaderSize)))
        << "trial " << trial;
    EXPECT_TRUE(TransportChecksumValid(*p, frame)) << "trial " << trial;
  }
}

TEST(RewriteTest, NonIpFrameRejected) {
  const PacketPtr packet =
      BuildArpRequestPacket(MacAddress::ForHost(1),
                            Ipv4Address::FromOctets(10, 0, 0, 1),
                            Ipv4Address::FromOctets(10, 0, 0, 2));
  EXPECT_FALSE(RewriteSource(packet->mutable_bytes(), Ipv4Address{1}, 1));
}

TEST(ParseFrameTest, UnknownEtherTypeKeepsEthOnly) {
  std::vector<uint8_t> frame(kEthernetHeaderSize + 10, 0);
  frame[12] = 0x86;  // 0x86dd = IPv6
  frame[13] = 0xdd;
  auto p = ParseFrame(frame);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->is_ipv4());
  EXPECT_FALSE(p->is_arp());
  EXPECT_EQ(p->flow(), std::nullopt);
}

TEST(ParseFrameTest, TruncatedEthernetFails) {
  std::vector<uint8_t> frame(8, 0);
  EXPECT_FALSE(ParseFrame(frame).has_value());
}

}  // namespace
}  // namespace norman::net
