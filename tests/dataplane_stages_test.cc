// Sniffer, overlay stage, NAT, conntrack, and ARP service tests.
#include <gtest/gtest.h>

#include "src/dataplane/arp_service.h"
#include "src/dataplane/conntrack.h"
#include "src/dataplane/nat.h"
#include "src/dataplane/overlay_stage.h"
#include "src/dataplane/sniffer.h"
#include "src/net/pcap_writer.h"
#include "src/overlay/interpreter.h"
#include "tests/test_util.h"

namespace norman::dataplane {
namespace {

using net::Direction;
using net::IpProto;
using net::Ipv4Address;
using net::TcpFlags;
using overlay::ConnMetadata;
using test::MakeTcpContext;
using test::MakeUdpContext;

// --- SnifferTap ---

TEST(SnifferTest, CapturesNothingWhileStopped) {
  sim::Simulator sim;
  SnifferTap tap(&sim);
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  tap.Process(pkt->packet, pkt->ctx);
  EXPECT_EQ(tap.captured(), 0u);
}

TEST(SnifferTest, CapturesWithProcessView) {
  sim::Simulator sim;
  SnifferTap tap(&sim);
  tap.Start();
  auto pkt = MakeUdpContext(5555, 80, Direction::kTx,
                            ConnMetadata{9, 1001, 4242, 3, 7});
  const auto result = tap.Process(pkt->packet, pkt->ctx);
  EXPECT_EQ(result.verdict, nic::Verdict::kAccept);  // taps never drop
  ASSERT_EQ(tap.captured(), 1u);
  const CaptureRecord& rec = tap.records()[0];
  EXPECT_EQ(rec.owner.owner_uid, 1001u);
  EXPECT_EQ(rec.owner.owner_pid, 4242u);
  EXPECT_EQ(rec.src_port, 5555);
  EXPECT_EQ(rec.dst_port, 80);
  EXPECT_EQ(rec.ip_proto, 17);
  EXPECT_EQ(rec.direction, Direction::kTx);
}

TEST(SnifferTest, PcapOutputIsParseable) {
  sim::Simulator sim;
  SnifferTap tap(&sim, /*snaplen=*/64);
  tap.Start();
  auto p1 = MakeUdpContext(1, 2, Direction::kTx, {}, /*payload=*/100);
  auto p2 = MakeUdpContext(3, 4, Direction::kRx, {}, /*payload=*/10);
  tap.Process(p1->packet, p1->ctx);
  tap.Process(p2->packet, p2->ctx);
  auto records = net::ParsePcap(tap.pcap().buffer());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].original_length, p1->frame.size());
  EXPECT_LE((*records)[0].bytes.size(), 64u);  // snaplen truncation
}

TEST(SnifferTest, OverlayFilterSelectsTraffic) {
  sim::Simulator sim;
  SnifferTap tap(&sim);
  tap.Start();
  // Capture only ARP frames ("tcpdump arp").
  overlay::Program arp_only{
      overlay::Instruction::Ldf(1, overlay::Field::kIsArp),
      overlay::Instruction::RetReg(1),
  };
  ASSERT_TRUE(tap.SetFilter(arp_only).ok());

  auto udp = MakeUdpContext(1, 2, Direction::kTx);
  tap.Process(udp->packet, udp->ctx);
  EXPECT_EQ(tap.captured(), 0u);

  net::Packet arp_packet(test::Bytes(net::BuildArpRequestPacket(
      net::MacAddress::ForHost(3), test::kLocalIp, test::kRemoteIp)));
  auto parsed = *net::ParseFrame(arp_packet.bytes());
  overlay::PacketContext ctx;
  ctx.frame = arp_packet.bytes();
  ctx.parsed = &parsed;
  ctx.direction = Direction::kTx;
  tap.Process(arp_packet, ctx);
  EXPECT_EQ(tap.captured(), 1u);
  EXPECT_TRUE(tap.records()[0].is_arp_request);
}

TEST(SnifferTest, FilterChargesTheReferenceInstructionCount) {
  sim::Simulator sim;
  SnifferTap tap(&sim);
  tap.Start();
  // "tcpdump port 80": two fused ldf/jeq pairs.
  const overlay::Program port_80{
      overlay::Instruction::Ldf(1, overlay::Field::kDstPort),
      overlay::Instruction::JmpCmpImm(overlay::Opcode::kJeq, 1, 80, 5),
      overlay::Instruction::Ldf(1, overlay::Field::kSrcPort),
      overlay::Instruction::JmpCmpImm(overlay::Opcode::kJeq, 1, 80, 5),
      overlay::Instruction::RetImm(0),
      overlay::Instruction::RetImm(1),
  };
  ASSERT_TRUE(tap.SetFilter(port_80).ok());
  size_t captured = 0;
  for (const auto& pkt : {MakeUdpContext(5, 80, Direction::kTx),
                          MakeUdpContext(80, 5, Direction::kRx),
                          MakeUdpContext(5, 6, Direction::kTx)}) {
    const auto reference = overlay::Execute(port_80, pkt->ctx);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const auto result = tap.Process(pkt->packet, pkt->ctx);
    EXPECT_EQ(result.overlay_instructions, reference->instructions_executed);
    captured += reference->verdict != 0;
    EXPECT_EQ(tap.captured(), captured);
  }
  EXPECT_EQ(captured, 2u);
}

TEST(SnifferTest, RejectsInvalidFilter) {
  sim::Simulator sim;
  SnifferTap tap(&sim);
  overlay::Program bad{overlay::Instruction::Ldi(1, 0)};  // falls off end
  EXPECT_FALSE(tap.SetFilter(bad).ok());
}

TEST(SnifferTest, ClearResetsCapture) {
  sim::Simulator sim;
  SnifferTap tap(&sim);
  tap.Start();
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  tap.Process(pkt->packet, pkt->ctx);
  tap.Clear();
  EXPECT_EQ(tap.captured(), 0u);
  auto records = net::ParsePcap(tap.pcap().buffer());
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

// --- OverlayStage ---

TEST(OverlayStageTest, LoadedSlotChargesTheReferenceInstructionCount) {
  sim::Simulator sim;
  nic::SmartNic nic(&sim, nic::SmartNic::Options{});
  auto cp = nic.TakeControlPlane();
  OverlayStage stage(cp.get(), 0);
  // Drop TX IPv4 with TTL < 5 (fused pairs, one of them a jlt).
  const overlay::Program low_ttl{
      overlay::Instruction::Ldf(1, overlay::Field::kIsIpv4),
      overlay::Instruction::JmpCmpImm(overlay::Opcode::kJeq, 1, 0, 4),
      overlay::Instruction::Ldf(2, overlay::Field::kIpTtl),
      overlay::Instruction::JmpCmpImm(overlay::Opcode::kJlt, 2, 5, 5),
      overlay::Instruction::RetImm(1),
      overlay::Instruction::RetImm(0),
  };
  ASSERT_TRUE(cp->LoadOverlay(0, low_ttl).ok());
  auto udp = MakeUdpContext(1, 2, Direction::kTx);
  auto arp = test::MakeArpContext(Direction::kTx);
  for (test::ContextBundle* pkt : {udp.get(), arp.get()}) {
    const auto reference = overlay::Execute(low_ttl, pkt->ctx);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const auto result = stage.Process(pkt->packet, pkt->ctx);
    EXPECT_EQ(result.overlay_instructions, reference->instructions_executed);
    EXPECT_EQ(result.verdict, nic::Verdict::kAccept);
  }
  EXPECT_EQ(stage.executions(), 2u);
}

// --- NatEngine ---

class NatTest : public ::testing::Test {
 protected:
  NatTest()
      : sram_(1 * kMiB),
        nat_(&sram_, Ipv4Address::FromOctets(10, 0, 0, 0), 8,
             Ipv4Address::FromOctets(203, 0, 113, 7)) {}

  nic::SramAllocator sram_;
  NatEngine nat_;
};

TEST_F(NatTest, TxRewritesSourceToPublic) {
  auto pkt = MakeUdpContext(5000, 80, Direction::kTx);
  const auto r = nat_.Process(pkt->packet, pkt->ctx);
  EXPECT_EQ(r.verdict, nic::Verdict::kAccept);
  auto parsed = net::ParseFrame(pkt->packet.bytes());
  EXPECT_EQ(parsed->ipv4->src, Ipv4Address::FromOctets(203, 0, 113, 7));
  EXPECT_NE(parsed->udp->src_port, 5000);  // allocated public port
  EXPECT_GE(parsed->udp->src_port, 20000);
  EXPECT_EQ(nat_.tx_translated(), 1u);
  EXPECT_EQ(nat_.active_mappings(), 1u);
  // Checksums stay valid after rewrite.
  EXPECT_TRUE(net::Ipv4Header::ChecksumValid(
      pkt->packet.bytes().subspan(net::kEthernetHeaderSize)));
}

TEST_F(NatTest, RxReverseTranslates) {
  auto out = MakeUdpContext(5000, 80, Direction::kTx);
  nat_.Process(out->packet, out->ctx);
  auto parsed_out = net::ParseFrame(out->packet.bytes());
  const uint16_t public_port = parsed_out->udp->src_port;

  // Build the reply addressed to the public endpoint.
  net::FrameEndpoints reply_ep{net::MacAddress::ForHost(2),
                               net::MacAddress::ForHost(1), test::kRemoteIp,
                               Ipv4Address::FromOctets(203, 0, 113, 7)};
  net::Packet reply(test::Bytes(net::BuildUdpPacket(
      reply_ep, 80, public_port, std::vector<uint8_t>(8, 1))));
  auto parsed = *net::ParseFrame(reply.bytes());
  overlay::PacketContext ctx;
  ctx.frame = reply.bytes();
  ctx.parsed = &parsed;
  ctx.direction = Direction::kRx;
  nat_.Process(reply, ctx);

  auto translated = net::ParseFrame(reply.bytes());
  EXPECT_EQ(translated->ipv4->dst, test::kLocalIp);  // 10.0.0.1
  EXPECT_EQ(translated->udp->dst_port, 5000);
  EXPECT_EQ(nat_.rx_translated(), 1u);
}

TEST_F(NatTest, StableMappingPerFlow) {
  auto p1 = MakeUdpContext(5000, 80, Direction::kTx);
  auto p2 = MakeUdpContext(5000, 80, Direction::kTx);
  nat_.Process(p1->packet, p1->ctx);
  nat_.Process(p2->packet, p2->ctx);
  EXPECT_EQ(nat_.active_mappings(), 1u);  // one flow, one mapping
  const auto a = net::ParseFrame(p1->packet.bytes())->udp->src_port;
  const auto b = net::ParseFrame(p2->packet.bytes())->udp->src_port;
  EXPECT_EQ(a, b);
}

TEST_F(NatTest, DistinctFlowsGetDistinctPorts) {
  auto p1 = MakeUdpContext(5000, 80, Direction::kTx);
  auto p2 = MakeUdpContext(5001, 80, Direction::kTx);
  nat_.Process(p1->packet, p1->ctx);
  nat_.Process(p2->packet, p2->ctx);
  EXPECT_EQ(nat_.active_mappings(), 2u);
  const auto a = net::ParseFrame(p1->packet.bytes())->udp->src_port;
  const auto b = net::ParseFrame(p2->packet.bytes())->udp->src_port;
  EXPECT_NE(a, b);
}

TEST_F(NatTest, OutsidePrefixUntouched) {
  // Source 172.16.x is outside 10/8.
  net::FrameEndpoints ep{net::MacAddress::ForHost(1),
                         net::MacAddress::ForHost(2),
                         Ipv4Address::FromOctets(172, 16, 0, 1),
                         test::kRemoteIp};
  net::Packet packet(test::Bytes(
      net::BuildUdpPacket(ep, 1111, 80, std::vector<uint8_t>(4, 0))));
  auto parsed = *net::ParseFrame(packet.bytes());
  overlay::PacketContext ctx;
  ctx.frame = packet.bytes();
  ctx.parsed = &parsed;
  ctx.direction = Direction::kTx;
  nat_.Process(packet, ctx);
  EXPECT_EQ(nat_.tx_translated(), 0u);
  EXPECT_EQ(net::ParseFrame(packet.bytes())->udp->src_port, 1111);
}

TEST_F(NatTest, SramExhaustionDropsNewFlows) {
  nic::SramAllocator tiny(2 * kNatEntryBytes);
  NatEngine nat(&tiny, Ipv4Address::FromOctets(10, 0, 0, 0), 8,
                Ipv4Address::FromOctets(203, 0, 113, 7));
  for (uint16_t i = 0; i < 2; ++i) {
    auto p = MakeUdpContext(6000 + i, 80, Direction::kTx);
    EXPECT_EQ(nat.Process(p->packet, p->ctx).verdict, nic::Verdict::kAccept);
  }
  auto p3 = MakeUdpContext(6002, 80, Direction::kTx);
  EXPECT_EQ(nat.Process(p3->packet, p3->ctx).verdict, nic::Verdict::kDrop);
  EXPECT_EQ(nat.exhausted_drops(), 1u);
}

TEST_F(NatTest, NonIpPassesThrough) {
  net::Packet packet(test::Bytes(net::BuildArpRequestPacket(
      net::MacAddress::ForHost(1), test::kLocalIp, test::kRemoteIp)));
  auto parsed = *net::ParseFrame(packet.bytes());
  overlay::PacketContext ctx;
  ctx.frame = packet.bytes();
  ctx.parsed = &parsed;
  ctx.direction = Direction::kTx;
  EXPECT_EQ(nat_.Process(packet, ctx).verdict, nic::Verdict::kAccept);
  EXPECT_EQ(nat_.tx_translated(), 0u);
}

// --- Conntrack ---

class ConntrackTest : public ::testing::Test {
 protected:
  ConntrackTest() : sram_(1 * kMiB), ct_(&sram_, /*idle_timeout=*/kSecond) {}
  nic::SramAllocator sram_;
  Conntrack ct_;
};

TEST_F(ConntrackTest, TcpHandshakeReachesEstablished) {
  auto syn = MakeTcpContext(1000, 80, TcpFlags::kSyn, Direction::kTx);
  syn->packet.meta().nic_arrival = 10;
  ct_.Process(syn->packet, syn->ctx);
  const auto* e = ct_.Lookup(*syn->parsed.flow());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, ConnState::kSynSent);

  // SYN-ACK from responder (reverse direction tuple).
  auto synack = MakeTcpContext(80, 1000, TcpFlags::kSyn | TcpFlags::kAck,
                               Direction::kRx);
  synack->packet.meta().nic_arrival = 20;
  ct_.Process(synack->packet, synack->ctx);
  EXPECT_EQ(e->state, ConnState::kEstablished);
  EXPECT_EQ(ct_.size(), 1u);  // one tracked connection, both directions
  EXPECT_EQ(e->packets, 2u);
}

TEST_F(ConntrackTest, FinSequenceCloses) {
  auto syn = MakeTcpContext(1000, 80, TcpFlags::kSyn, Direction::kTx);
  ct_.Process(syn->packet, syn->ctx);
  auto synack = MakeTcpContext(80, 1000, TcpFlags::kSyn | TcpFlags::kAck,
                               Direction::kRx);
  ct_.Process(synack->packet, synack->ctx);
  auto fin1 = MakeTcpContext(1000, 80, TcpFlags::kFin | TcpFlags::kAck,
                             Direction::kTx);
  ct_.Process(fin1->packet, fin1->ctx);
  const auto* e = ct_.Lookup(*syn->parsed.flow());
  EXPECT_EQ(e->state, ConnState::kFinWait);
  auto fin2 = MakeTcpContext(80, 1000, TcpFlags::kFin | TcpFlags::kAck,
                             Direction::kRx);
  ct_.Process(fin2->packet, fin2->ctx);
  EXPECT_EQ(e->state, ConnState::kClosed);
}

TEST_F(ConntrackTest, RstClosesImmediately) {
  auto syn = MakeTcpContext(1000, 80, TcpFlags::kSyn, Direction::kTx);
  ct_.Process(syn->packet, syn->ctx);
  auto rst = MakeTcpContext(1000, 80, TcpFlags::kRst, Direction::kTx);
  ct_.Process(rst->packet, rst->ctx);
  EXPECT_EQ(ct_.Lookup(*syn->parsed.flow())->state, ConnState::kClosed);
}

TEST_F(ConntrackTest, UdpEstablishesOnReply) {
  auto req = MakeUdpContext(1000, 53, Direction::kTx);
  ct_.Process(req->packet, req->ctx);
  EXPECT_EQ(ct_.Lookup(*req->parsed.flow())->state, ConnState::kNew);
  auto resp = MakeUdpContext(53, 1000, Direction::kRx);
  ct_.Process(resp->packet, resp->ctx);
  EXPECT_EQ(ct_.Lookup(*req->parsed.flow())->state, ConnState::kEstablished);
}

TEST_F(ConntrackTest, SweepRemovesClosedAndIdle) {
  auto rst = MakeTcpContext(1, 2, TcpFlags::kRst, Direction::kTx);
  rst->packet.meta().nic_arrival = 0;
  ct_.Process(rst->packet, rst->ctx);
  auto live = MakeUdpContext(3, 4, Direction::kTx);
  live->packet.meta().nic_arrival = 100;
  ct_.Process(live->packet, live->ctx);
  EXPECT_EQ(ct_.size(), 2u);
  EXPECT_EQ(ct_.Sweep(200), 1u);  // closed TCP entry goes
  EXPECT_EQ(ct_.size(), 1u);
  EXPECT_EQ(ct_.Sweep(100 + 2 * kSecond), 1u);  // idle UDP expires
  EXPECT_EQ(ct_.size(), 0u);
  EXPECT_EQ(sram_.UsedBy("conntrack"), 0u);
}

TEST_F(ConntrackTest, SweepExpiresStrictlyAfterIdleTimeout) {
  auto udp = MakeUdpContext(5, 6, Direction::kTx);
  udp->packet.meta().nic_arrival = 1000;
  ct_.Process(udp->packet, udp->ctx);
  EXPECT_EQ(ct_.Sweep(1000 + kSecond), 0u);  // exactly the timeout: kept
  EXPECT_EQ(ct_.size(), 1u);
  EXPECT_EQ(ct_.Sweep(1000 + kSecond + 1), 1u);
  EXPECT_EQ(ct_.size(), 0u);
  EXPECT_EQ(sram_.UsedBy("conntrack"), 0u);
}

TEST_F(ConntrackTest, RefreshWithOlderArrivalStillExpiresOnTime) {
  auto udp = MakeUdpContext(5, 6, Direction::kTx);
  udp->packet.meta().nic_arrival = 5000;
  ct_.Process(udp->packet, udp->ctx);
  // A closed entry forces a full scan, which sees only last_seen = 5000.
  auto rst = MakeTcpContext(1, 2, TcpFlags::kRst, Direction::kTx);
  rst->packet.meta().nic_arrival = 5000;
  ct_.Process(rst->packet, rst->ctx);
  EXPECT_EQ(ct_.Sweep(6000), 1u);
  // The reply carries an arrival stamp older than anything that scan saw.
  auto reply = MakeUdpContext(6, 5, Direction::kRx);
  reply->packet.meta().nic_arrival = 100;
  ct_.Process(reply->packet, reply->ctx);
  EXPECT_EQ(ct_.Lookup(*udp->parsed.flow())->last_seen, 100);
  EXPECT_EQ(ct_.Sweep(100 + kSecond), 0u);
  EXPECT_EQ(ct_.Sweep(100 + kSecond + 1), 1u);
  EXPECT_EQ(ct_.size(), 0u);
  EXPECT_EQ(sram_.UsedBy("conntrack"), 0u);
}

TEST_F(ConntrackTest, RstClosedEntryGoesAtNextSweepWhileOthersAreFresh) {
  auto udp = MakeUdpContext(5, 6, Direction::kTx);
  udp->packet.meta().nic_arrival = 1000;
  ct_.Process(udp->packet, udp->ctx);
  auto syn = MakeTcpContext(1000, 80, TcpFlags::kSyn, Direction::kTx);
  syn->packet.meta().nic_arrival = 1000;
  ct_.Process(syn->packet, syn->ctx);
  EXPECT_EQ(ct_.Sweep(1500), 0u);  // nothing closed, nothing idle
  // The peer resets: the reverse-direction RST closes the tracked flow.
  auto rst = MakeTcpContext(80, 1000, TcpFlags::kRst, Direction::kRx);
  rst->packet.meta().nic_arrival = 1500;
  ct_.Process(rst->packet, rst->ctx);
  EXPECT_EQ(ct_.Lookup(*syn->parsed.flow())->state, ConnState::kClosed);
  EXPECT_EQ(ct_.Sweep(1600), 1u);
  EXPECT_EQ(ct_.Lookup(*syn->parsed.flow()), nullptr);
  EXPECT_NE(ct_.Lookup(*udp->parsed.flow()), nullptr);
  EXPECT_EQ(ct_.Sweep(1700), 0u);
  EXPECT_EQ(ct_.Sweep(1000 + kSecond + 1), 1u);  // the UDP flow idles out
  EXPECT_EQ(sram_.UsedBy("conntrack"), 0u);
}

TEST_F(ConntrackTest, SramExhaustionCountsUntracked) {
  nic::SramAllocator tiny(kConntrackEntryBytes);
  Conntrack ct(&tiny);
  auto a = MakeUdpContext(1, 2, Direction::kTx);
  auto b = MakeUdpContext(3, 4, Direction::kTx);
  ct.Process(a->packet, a->ctx);
  ct.Process(b->packet, b->ctx);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_EQ(ct.untracked(), 1u);
}

// --- ArpService ---

class ArpTest : public ::testing::Test {
 protected:
  ArpTest()
      : arp_(&sim_, test::kLocalIp, net::MacAddress::ForHost(1)) {
    arp_.SetReplyInjector(
        [this](net::PacketPtr p) { injected_.push_back(std::move(p)); });
  }

  std::unique_ptr<test::ContextBundle> ArpContext(
      const net::PacketPtr& frame, net::Direction dir,
      ConnMetadata owner = {}) {
    auto b = std::make_unique<test::ContextBundle>();
    b->frame = test::Bytes(frame);
    b->packet = net::Packet(b->frame);
    b->parsed = *net::ParseFrame(b->packet.bytes());
    b->ctx.frame = b->packet.bytes();
    b->ctx.parsed = &b->parsed;
    b->ctx.conn = owner;
    b->ctx.direction = dir;
    b->packet.meta().direction = dir;
    return b;
  }

  sim::Simulator sim_;
  ArpService arp_;
  std::vector<net::PacketPtr> injected_;
};

TEST_F(ArpTest, AnswersRequestsForLocalIp) {
  auto req = ArpContext(
      net::BuildArpRequestPacket(net::MacAddress::ForHost(9),
                                 Ipv4Address::FromOctets(10, 0, 0, 9),
                                 test::kLocalIp),
      Direction::kRx);
  const auto result = arp_.Process(req->packet, req->ctx);
  EXPECT_EQ(result.verdict, nic::Verdict::kDrop);  // consumed by the NIC
  ASSERT_EQ(injected_.size(), 1u);
  auto reply = net::ParseFrame(injected_[0]->bytes());
  ASSERT_TRUE(reply && reply->is_arp());
  EXPECT_EQ(reply->arp->op, net::ArpOp::kReply);
  EXPECT_EQ(reply->arp->sender_ip, test::kLocalIp);
  EXPECT_EQ(reply->arp->sender_mac, net::MacAddress::ForHost(1));
  EXPECT_EQ(reply->eth.dst, net::MacAddress::ForHost(9));
  EXPECT_EQ(arp_.replies_generated(), 1u);
}

TEST_F(ArpTest, IgnoresRequestsForOtherIps) {
  auto req = ArpContext(
      net::BuildArpRequestPacket(net::MacAddress::ForHost(9),
                                 Ipv4Address::FromOctets(10, 0, 0, 9),
                                 Ipv4Address::FromOctets(10, 0, 0, 77)),
      Direction::kRx);
  EXPECT_EQ(arp_.Process(req->packet, req->ctx).verdict,
            nic::Verdict::kAccept);
  EXPECT_TRUE(injected_.empty());
  // But the sender was still learned.
  EXPECT_TRUE(arp_.cache().contains(
      Ipv4Address::FromOctets(10, 0, 0, 9).addr));
}

TEST_F(ArpTest, AdditionalLocalAddressesAnswered) {
  const auto vip = Ipv4Address::FromOctets(10, 0, 0, 200);
  arp_.AddLocalAddress(vip);
  auto req = ArpContext(
      net::BuildArpRequestPacket(net::MacAddress::ForHost(9),
                                 Ipv4Address::FromOctets(10, 0, 0, 9), vip),
      Direction::kRx);
  arp_.Process(req->packet, req->ctx);
  EXPECT_EQ(arp_.replies_generated(), 1u);
}

TEST_F(ArpTest, TxObservationRecordsOwner) {
  // The buggy-app forensic record: app-originated ARP tagged with its pid.
  auto req = ArpContext(
      net::BuildArpRequestPacket(net::MacAddress::ForHost(66),
                                 Ipv4Address::FromOctets(10, 0, 0, 66),
                                 test::kRemoteIp),
      Direction::kTx, ConnMetadata{5, 1002, 4321, 2, 9});
  EXPECT_EQ(arp_.Process(req->packet, req->ctx).verdict,
            nic::Verdict::kAccept);
  ASSERT_EQ(arp_.tx_observations().size(), 1u);
  const auto& obs = arp_.tx_observations()[0];
  EXPECT_EQ(obs.owner.owner_pid, 4321u);
  EXPECT_EQ(obs.owner.owner_uid, 1002u);
  EXPECT_EQ(obs.claimed_sender_ip, Ipv4Address::FromOctets(10, 0, 0, 66));
  EXPECT_TRUE(obs.is_request);
}

TEST_F(ArpTest, NonArpIgnored) {
  auto udp = MakeUdpContext(1, 2, Direction::kRx);
  EXPECT_EQ(arp_.Process(udp->packet, udp->ctx).verdict,
            nic::Verdict::kAccept);
  EXPECT_TRUE(arp_.cache().empty());
  EXPECT_TRUE(arp_.tx_observations().empty());
}

TEST_F(ArpTest, CacheUpdatesOnNewerObservation) {
  auto r1 = ArpContext(
      net::BuildArpRequestPacket(net::MacAddress::ForHost(9),
                                 Ipv4Address::FromOctets(10, 0, 0, 9),
                                 Ipv4Address::FromOctets(10, 0, 0, 99)),
      Direction::kRx);
  arp_.Process(r1->packet, r1->ctx);
  auto r2 = ArpContext(
      net::BuildArpRequestPacket(net::MacAddress::ForHost(10),
                                 Ipv4Address::FromOctets(10, 0, 0, 9),  // same
                                 Ipv4Address::FromOctets(10, 0, 0, 99)),
      Direction::kRx);
  arp_.Process(r2->packet, r2->ctx);
  const auto& entry =
      arp_.cache().at(Ipv4Address::FromOctets(10, 0, 0, 9).addr);
  EXPECT_EQ(entry.mac, net::MacAddress::ForHost(10));
}

}  // namespace
}  // namespace norman::dataplane
