#include "src/dataplane/filter_engine.h"

#include <gtest/gtest.h>

#include "src/overlay/verifier.h"
#include "tests/test_util.h"

namespace norman::dataplane {
namespace {

using net::Direction;
using net::IpProto;
using net::Ipv4Address;
using overlay::ConnMetadata;
using test::MakeTcpContext;
using test::MakeUdpContext;

nic::Verdict RunFilter(FilterEngine& engine, test::ContextBundle& bundle) {
  return engine.Process(bundle.packet, bundle.ctx).verdict;
}

TEST(FilterEngineTest, EmptyChainUsesDefaultPolicy) {
  FilterEngine accept(FilterAction::kAccept);
  FilterEngine drop(FilterAction::kDrop);
  auto pkt = MakeUdpContext(1000, 2000, Direction::kTx);
  EXPECT_EQ(RunFilter(accept, *pkt), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(drop, *pkt), nic::Verdict::kDrop);
  EXPECT_EQ(accept.default_hits(), 1u);
}

TEST(FilterEngineTest, DstPortDropRule) {
  FilterEngine engine;
  FilterRule rule;
  rule.proto = IpProto::kUdp;
  rule.dst_port = PortRange{53, 53};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());

  auto dns = MakeUdpContext(1000, 53, Direction::kTx);
  auto web = MakeUdpContext(1000, 80, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *dns), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *web), nic::Verdict::kAccept);
  EXPECT_EQ(engine.hit_counts()[0], 1u);
  EXPECT_EQ(engine.default_hits(), 1u);
}

TEST(FilterEngineTest, FirstMatchWins) {
  FilterEngine engine;
  FilterRule accept_dns;
  accept_dns.dst_port = PortRange{53, 53};
  accept_dns.action = FilterAction::kAccept;
  FilterRule drop_all_udp;
  drop_all_udp.proto = IpProto::kUdp;
  drop_all_udp.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(accept_dns).ok());
  ASSERT_TRUE(engine.AppendRule(drop_all_udp).ok());

  auto dns = MakeUdpContext(1000, 53, Direction::kTx);
  auto other = MakeUdpContext(1000, 54, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *dns), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *other), nic::Verdict::kDrop);
  EXPECT_EQ(engine.hit_counts()[0], 1u);
  EXPECT_EQ(engine.hit_counts()[1], 1u);
}

TEST(FilterEngineTest, OwnerUidMatch) {
  // §2 "Partitioning Ports": only Bob (uid 1001) may use port 5432.
  FilterEngine engine;
  FilterRule allow_bob;
  allow_bob.dst_port = PortRange{5432, 5432};
  allow_bob.owner_uid = 1001;
  allow_bob.action = FilterAction::kAccept;
  FilterRule deny_5432;
  deny_5432.dst_port = PortRange{5432, 5432};
  deny_5432.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(allow_bob).ok());
  ASSERT_TRUE(engine.AppendRule(deny_5432).ok());

  auto bob = MakeUdpContext(40000, 5432, Direction::kTx,
                            ConnMetadata{1, 1001, 200, 1, 7});
  auto charlie = MakeUdpContext(40001, 5432, Direction::kTx,
                                ConnMetadata{2, 1002, 201, 1, 8});
  auto bob_other = MakeUdpContext(40002, 80, Direction::kTx,
                                  ConnMetadata{1, 1001, 200, 1, 7});
  EXPECT_EQ(RunFilter(engine, *bob), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *charlie), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *bob_other), nic::Verdict::kAccept);  // default
}

TEST(FilterEngineTest, OwnerCommMatch) {
  // cmd-owner: only processes named "postgres" (comm id 7) on 5432.
  FilterEngine engine;
  FilterRule allow_pg;
  allow_pg.dst_port = PortRange{5432, 5432};
  allow_pg.owner_comm = 7;
  allow_pg.action = FilterAction::kAccept;
  FilterRule deny;
  deny.dst_port = PortRange{5432, 5432};
  deny.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(allow_pg).ok());
  ASSERT_TRUE(engine.AppendRule(deny).ok());

  auto pg = MakeUdpContext(1, 5432, Direction::kTx,
                           ConnMetadata{1, 1001, 200, 1, /*comm=*/7});
  auto rogue = MakeUdpContext(2, 5432, Direction::kTx,
                              ConnMetadata{2, 1001, 201, 1, /*comm=*/9});
  EXPECT_EQ(RunFilter(engine, *pg), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *rogue), nic::Verdict::kDrop);
}

TEST(FilterEngineTest, DirectionScopedRules) {
  FilterEngine engine;
  FilterRule rx_only_drop;
  rx_only_drop.direction = Direction::kRx;
  rx_only_drop.dst_port = PortRange{9999, 9999};
  rx_only_drop.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rx_only_drop).ok());

  auto tx = MakeUdpContext(1, 9999, Direction::kTx);
  auto rx = MakeUdpContext(1, 9999, Direction::kRx);
  EXPECT_EQ(RunFilter(engine, *tx), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *rx), nic::Verdict::kDrop);
}

TEST(FilterEngineTest, PrefixMatch) {
  FilterEngine engine;
  FilterRule drop_subnet;
  drop_subnet.src_ip = Ipv4Address::FromOctets(10, 0, 0, 0);
  drop_subnet.src_ip_prefix = 24;
  drop_subnet.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(drop_subnet).ok());

  // test_util frames use 10.0.0.x sources.
  auto in_subnet = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *in_subnet), nic::Verdict::kDrop);

  FilterEngine engine2;
  FilterRule drop_other;
  drop_other.src_ip = Ipv4Address::FromOctets(192, 168, 0, 0);
  drop_other.src_ip_prefix = 16;
  drop_other.action = FilterAction::kDrop;
  ASSERT_TRUE(engine2.AppendRule(drop_other).ok());
  EXPECT_EQ(RunFilter(engine2, *in_subnet), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, SlashZeroPrefixMatchesEveryAddress) {
  // iptables' "any address": at /0 the address bits must not matter.
  FilterEngine engine;
  FilterRule any_src;
  any_src.src_ip = Ipv4Address::FromOctets(10, 1, 2, 3);
  any_src.src_ip_prefix = 0;
  any_src.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(any_src).ok());
  // ldf src; shr 32; jne 0: every 32-bit address shifts to 0.
  const overlay::Program& program = engine.compiled();
  ASSERT_GE(program.size(), 3u);
  EXPECT_EQ(program[1],
            overlay::Instruction::AluImm(overlay::Opcode::kShr, 1, 32));
  EXPECT_EQ(program[2].op, overlay::Opcode::kJne);
  EXPECT_EQ(program[2].imm, 0);

  auto tx = MakeUdpContext(1, 2, Direction::kTx);  // from 10.0.0.1
  auto rx = MakeUdpContext(1, 2, Direction::kRx);  // from 10.0.0.2
  auto tcp = MakeTcpContext(1, 2, net::TcpFlags::kSyn, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *tx), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *rx), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *tcp), nic::Verdict::kDrop);
  EXPECT_EQ(engine.hit_counts()[0], 3u);
  EXPECT_EQ(engine.default_hits(), 0u);
}

TEST(FilterEngineTest, PrefixLongerThan32IsRefused) {
  FilterEngine engine;
  FilterRule keep;
  keep.dst_port = PortRange{53, 53};
  keep.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(keep).ok());
  const overlay::Program before = engine.compiled();

  FilterRule bad_src;
  bad_src.src_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  bad_src.src_ip_prefix = 33;
  FilterRule bad_dst;
  bad_dst.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  bad_dst.dst_ip_prefix = 33;
  for (const FilterRule& bad : {bad_src, bad_dst}) {
    EXPECT_EQ(engine.AppendRule(bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.InsertRule(0, bad).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.rules().size(), 1u);
  EXPECT_EQ(engine.hit_counts().size(), 1u);
  EXPECT_EQ(engine.compiled(), before);
}

TEST(FilterEngineTest, PortRangeMatch) {
  FilterEngine engine;
  FilterRule rule;
  rule.dst_port = PortRange{1000, 2000};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());

  auto below = MakeUdpContext(1, 999, Direction::kTx);
  auto low = MakeUdpContext(1, 1000, Direction::kTx);
  auto mid = MakeUdpContext(1, 1500, Direction::kTx);
  auto high = MakeUdpContext(1, 2000, Direction::kTx);
  auto above = MakeUdpContext(1, 2001, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *below), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *low), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *mid), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *high), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *above), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, ProtocolRuleDoesNotMatchNonIp) {
  FilterEngine engine;
  FilterRule rule;
  rule.proto = IpProto::kUdp;
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());

  // ARP frame: proto rules must not match.
  net::Packet packet(test::Bytes(net::BuildArpRequestPacket(
      net::MacAddress::ForHost(1), test::kLocalIp, test::kRemoteIp)));
  auto parsed = *net::ParseFrame(packet.bytes());
  overlay::PacketContext ctx;
  ctx.frame = packet.bytes();
  ctx.parsed = &parsed;
  ctx.direction = Direction::kTx;
  EXPECT_EQ(engine.Process(packet, ctx).verdict, nic::Verdict::kAccept);
}

TEST(FilterEngineTest, SoftwareFallbackAction) {
  FilterEngine engine;
  FilterRule rule;
  rule.owner_cgroup = 5;
  rule.action = FilterAction::kSoftwareFallback;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto pkt = MakeUdpContext(1, 2, Direction::kTx,
                            ConnMetadata{1, 1000, 100, /*cgroup=*/5, 0});
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kSoftwareFallback);
}

TEST(FilterEngineTest, DeleteAndInsertMaintainOrder) {
  FilterEngine engine;
  FilterRule r1;
  r1.dst_port = PortRange{1, 1};
  r1.action = FilterAction::kDrop;
  FilterRule r2;
  r2.dst_port = PortRange{2, 2};
  r2.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(r1).ok());
  ASSERT_TRUE(engine.AppendRule(r2).ok());
  ASSERT_TRUE(engine.DeleteRule(0).ok());
  EXPECT_EQ(engine.rules().size(), 1u);

  auto pkt1 = MakeUdpContext(9, 1, Direction::kTx);
  auto pkt2 = MakeUdpContext(9, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt1), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *pkt2), nic::Verdict::kDrop);

  FilterRule r3;
  r3.dst_port = PortRange{1, 1};
  r3.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.InsertRule(0, r3).ok());
  EXPECT_EQ(RunFilter(engine, *pkt1), nic::Verdict::kDrop);
  EXPECT_FALSE(engine.DeleteRule(99).ok());
  EXPECT_FALSE(engine.InsertRule(99, r3).ok());
}

TEST(FilterEngineTest, FlushRestoresDefault) {
  FilterEngine engine;
  FilterRule rule;
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kDrop);
  engine.Flush();
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kAccept);
  EXPECT_TRUE(engine.rules().empty());
}

TEST(FilterEngineTest, CompiledProgramAlwaysVerifies) {
  FilterEngine engine;
  for (int i = 0; i < 10; ++i) {
    FilterRule rule;
    rule.proto = IpProto::kTcp;
    rule.src_ip = Ipv4Address::FromOctets(10, 0, 0, static_cast<uint8_t>(i));
    rule.dst_port = PortRange{80, 443};
    rule.owner_uid = 1000u + i;
    rule.action = i % 2 == 0 ? FilterAction::kDrop : FilterAction::kAccept;
    ASSERT_TRUE(engine.AppendRule(rule).ok());
    EXPECT_TRUE(overlay::VerifyProgram(engine.compiled()).ok());
  }
}

TEST(FilterEngineTest, ChainCapacityIsEnforced) {
  FilterEngine engine;
  FilterRule fat;  // many predicates -> many instructions
  fat.direction = Direction::kTx;
  fat.proto = IpProto::kTcp;
  fat.src_ip = Ipv4Address::FromOctets(10, 1, 2, 3);
  fat.dst_ip = Ipv4Address::FromOctets(10, 4, 5, 6);
  fat.src_port = PortRange{10, 20};
  fat.dst_port = PortRange{30, 40};
  fat.owner_uid = 1;
  fat.owner_pid = 2;
  fat.owner_comm = 3;
  fat.owner_cgroup = 4;
  fat.action = FilterAction::kDrop;

  Status last = OkStatus();
  size_t added = 0;
  for (int i = 0; i < 100; ++i) {
    auto r = engine.AppendRule(fat);
    if (!r.ok()) {
      last = r.status();
      break;
    }
    ++added;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(added, 5u);
  // Engine still functional after the failed append.
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, ChainFillingInstructionMemoryExactlyIsAccepted) {
  // An unconditional rule compiles to a lone `ret`, so 511 of them plus the
  // default tail are exactly kMaxProgramLength instructions.
  FilterEngine engine;
  FilterRule any;
  any.action = FilterAction::kDrop;
  for (size_t i = 0; i + 1 < overlay::kMaxProgramLength; ++i) {
    ASSERT_TRUE(engine.AppendRule(any).ok()) << "rule " << i;
  }
  EXPECT_EQ(engine.compiled().size(), overlay::kMaxProgramLength);
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kDrop);
  const size_t num_rules = engine.rules().size();
  const std::vector<uint64_t> hits = engine.hit_counts();
  const overlay::Program compiled = engine.compiled();

  // One more instruction does not fit, at either end of the chain.
  EXPECT_EQ(engine.AppendRule(any).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.InsertRule(0, any).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.rules().size(), num_rules);
  EXPECT_EQ(engine.hit_counts(), hits);
  EXPECT_EQ(engine.compiled(), compiled);
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kDrop);
  EXPECT_EQ(engine.hit_counts()[0], 2u);
}

TEST(FilterEngineTest, EveryMutationIsSeenByTheNextPacketAndProgram) {
  // Two engines take the same changes: `by_packet` must see each one on the
  // very next Process(), `by_program` on the very next compiled_for().
  FilterEngine by_packet;
  FilterEngine by_program;
  auto dns = MakeUdpContext(1000, 53, Direction::kTx);
  const auto step = [&](auto mutate, nic::Verdict want) {
    mutate(by_packet);
    mutate(by_program);
    EXPECT_EQ(RunFilter(by_packet, *dns), want);
    FilterEngine fresh(by_program.default_action());
    for (const FilterRule& r : by_program.rules()) {
      ASSERT_TRUE(fresh.AppendRule(r).ok());
    }
    for (const IpProto proto : {IpProto::kTcp, IpProto::kUdp, IpProto::kIcmp}) {
      EXPECT_EQ(by_program.compiled_for(proto), fresh.compiled_for(proto));
    }
    EXPECT_EQ(by_program.compiled(),
              CompileFilterChain(by_program.rules(),
                                 by_program.default_action()));
  };
  FilterRule drop_dns;
  drop_dns.proto = IpProto::kUdp;
  drop_dns.dst_port = PortRange{53, 53};
  drop_dns.action = FilterAction::kDrop;
  FilterRule accept_udp;
  accept_udp.proto = IpProto::kUdp;
  accept_udp.action = FilterAction::kAccept;
  // Both start compiled, so a change that failed to mark them stale shows.
  EXPECT_EQ(RunFilter(by_packet, *dns), nic::Verdict::kAccept);
  EXPECT_EQ(by_program.compiled().size(), 1u);

  step([&](FilterEngine& e) { ASSERT_TRUE(e.AppendRule(drop_dns).ok()); },
       nic::Verdict::kDrop);
  step([&](FilterEngine& e) { ASSERT_TRUE(e.InsertRule(0, accept_udp).ok()); },
       nic::Verdict::kAccept);
  EXPECT_EQ(by_packet.hit_counts(), (std::vector<uint64_t>{1, 1}));
  step([](FilterEngine& e) { ASSERT_TRUE(e.DeleteRule(0).ok()); },
       nic::Verdict::kDrop);
  step([](FilterEngine& e) { e.Flush(); }, nic::Verdict::kAccept);
  step([](FilterEngine& e) { e.SetDefaultAction(FilterAction::kDrop); },
       nic::Verdict::kDrop);
  step([&](FilterEngine& e) { ASSERT_TRUE(e.AppendRule(accept_udp).ok()); },
       nic::Verdict::kAccept);
}

TEST(FilterEngineTest, TcpFlagsVisibleToCompiledChain) {
  // Sanity: TCP packets flow through the same compiled matcher.
  FilterEngine engine;
  FilterRule rule;
  rule.proto = IpProto::kTcp;
  rule.dst_port = PortRange{22, 22};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto ssh = MakeTcpContext(50000, 22, net::TcpFlags::kSyn, Direction::kTx);
  auto web = MakeTcpContext(50000, 80, net::TcpFlags::kSyn, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *ssh), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *web), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, InstructionCountReportedForCostCharging) {
  FilterEngine engine;
  FilterRule rule;
  rule.dst_port = PortRange{53, 53};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto pkt = MakeUdpContext(1, 53, Direction::kTx);
  auto result = engine.Process(pkt->packet, pkt->ctx);
  EXPECT_GT(result.overlay_instructions, 0u);
}

}  // namespace
}  // namespace norman::dataplane
