// Kernel control-plane tests: process table, connection setup with owner
// stamping, privilege checks, filter/qdisc/sniffer syscalls, software
// fallback, and blocking I/O wakeups.
#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include "src/dataplane/rate_limiter.h"
#include "src/nic/fifo_scheduler.h"
#include "src/norman/socket.h"
#include "src/workload/testbed.h"
#include "src/net/packet_pool.h"

namespace norman::kernel {
namespace {

using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

// --- ProcessTable (standalone) ---

TEST(ProcessTableTest, SpawnAssignsIdentity) {
  ProcessTable table;
  table.AddUser(1001, "bob");
  auto pid = table.Spawn(1001, "postgres");
  ASSERT_TRUE(pid.ok());
  const Process* p = table.Lookup(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->uid, 1001u);
  EXPECT_EQ(p->comm, "postgres");
  EXPECT_GT(p->comm_id, 0u);
  EXPECT_EQ(p->cgroup, kRootCgroup);
}

TEST(ProcessTableTest, UnknownUidRejected) {
  ProcessTable table;
  EXPECT_FALSE(table.Spawn(555, "x").ok());
}

TEST(ProcessTableTest, CommInterningIsStable) {
  ProcessTable table;
  table.AddUser(1, "a");
  auto p1 = table.Spawn(1, "nginx");
  auto p2 = table.Spawn(1, "nginx");
  auto p3 = table.Spawn(1, "redis");
  EXPECT_EQ(table.Lookup(*p1)->comm_id, table.Lookup(*p2)->comm_id);
  EXPECT_NE(table.Lookup(*p1)->comm_id, table.Lookup(*p3)->comm_id);
  EXPECT_EQ(table.CommName(table.Lookup(*p3)->comm_id), "redis");
}

TEST(ProcessTableTest, CgroupsCreateAndMove) {
  ProcessTable table;
  table.AddUser(1, "a");
  auto cg = table.CreateCgroup("/games");
  ASSERT_TRUE(cg.ok());
  EXPECT_FALSE(table.CreateCgroup("/games").ok());  // duplicate
  auto pid = table.Spawn(1, "game");
  ASSERT_TRUE(table.MoveToCgroup(*pid, *cg).ok());
  EXPECT_EQ(table.Lookup(*pid)->cgroup, *cg);
  EXPECT_FALSE(table.MoveToCgroup(*pid, 999).ok());
  EXPECT_FALSE(table.MoveToCgroup(9999, *cg).ok());
}

// --- Kernel fixture ---

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    bed_.kernel().processes().AddUser(1001, "bob");
    pid_ = *bed_.kernel().processes().Spawn(1001, "app");
  }

  workload::TestBed bed_;
  Pid pid_ = 0;
};

TEST_F(KernelTest, ConnectStampsOwnerIntoFlowTable) {
  auto port = bed_.kernel().Connect(pid_, kPeerIp, 80, {});
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_TRUE(port->valid());
  EXPECT_FALSE(port->software_fallback());

  const nic::FlowEntry* entry =
      bed_.kernel().nic_control().LookupFlow(port->conn_id());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->owner.owner_pid, pid_);
  EXPECT_EQ(entry->owner.owner_uid, 1001u);
  EXPECT_GT(entry->owner.owner_comm, 0u);
  EXPECT_EQ(bed_.kernel().processes().CommName(entry->owner.owner_comm),
            "app");
  EXPECT_EQ(entry->tuple.dst_ip, kPeerIp);
  EXPECT_EQ(entry->tuple.dst_port, 80);
  EXPECT_GE(entry->tuple.src_port, 30000);  // ephemeral
}

TEST_F(KernelTest, ConnectUnknownPidFails) {
  EXPECT_FALSE(bed_.kernel().Connect(424242, kPeerIp, 80, {}).ok());
}

TEST_F(KernelTest, DistinctConnectionsGetDistinctPortsAndIds) {
  auto a = bed_.kernel().Connect(pid_, kPeerIp, 80, {});
  auto b = bed_.kernel().Connect(pid_, kPeerIp, 80, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->conn_id(), b->conn_id());
  EXPECT_NE(a->tuple().src_port, b->tuple().src_port);
}

TEST_F(KernelTest, CloseRemovesFlow) {
  auto port = bed_.kernel().Connect(pid_, kPeerIp, 80, {});
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(bed_.kernel().Close(port->conn_id()).ok());
  EXPECT_EQ(bed_.kernel().nic_control().LookupFlow(port->conn_id()), nullptr);
  EXPECT_FALSE(bed_.kernel().Close(port->conn_id()).ok());
}

TEST_F(KernelTest, ListConnectionsExposesProcessView) {
  auto port = bed_.kernel().Connect(pid_, kPeerIp, 5432, {});
  ASSERT_TRUE(port.ok());
  const auto conns = bed_.kernel().ListConnections();
  ASSERT_EQ(conns.size(), 1u);
  EXPECT_EQ(conns[0].pid, pid_);
  EXPECT_EQ(conns[0].uid, 1001u);
  EXPECT_EQ(conns[0].comm, "app");
  EXPECT_EQ(conns[0].tuple.dst_port, 5432);
}

TEST_F(KernelTest, ListConnectionsNewestFirstWithFallbackFlagged) {
  auto& k = bed_.kernel();
  ConnectOptions copts;
  copts.allow_software_fallback = true;
  auto first = k.Connect(pid_, kPeerIp, 1, copts);
  // Hold every free byte of NIC SRAM hostage: the second connect falls
  // back to the host software path.
  nic::SramAllocator& sram = k.nic_control().sram();
  const uint64_t hostage = sram.available();
  ASSERT_TRUE(sram.Allocate("hostage", hostage).ok());
  auto second = k.Connect(pid_, kPeerIp, 2, copts);
  sram.Free("hostage", hostage);
  auto third = k.Connect(pid_, kPeerIp, 3, copts);
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_FALSE(first->software_fallback());
  EXPECT_TRUE(second->software_fallback());
  EXPECT_FALSE(third->software_fallback());

  const auto conns = k.ListConnections();
  ASSERT_EQ(conns.size(), 3u);
  const net::ConnectionId want_ids[] = {3, 2, 1};
  const bool want_fallback[] = {false, true, false};
  for (size_t i = 0; i < conns.size(); ++i) {
    EXPECT_EQ(conns[i].conn_id, want_ids[i]) << "row " << i;
    EXPECT_EQ(conns[i].software_fallback, want_fallback[i]) << "row " << i;
    EXPECT_EQ(conns[i].comm, "app") << "row " << i;
  }
}

TEST_F(KernelTest, ClearedRateLimitStaysClearedAcrossQdiscSwap) {
  auto& k = bed_.kernel();
  auto cleared = k.Connect(pid_, kPeerIp, 80, {});
  auto kept = k.Connect(pid_, kPeerIp, 81, {});
  ASSERT_TRUE(cleared.ok() && kept.ok());
  ASSERT_TRUE(
      k.SetConnRateLimit(kRootUid, cleared->conn_id(), 50'000'000, 3000).ok());
  ASSERT_TRUE(
      k.SetConnRateLimit(kRootUid, kept->conn_id(), 50'000'000, 3000).ok());
  ASSERT_TRUE(k.SetConnRateLimit(kRootUid, cleared->conn_id(), 0, 0).ok());
  ASSERT_TRUE(
      k.SetQdisc(kRootUid, std::make_unique<nic::FifoScheduler>()).ok());
  const auto* pacer = dynamic_cast<const dataplane::PacedScheduler*>(
      k.nic_control().scheduler());
  ASSERT_NE(pacer, nullptr);
  EXPECT_FALSE(pacer->HasRate(cleared->conn_id()));
  EXPECT_TRUE(pacer->HasRate(kept->conn_id()));
}

TEST_F(KernelTest, FilterRulesRequireRoot) {
  dataplane::FilterRule rule;
  rule.action = dataplane::FilterAction::kDrop;
  EXPECT_EQ(bed_.kernel()
                .AppendFilterRule(/*caller=*/1001, Chain::kOutput, rule)
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(
      bed_.kernel().AppendFilterRule(kRootUid, Chain::kOutput, rule).ok());
  EXPECT_EQ(bed_.kernel().FlushFilterRules(1001, Chain::kOutput).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(bed_.kernel().SetQdisc(1001, nullptr).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(bed_.kernel().StartCapture(1001).code(),
            StatusCode::kPermissionDenied);
  NicConfig nat;
  nat.nat = true;
  nat.nat_private_prefix = Ipv4Address::FromOctets(10, 0, 0, 0).addr;
  nat.nat_prefix_len = 8;
  nat.nat_public_ip = Ipv4Address::FromOctets(1, 1, 1, 1).addr;
  EXPECT_EQ(bed_.kernel().Configure(1001, nat).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(KernelTest, OutputFilterDropsOnTxPath) {
  // Root forbids all traffic to port 7777; app sends there anyway.
  dataplane::FilterRule rule;
  rule.dst_port = dataplane::PortRange{7777, 7777};
  rule.action = dataplane::FilterAction::kDrop;
  ASSERT_TRUE(
      bed_.kernel().AppendFilterRule(kRootUid, Chain::kOutput, rule).ok());

  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("forbidden").ok());  // app sees success (async drop)
  auto sock2 = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 8888, {});
  ASSERT_TRUE(sock2.ok());
  ASSERT_TRUE(sock2->Send("allowed").ok());
  bed_.sim().Run();

  EXPECT_EQ(bed_.egress_frames(), 1u);  // only the allowed one
  EXPECT_EQ(bed_.nic().stats().tx_dropped(), 1u);
}

TEST_F(KernelTest, SoftwareFallbackWhenNicSramExhausted) {
  // Tiny NIC SRAM: two flows fit, and then a third flow's entry but not its
  // ring state.
  workload::TestBedOptions opts;
  opts.nic.sram_bytes =
      2 * (nic::kFlowEntryBytes + nic::kRingStateBytes) + nic::kFlowEntryBytes;
  workload::TestBed bed(opts);
  bed.kernel().processes().AddUser(1, "u");
  const Pid pid = *bed.kernel().processes().Spawn(1, "srv");

  ConnectOptions copts;
  copts.allow_software_fallback = true;
  auto a = bed.kernel().Connect(pid, kPeerIp, 1, copts);
  auto b = bed.kernel().Connect(pid, kPeerIp, 2, copts);
  auto c = bed.kernel().Connect(pid, kPeerIp, 3, copts);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE(a->software_fallback());
  EXPECT_FALSE(b->software_fallback());
  EXPECT_TRUE(c->software_fallback());
  // The refused ring-state charge rolled back the third entry's.
  EXPECT_EQ(bed.kernel().nic_control().flow_table().size(), 2u);
  EXPECT_EQ(bed.kernel().nic_control().sram().UsedBy("flow_table"),
            2 * nic::kFlowEntryBytes);

  // Without the option, the connect fails outright.
  auto d = bed.kernel().Connect(pid, kPeerIp, 4, {});
  EXPECT_EQ(d.status().code(), StatusCode::kResourceExhausted);

  // Fallback connection still transmits (through the host path + NIC).
  auto frame = net::BuildUdpPacket(
      net::FrameEndpoints{bed.kernel().options().host_mac,
                          net::MacAddress::ForHost(2),
                          bed.kernel().options().host_ip, kPeerIp},
      c->tuple().src_port, 3, std::vector<uint8_t>(10, 1));
  frame->meta().connection = c->conn_id();
  ASSERT_TRUE(bed.kernel().SoftwareTransmit(c->conn_id(), std::move(frame)).ok());
  bed.sim().Run();
  EXPECT_EQ(bed.egress_frames(), 1u);
  EXPECT_TRUE(bed.egress()[0]->meta().software_fallback);

  // And it shows up in the connection list, marked as fallback.
  bool found = false;
  for (const auto& info : bed.kernel().ListConnections()) {
    if (info.conn_id == c->conn_id()) {
      EXPECT_TRUE(info.software_fallback);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(KernelTest, BlockOnRxWakesWhenDataArrives) {
  ConnectOptions copts;
  copts.notify_rx = true;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 4000, copts);
  ASSERT_TRUE(sock.ok());

  std::vector<uint8_t> received;
  Nanos woke_at = -1;
  ASSERT_TRUE(sock->RecvBlocking([&](std::vector<uint8_t> data) {
                    received = std::move(data);
                    woke_at = bed_.sim().Now();
                  })
                  .ok());

  // Nothing yet: waiter parked.
  bed_.sim().Run();
  EXPECT_EQ(woke_at, -1);

  // Peer sends to our local port at t=1ms.
  bed_.InjectUdpFromPeer(4000, sock->tuple().src_port, 64,
                         1 * kMillisecond);
  bed_.sim().Run();
  EXPECT_GT(woke_at, 1 * kMillisecond);
  EXPECT_EQ(received.size(), 64u);
  // The wake charged a context switch to the kernel core.
  EXPECT_GE(bed_.kernel().kernel_core().busy_ns(),
            bed_.nic().cost().context_switch_ns);
}

TEST_F(KernelTest, RecvBlockingDeliversImmediatelyWhenDataPending) {
  ConnectOptions copts;
  copts.notify_rx = true;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 4001, copts);
  ASSERT_TRUE(sock.ok());
  bed_.InjectUdpFromPeer(4001, sock->tuple().src_port, 32, 100);
  bed_.sim().Run();

  bool delivered = false;
  ASSERT_TRUE(sock->RecvBlocking([&](std::vector<uint8_t> data) {
                    delivered = true;
                    EXPECT_EQ(data.size(), 32u);
                  })
                  .ok());
  EXPECT_TRUE(delivered);  // synchronous: data was already in the ring
}

TEST_F(KernelTest, BlockOnRxRequiresNotifyOption) {
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 4002, {});
  ASSERT_TRUE(sock.ok());
  EXPECT_EQ(bed_.kernel().BlockOnRx(sock->conn_id(), [] {}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bed_.kernel().BlockOnRx(9999, [] {}).code(),
            StatusCode::kNotFound);
}

TEST_F(KernelTest, NatIntegratesIntoTxPipeline) {
  NicConfig nat;
  nat.nat = true;
  nat.nat_private_prefix = Ipv4Address::FromOctets(10, 0, 0, 0).addr;
  nat.nat_prefix_len = 8;
  nat.nat_public_ip = Ipv4Address::FromOctets(203, 0, 113, 9).addr;
  ASSERT_TRUE(bed_.kernel().Configure(kRootUid, nat).ok());
  // Re-applying the same config keeps the live engine (and its
  // translations) rather than building a second one.
  const dataplane::NatEngine* engine = bed_.kernel().nat();
  ASSERT_TRUE(bed_.kernel().Configure(kRootUid, nat).ok());
  EXPECT_EQ(bed_.kernel().nat(), engine);
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 80, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("hello").ok());
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 1u);
  auto parsed = net::ParseFrame(bed_.egress()[0]->bytes());
  EXPECT_EQ(parsed->ipv4->src, Ipv4Address::FromOctets(203, 0, 113, 9));
  EXPECT_EQ(bed_.kernel().nat()->tx_translated(), 1u);
}

TEST_F(KernelTest, ConfigureShardsOnce) {
  // Every NIC starts with its one lane; Configure grows it once.
  EXPECT_EQ(bed_.nic().shard_queues(), 1u);
  NicConfig sharded;
  sharded.shard_queues = 4;
  ASSERT_TRUE(bed_.kernel().Configure(kRootUid, sharded).ok());
  EXPECT_EQ(bed_.nic().shard_queues(), 4u);
  // Re-applying the live lane count is a no-op, not a re-carve.
  ASSERT_TRUE(bed_.kernel().Configure(kRootUid, sharded).ok());
  EXPECT_EQ(bed_.nic().shard_queues(), 4u);
  // Shrinking back to one lane would orphan in-flight lane state.
  NicConfig one_lane;
  EXPECT_EQ(bed_.kernel().Configure(kRootUid, one_lane).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bed_.nic().shard_queues(), 4u);
  EXPECT_EQ(bed_.kernel().active_config().shard_queues, 4u);
}

TEST_F(KernelTest, SnifferSeesDroppedTraffic) {
  // tcpdump must show packets even when the firewall drops them (the tap
  // runs before the filter in the TX chain).
  dataplane::FilterRule rule;
  rule.dst_port = dataplane::PortRange{7777, 7777};
  rule.action = dataplane::FilterAction::kDrop;
  ASSERT_TRUE(
      bed_.kernel().AppendFilterRule(kRootUid, Chain::kOutput, rule).ok());
  ASSERT_TRUE(bed_.kernel().StartCapture(kRootUid).ok());

  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("blocked").ok());
  bed_.sim().Run();

  EXPECT_EQ(bed_.egress_frames(), 0u);
  ASSERT_EQ(bed_.kernel().sniffer().captured(), 1u);
  EXPECT_EQ(bed_.kernel().sniffer().records()[0].owner.owner_pid, pid_);
  EXPECT_EQ(bed_.kernel().sniffer().records()[0].dst_port, 7777);
}

TEST_F(KernelTest, ArpRequestsAnsweredFromNic) {
  // A peer ARPs for the host IP; the NIC answers without host involvement.
  auto req = net::BuildArpRequestPacket(
      net::MacAddress::ForHost(2), kPeerIp, bed_.kernel().options().host_ip);
  bed_.InjectFromNetwork(std::move(req), 100);
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 1u);
  auto parsed = net::ParseFrame(bed_.egress()[0]->bytes());
  ASSERT_TRUE(parsed->is_arp());
  EXPECT_EQ(parsed->arp->op, net::ArpOp::kReply);
  EXPECT_EQ(parsed->arp->sender_ip, bed_.kernel().options().host_ip);
}

}  // namespace
}  // namespace norman::kernel
