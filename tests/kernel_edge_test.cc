// Kernel edge cases: waiter lifecycle across close, multiple concurrent
// waiters and their wake order, notification-queue overflow recovery, rate-limit cleanup on
// close, ephemeral-port wraparound, and exited-process handling.
#include <gtest/gtest.h>

#include <vector>

#include "src/norman/socket.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"
#include "src/net/packet_pool.h"

namespace norman::kernel {
namespace {

using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class KernelEdgeTest : public ::testing::Test {
 protected:
  KernelEdgeTest() {
    bed_.kernel().processes().AddUser(1, "u");
    pid_ = *bed_.kernel().processes().Spawn(1, "app");
  }
  workload::TestBed bed_;
  Pid pid_ = 0;
};

TEST_F(KernelEdgeTest, CloseWithParkedWaiterDoesNotCrashOrWake) {
  ConnectOptions opts;
  opts.notify_rx = true;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 100,
                                      opts);
  ASSERT_TRUE(sock.ok());
  bool woke = false;
  ASSERT_TRUE(
      bed_.kernel().BlockOnRx(sock->conn_id(), [&] { woke = true; }).ok());
  ASSERT_TRUE(bed_.kernel().Close(sock->conn_id()).ok());
  // Traffic for the dead connection goes to the host path, wakes nobody.
  bed_.InjectUdpFromPeer(100, sock->tuple().src_port, 10, 1000);
  bed_.sim().Run();
  EXPECT_FALSE(woke);
}

TEST_F(KernelEdgeTest, MultipleWaitersWakeOnDistinctArrivals) {
  ConnectOptions opts;
  opts.notify_rx = true;
  auto s1 = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 101,
                                    opts);
  auto s2 = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 102,
                                    opts);
  ASSERT_TRUE(s1.ok() && s2.ok());
  int woke1 = 0, woke2 = 0;
  ASSERT_TRUE(
      bed_.kernel().BlockOnRx(s1->conn_id(), [&] { ++woke1; }).ok());
  ASSERT_TRUE(
      bed_.kernel().BlockOnRx(s2->conn_id(), [&] { ++woke2; }).ok());
  // Only s2's traffic arrives.
  bed_.InjectUdpFromPeer(102, s2->tuple().src_port, 10, 1000);
  bed_.sim().Run();
  EXPECT_EQ(woke1, 0);
  EXPECT_EQ(woke2, 1);
  // Now s1's.
  bed_.InjectUdpFromPeer(101, s1->tuple().src_port, 10,
                         bed_.sim().Now() + 1000);
  bed_.sim().Run();
  EXPECT_EQ(woke1, 1);
  EXPECT_EQ(woke2, 1);
}

TEST_F(KernelEdgeTest, TwoWaitersOnOneConnectionBothWake) {
  ConnectOptions opts;
  opts.notify_rx = true;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 103,
                                      opts);
  ASSERT_TRUE(sock.ok());
  int wakes = 0;
  ASSERT_TRUE(
      bed_.kernel().BlockOnRx(sock->conn_id(), [&] { ++wakes; }).ok());
  ASSERT_TRUE(
      bed_.kernel().BlockOnRx(sock->conn_id(), [&] { ++wakes; }).ok());
  bed_.InjectUdpFromPeer(103, sock->tuple().src_port, 10, 1000);
  bed_.sim().Run();
  // One notification wakes all matching waiters (they re-check the ring).
  EXPECT_EQ(wakes, 2);
}

TEST_F(KernelEdgeTest, WaitersOnOneConnectionWakeInRegistrationOrder) {
  ConnectOptions opts;
  opts.notify_rx = true;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 106,
                                      opts);
  ASSERT_TRUE(sock.ok());
  std::vector<int> order;
  for (int w = 1; w <= 3; ++w) {
    ASSERT_TRUE(bed_.kernel()
                    .BlockOnRx(sock->conn_id(), [&order, w] {
                      order.push_back(w);
                    })
                    .ok());
  }
  bed_.InjectUdpFromPeer(106, sock->tuple().src_port, 10, 1000);
  bed_.sim().Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(KernelEdgeTest, ClosingAParkedWaiterStopsRearmingTheInterrupt) {
  ConnectOptions opts;
  opts.notify_rx = true;
  auto parked = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 107,
                                        opts);
  auto busy = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 108,
                                      opts);
  ASSERT_TRUE(parked.ok() && busy.ok());
  // The block arms the pid's notification interrupt; the close drops the
  // waiter, so the pid has nothing blocked any more.
  ASSERT_TRUE(bed_.kernel().BlockOnRx(parked->conn_id(), [] {}).ok());
  ASSERT_TRUE(bed_.kernel().Close(parked->conn_id()).ok());
  // RX notifications on the pid's other connection, one at a time, with
  // the app polling that ring directly.
  for (int i = 0; i < 5; ++i) {
    bed_.InjectUdpFromPeer(108, busy->tuple().src_port, 10,
                           bed_.sim().Now() + 1000);
    bed_.sim().Run();
    EXPECT_NE(busy->RecvFrame(), nullptr);
  }
  // Only the interrupt armed before the close fires; a blocked count that
  // leaked the dropped waiter would re-arm (and charge) on every pump.
  EXPECT_EQ(bed_.kernel().kernel_core().busy_ns(),
            bed_.nic().cost().context_switch_ns / 2);
}

TEST_F(KernelEdgeTest, NotificationOverflowIsLossyButRecoverable) {
  ConnectOptions opts;
  opts.notify_rx = true;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 104,
                                      opts);
  ASSERT_TRUE(sock.ok());
  // Notifications accumulate while the app polls the ring directly without
  // ever blocking (nobody consumes the queue): after >1024 deliveries the
  // notification queue overflows — lossy by design.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      bed_.InjectUdpFromPeer(104, sock->tuple().src_port, 10,
                             bed_.sim().Now() + 1000 + i * 100);
    }
    bed_.sim().Run();
    while (sock->RecvFrame() != nullptr) {
    }
  }
  auto* q = bed_.kernel().nic_control().GetNotificationQueue(pid_);
  ASSERT_NE(q, nullptr);
  EXPECT_GT(q->overflows(), 0u);
  // A subsequent blocking receive still works despite the lost
  // notifications (the stale ones are drained; fresh data wakes normally).
  bool woke = false;
  ASSERT_TRUE(sock->RecvBlocking([&](std::vector<uint8_t>) { woke = true; })
                  .ok());
  bed_.InjectUdpFromPeer(104, sock->tuple().src_port, 10,
                         bed_.sim().Now() + 1000);
  bed_.sim().Run();
  EXPECT_TRUE(woke);
}

TEST_F(KernelEdgeTest, RateLimitClearedOnClose) {
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 105,
                                      {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(bed_.kernel()
                  .SetConnRateLimit(kRootUid, sock->conn_id(), 1'000'000,
                                    100)
                  .ok());
  const auto conn = sock->conn_id();
  ASSERT_TRUE(bed_.kernel().Close(conn).ok());
  // Setting a limit on the dead connection now fails cleanly.
  EXPECT_EQ(bed_.kernel()
                .SetConnRateLimit(kRootUid, conn, 1'000'000, 100)
                .code(),
            StatusCode::kNotFound);
}

TEST_F(KernelEdgeTest, ExitedProcessCannotConnect) {
  // The process exits holding a connection it opened (with RX
  // notifications) and a listener with one connection still waiting to be
  // accepted.
  auto& k = bed_.kernel();
  ConnectOptions notify;
  notify.notify_rx = true;
  ASSERT_TRUE(k.Connect(pid_, kPeerIp, 80, notify).ok());
  ASSERT_NE(k.nic_control().GetNotificationQueue(pid_), nullptr);
  ASSERT_TRUE(k.Listen(pid_, 8080, net::IpProto::kUdp).ok());
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  ASSERT_EQ(k.ListConnections().size(), 2u);

  ASSERT_TRUE(k.Exit(pid_).ok());
  EXPECT_EQ(k.Connect(pid_, kPeerIp, 80, {}).status().code(),
            StatusCode::kNotFound);
  // Exit released every byte of NIC state the process held...
  EXPECT_TRUE(k.ListConnections().empty());
  EXPECT_EQ(k.nic_control().flow_table().size(), 0u);
  EXPECT_EQ(k.nic_control().sram().UsedBy("flow_table"), 0u);
  // ...its notification queue...
  EXPECT_EQ(k.nic_control().GetNotificationQueue(pid_), nullptr);
  // ...and its port: another process can listen there again.
  const Pid next = *k.processes().Spawn(1, "next");
  EXPECT_TRUE(k.Listen(next, 8080, net::IpProto::kUdp).ok());
}

TEST_F(KernelEdgeTest, ManyConnectionsGetUniquePorts) {
  std::set<uint16_t> ports;
  for (int i = 0; i < 500; ++i) {
    auto s = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp,
                                     static_cast<uint16_t>(1 + i), {});
    ASSERT_TRUE(s.ok());
    EXPECT_TRUE(ports.insert(s->tuple().src_port).second)
        << "duplicate ephemeral port at " << i;
  }
}

TEST_F(KernelEdgeTest, SnifferSurvivesConnectionChurn) {
  ASSERT_TRUE(bed_.kernel().StartCapture(kRootUid).ok());
  for (int round = 0; round < 30; ++round) {
    auto s = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp,
                                     static_cast<uint16_t>(600 + round), {});
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(s->Send("churn").ok());
    bed_.sim().Run();
    ASSERT_TRUE(s->Close().ok());
  }
  EXPECT_EQ(bed_.kernel().sniffer().captured(), 30u);
  EXPECT_EQ(bed_.egress_frames(), 30u);
}

TEST_F(KernelEdgeTest, InputChainMatchesDestinationOwner) {
  // RX packets carry the *destination* connection's owner metadata, so
  // INPUT rules can be scoped to the receiving user — e.g. drop all
  // inbound traffic for uid 2 without touching uid 1.
  bed_.kernel().processes().AddUser(2, "v");
  const auto pid2 = *bed_.kernel().processes().Spawn(2, "victim");
  dataplane::FilterRule rule;
  rule.direction = net::Direction::kRx;
  rule.owner_uid = 2;
  rule.action = dataplane::FilterAction::kDrop;
  ASSERT_TRUE(
      bed_.kernel().AppendFilterRule(kRootUid, Chain::kInput, rule).ok());

  auto s1 = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 200, {});
  auto s2 = norman::Socket::Connect(&bed_.kernel(), pid2, kPeerIp, 201, {});
  ASSERT_TRUE(s1.ok() && s2.ok());
  bed_.InjectUdpFromPeer(200, s1->tuple().src_port, 10, 1000);
  bed_.InjectUdpFromPeer(201, s2->tuple().src_port, 10, 2000);
  bed_.sim().Run();
  EXPECT_NE(s1->RecvFrame(), nullptr);  // uid 1: delivered
  EXPECT_EQ(s2->RecvFrame(), nullptr);  // uid 2: dropped on INPUT
  EXPECT_EQ(bed_.nic().stats().rx_dropped(), 1u);
}

TEST_F(KernelEdgeTest, TcpSocketSequenceNumbersAdvance) {
  ConnectOptions opts;
  opts.proto = net::IpProto::kTcp;
  auto sock = norman::Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 202,
                                      opts);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send(std::string(10, 'a')).ok());
  ASSERT_TRUE(sock->Send(std::string(10, 'b')).ok());
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 2u);
  const auto p1 = net::ParseFrame(bed_.egress()[0]->bytes());
  const auto p2 = net::ParseFrame(bed_.egress()[1]->bytes());
  ASSERT_TRUE(p1->is_tcp() && p2->is_tcp());
  EXPECT_EQ(p2->tcp->seq, p1->tcp->seq + 10);
}

TEST_F(KernelEdgeTest, PayloadViewOfNonIpFrameIsEmpty) {
  auto frame = net::MakePacket(std::vector<uint8_t>(20, 0));
  EXPECT_TRUE(norman::Socket::Payload(*frame).empty());
}

}  // namespace
}  // namespace norman::kernel
