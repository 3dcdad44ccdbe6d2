// Server-side socket tests: listen/accept through the RAII norman::Listener,
// auto-installed inbound connections with listener-stamped identity, and
// full client/server round trips between two simulated hosts.
#include <gtest/gtest.h>

#include "src/norman/listener.h"
#include "src/norman/socket.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using kernel::ConnectOptions;
using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class ListenAcceptTest : public ::testing::Test {
 protected:
  ListenAcceptTest() {
    bed_.kernel().processes().AddUser(1000, "svc");
    server_pid_ = *bed_.kernel().processes().Spawn(1000, "server");
  }

  Listener Listen(uint16_t port) {
    auto listener = Listener::Create(&bed_.kernel(), server_pid_, port);
    EXPECT_TRUE(listener.ok()) << listener.status();
    return std::move(listener).value();
  }

  workload::TestBed bed_;
  kernel::Pid server_pid_ = 0;
};

TEST_F(ListenAcceptTest, InboundPacketCreatesAcceptableConnection) {
  Listener listener = Listen(8080);
  // Nothing pending yet: would-block, not a missing resource.
  EXPECT_EQ(listener.Accept().status().code(), StatusCode::kUnavailable);

  // A peer sends the first datagram of a new flow to :8080.
  bed_.InjectUdpFromPeer(/*src_port=*/5555, /*dst_port=*/8080, 64, 100);
  bed_.sim().Run();

  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_EQ(conn->tuple().src_port, 8080);
  EXPECT_EQ(conn->tuple().dst_port, 5555);
  EXPECT_EQ(conn->tuple().dst_ip, kPeerIp);

  // The trigger packet is waiting in the RX ring.
  auto data = conn->Recv();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 64u);
}

TEST_F(ListenAcceptTest, ConnectionStampedWithListenerIdentity) {
  Listener listener = Listen(8080);
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  const auto* entry =
      bed_.kernel().nic_control().LookupFlow(conn->conn_id());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->owner.owner_pid, server_pid_);
  EXPECT_EQ(entry->owner.owner_uid, 1000u);
  EXPECT_EQ(bed_.kernel().processes().CommName(entry->owner.owner_comm),
            "server");
}

TEST_F(ListenAcceptTest, SubsequentPacketsMatchInHardware) {
  Listener listener = Listen(8080);
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  (void)conn->Recv();

  const uint64_t unmatched_before = bed_.nic().stats().rx_unmatched();
  // Second packet of the same flow: NIC flow table match, no host involvement.
  bed_.InjectUdpFromPeer(5555, 8080, 20, bed_.sim().Now() + 100);
  bed_.sim().Run();
  EXPECT_EQ(bed_.nic().stats().rx_unmatched(), unmatched_before);
  auto data = conn->Recv();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 20u);
}

TEST_F(ListenAcceptTest, DistinctPeersDistinctConnections) {
  Listener listener = Listen(8080);
  bed_.InjectUdpFromPeer(1111, 8080, 10, 100);
  bed_.InjectUdpFromPeer(2222, 8080, 10, 200);
  bed_.sim().Run();
  auto c1 = listener.Accept();
  auto c2 = listener.Accept();
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1->conn_id(), c2->conn_id());
  EXPECT_EQ(c1->tuple().dst_port, 1111);
  EXPECT_EQ(c2->tuple().dst_port, 2222);
  EXPECT_EQ(listener.Accept().status().code(), StatusCode::kUnavailable);
}

TEST_F(ListenAcceptTest, ServerCanReplyOnAcceptedConnection) {
  Listener listener = Listen(8080);
  bed_.InjectUdpFromPeer(5555, 8080, 16, 100);
  bed_.sim().Run();
  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Send("response").ok());
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 1u);
  auto parsed = net::ParseFrame(bed_.egress()[0]->bytes());
  EXPECT_EQ(parsed->flow()->src_port, 8080);
  EXPECT_EQ(parsed->flow()->dst_port, 5555);
}

TEST_F(ListenAcceptTest, OnlyListenerMayAccept) {
  Listener listener = Listen(8080);
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  // A different process cannot accept on this port even with its own
  // Listener-shaped handle: the kernel checks the registered pid.
  const auto other = *bed_.kernel().processes().Spawn(1000, "other");
  EXPECT_EQ(
      bed_.kernel().Accept(other, 8080, net::IpProto::kUdp).status().code(),
      StatusCode::kPermissionDenied);
}

TEST_F(ListenAcceptTest, PortCollisionRejected) {
  Listener listener = Listen(8080);
  EXPECT_EQ(Listener::Create(&bed_.kernel(), server_pid_, 8080)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // Different proto on the same port is fine.
  auto tcp = Listener::Create(&bed_.kernel(), server_pid_, 8080,
                              net::IpProto::kTcp);
  ASSERT_TRUE(tcp.ok());
  // Each listener accepts its own protocol's connections: the UDP peer's
  // connection comes out of the UDP listener, the TCP one has none.
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_EQ(conn->tuple().proto, net::IpProto::kUdp);
  EXPECT_EQ(tcp->Accept().status().code(), StatusCode::kUnavailable);
  // Destroying the UDP listener first unbinds UDP only.
  listener = Listener();
  EXPECT_EQ(bed_.kernel()
                .Accept(server_pid_, 8080, net::IpProto::kUdp)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Listener::Create(&bed_.kernel(), server_pid_, 8080,
                             net::IpProto::kTcp)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(tcp->Accept().status().code(), StatusCode::kUnavailable);
}

TEST_F(ListenAcceptTest, ListenerDestructionDropsNewPeers) {
  {
    Listener listener = Listen(8080);
    // Registration lives exactly as long as the Listener.
  }
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  // Nobody is listening: no connection was installed.
  EXPECT_EQ(bed_.kernel()
                .Accept(server_pid_, 8080, net::IpProto::kUdp)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(bed_.kernel().ListConnections().empty());
}

TEST_F(ListenAcceptTest, ListenerDestructionClosesPendingConnections) {
  net::ConnectionId pending = net::kUnknownConnection;
  {
    Listener listener = Listen(8080);
    bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
    bed_.sim().Run();
    const auto conns = bed_.kernel().ListConnections();
    ASSERT_EQ(conns.size(), 1u);
    pending = conns[0].conn_id;
  }  // never accepted
  // The unaccepted connection went with its listener, and so did every
  // byte of NIC state it held.
  EXPECT_TRUE(bed_.kernel().ListConnections().empty());
  auto& nic = bed_.kernel().nic_control();
  EXPECT_EQ(nic.flow_table().size(), 0u);
  EXPECT_EQ(nic.GetRings(pending), nullptr);
  EXPECT_EQ(nic.sram().UsedBy("flow_table"), 0u);
  EXPECT_EQ(nic.sram().UsedBy("ring_state"), 0u);
  EXPECT_EQ(
      bed_.sim().metrics().FindGauge("queue.kernel.accept.depth")->value(), 0);
}

TEST_F(ListenAcceptTest, FallbackOptionStillDropsTriggerUnderSramPressure) {
  ConnectOptions accept_opts;
  accept_opts.allow_software_fallback = true;
  auto listener = Listener::Create(&bed_.kernel(), server_pid_, 8080,
                                   net::IpProto::kUdp, accept_opts);
  ASSERT_TRUE(listener.ok());
  // NIC SRAM is full when the peer speaks: there is no server-side
  // software fallback, so the trigger datagram is dropped.
  nic::SramAllocator& sram = bed_.kernel().nic_control().sram();
  ASSERT_TRUE(sram.Allocate("hostage", sram.available()).ok());
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  EXPECT_EQ(
      bed_.sim().metrics().FindCounter("kernel.drop.sram_exhausted")->value(),
      1u);
  EXPECT_TRUE(bed_.kernel().ListConnections().empty());
  EXPECT_EQ(listener->Accept().status().code(), StatusCode::kUnavailable);
}

TEST_F(ListenAcceptTest, StopUnbindsEarly) {
  Listener listener = Listen(8080);
  listener.Stop();
  EXPECT_FALSE(listener.valid());
  // A stopped handle is unusable...
  EXPECT_EQ(listener.Accept().status().code(),
            StatusCode::kFailedPrecondition);
  // ...and the port is free for rebinding.
  auto again = Listener::Create(&bed_.kernel(), server_pid_, 8080);
  EXPECT_TRUE(again.ok());
}

TEST_F(ListenAcceptTest, MoveTransfersOwnership) {
  Listener listener = Listen(8080);
  Listener moved = std::move(listener);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.port(), 8080);
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  EXPECT_TRUE(moved.Accept().ok());
}

TEST_F(ListenAcceptTest, TrafficToUnboundPortIsDropped) {
  bed_.InjectUdpFromPeer(5555, 9999, 10, 100);
  bed_.sim().Run();
  EXPECT_EQ(bed_.nic().stats().rx_unmatched(), 1u);
  // No connection appeared.
  EXPECT_TRUE(bed_.kernel().ListConnections().empty());
}

TEST_F(ListenAcceptTest, ListenUnknownPidFails) {
  EXPECT_EQ(Listener::Create(&bed_.kernel(), 424242, 8080).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ListenAcceptTest, AcceptedConnectionSupportsNotifications) {
  kernel::ConnectOptions accept_opts;
  accept_opts.notify_rx = true;
  auto listener = Listener::Create(&bed_.kernel(), server_pid_, 8080,
                                   net::IpProto::kUdp, accept_opts);
  ASSERT_TRUE(listener.ok());
  bed_.InjectUdpFromPeer(5555, 8080, 10, 100);
  bed_.sim().Run();
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  (void)conn->Recv();  // drain the trigger packet

  bool woke = false;
  ASSERT_TRUE(conn->RecvBlocking([&](std::vector<uint8_t> data) {
                    woke = true;
                    EXPECT_EQ(data.size(), 32u);
                  })
                  .ok());
  bed_.InjectUdpFromPeer(5555, 8080, 32, bed_.sim().Now() + 1000);
  bed_.sim().Run();
  EXPECT_TRUE(woke);
}

}  // namespace
}  // namespace norman
