// End-to-end Socket tests over the TestBed echo network: POSIX-ish send/
// recv, zero-copy frames, blocking send, and stats.
#include "src/norman/socket.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/net/frame_checksum.h"
#include "src/net/parsed_packet.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using kernel::ConnectOptions;
using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class SocketTest : public ::testing::Test {
 protected:
  SocketTest() : bed_(EchoOptions()) {
    bed_.kernel().processes().AddUser(1001, "bob");
    pid_ = *bed_.kernel().processes().Spawn(1001, "client");
  }

  static workload::TestBedOptions EchoOptions() {
    workload::TestBedOptions o;
    o.echo = true;
    return o;
  }

  workload::TestBed bed_;
  kernel::Pid pid_ = 0;
};

TEST_F(SocketTest, UdpEchoRoundTrip) {
  ConnectOptions opts;
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9000, opts);
  ASSERT_TRUE(sock.ok()) << sock.status();

  const std::string msg = "ping over norman";
  ASSERT_TRUE(sock->Send(msg).ok());
  bed_.sim().Run();

  auto data = sock->Recv();
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(std::string(data->begin(), data->end()), msg);
  EXPECT_EQ(sock->stats().tx_packets, 1u);
  EXPECT_EQ(sock->stats().rx_packets, 1u);
}

TEST_F(SocketTest, RecvOnEmptyIsUnavailable) {
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9001, {});
  ASSERT_TRUE(sock.ok());
  EXPECT_EQ(sock->Recv().status().code(), StatusCode::kUnavailable);
}

TEST_F(SocketTest, TcpFramingRoundTrip) {
  ConnectOptions opts;
  opts.proto = net::IpProto::kTcp;
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9100, opts);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("segment").ok());
  bed_.sim().Run();
  auto data = sock->Recv();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "segment");
}

TEST_F(SocketTest, ZeroCopyFrameInterface) {
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9200, {});
  ASSERT_TRUE(sock.ok());

  net::PacketPtr frame = sock->AllocFrame(64);
  auto payload = Socket::Payload(*frame);
  ASSERT_EQ(payload.size(), 64u);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  ASSERT_TRUE(sock->SendFrame(std::move(frame)).ok());
  bed_.sim().Run();

  net::PacketPtr rx = sock->RecvFrame();
  ASSERT_NE(rx, nullptr);
  auto rx_payload = Socket::Payload(*rx);
  ASSERT_EQ(rx_payload.size(), 64u);
  for (size_t i = 0; i < rx_payload.size(); ++i) {
    EXPECT_EQ(rx_payload[i], static_cast<uint8_t>(i));
  }
}

TEST_F(SocketTest, ManyPacketsAllEchoed) {
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9300, {});
  ASSERT_TRUE(sock.ok());
  workload::CbrSender sender(&bed_.sim(), &*sock, 100, 10 * kMicrosecond);
  sender.Start(0, 2 * kMillisecond);
  bed_.sim().Run();
  EXPECT_EQ(sender.sent(), 200u);
  size_t received = 0;
  while (sock->RecvFrame() != nullptr) {
    ++received;
  }
  EXPECT_EQ(received, 200u);
}

TEST_F(SocketTest, SendBlockingCompletesAfterDrain) {
  ConnectOptions opts;
  opts.notify_tx_drain = true;
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9400, opts);
  ASSERT_TRUE(sock.ok());

  // Fill the TX ring beyond capacity without letting the sim drain it.
  int immediate_fails = 0;
  for (int i = 0; i < 300; ++i) {
    if (!sock->Send(std::string(100, 'x')).ok()) {
      ++immediate_fails;
    }
  }
  EXPECT_GT(immediate_fails, 0);  // ring (256) filled

  Status completion = InternalError("never ran");
  ASSERT_TRUE(sock->SendBlocking(std::vector<uint8_t>(100, 'y'),
                                 [&](Status s) { completion = s; })
                  .ok());
  EXPECT_FALSE(completion.ok());  // still parked
  bed_.sim().Run();               // NIC drains, notification wakes sender
  EXPECT_TRUE(completion.ok()) << completion;
}

TEST_F(SocketTest, CloseInvalidatesSocket) {
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9500, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Close().ok());
  EXPECT_FALSE(sock->valid());
  EXPECT_EQ(sock->Send("x").code(), StatusCode::kFailedPrecondition);
}

TEST_F(SocketTest, StatsTrackTraffic) {
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9600, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("aaaa").ok());
  ASSERT_TRUE(sock->Send("bbbb").ok());
  bed_.sim().Run();
  (void)sock->Recv();
  EXPECT_EQ(sock->stats().tx_packets, 2u);
  EXPECT_GT(sock->stats().tx_bytes, 8u);  // includes headers
  EXPECT_EQ(sock->stats().rx_packets, 1u);
}

TEST_F(SocketTest, FlowTableCountersUpdate) {
  auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 9700, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send("counted").ok());
  bed_.sim().Run();
  const auto conns = bed_.kernel().ListConnections();
  ASSERT_EQ(conns.size(), 1u);
  EXPECT_EQ(conns[0].tx_packets, 1u);
  EXPECT_EQ(conns[0].rx_packets, 1u);  // echo came back
  EXPECT_GT(conns[0].tx_bytes, 0u);
}

// TX checksum offload skips frames whose checksums_valid() bit is set.
// Whatever path a frame takes out of the library, the wire must carry
// valid checksums that a fresh fix-up would not change by a single byte.
TEST_F(SocketTest, EveryTxPathPutsValidChecksumsOnTheWire) {
  const std::vector<uint8_t> payload(100, 0x5a);
  const kernel::Kernel::Options& kopts = bed_.kernel().options();
  uint16_t port = 9800;
  for (const net::IpProto proto : {net::IpProto::kUdp, net::IpProto::kTcp}) {
    ConnectOptions opts;
    opts.proto = proto;
    auto sock = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, port++, opts);
    ASSERT_TRUE(sock.ok()) << sock.status();

    // Send: builder output, checksummed once by the builder.
    ASSERT_TRUE(sock->Send(payload).ok());

    // Zero-copy: AllocFrame leaves every checksum to SendFrame's offload.
    net::PacketPtr frame = sock->AllocFrame(payload.size());
    EXPECT_FALSE(frame->checksums_valid());
    std::ranges::copy(payload, Socket::Payload(*frame).begin());
    ASSERT_TRUE(sock->SendFrame(std::move(frame)).ok());

    // Builder output rewritten through mutable_bytes(): the write must
    // clear the bit, or the builder's stale checksum goes out.
    const net::FiveTuple& t = sock->tuple();
    const net::FrameEndpoints ep{kopts.host_mac, kopts.gateway_mac, t.src_ip,
                                 t.dst_ip};
    net::PacketPtr built =
        proto == net::IpProto::kTcp
            ? net::BuildTcpPacket(ep, t.src_port, t.dst_port, 1, 0,
                                  net::TcpFlags::kAck, payload)
            : net::BuildUdpPacket(ep, t.src_port, t.dst_port, payload);
    built->mutable_bytes().back() ^= 0xff;
    ASSERT_TRUE(sock->SendFrame(std::move(built)).ok());
  }
  bed_.sim().Run();

  ASSERT_EQ(bed_.egress().size(), 6u);
  for (size_t i = 0; i < bed_.egress().size(); ++i) {
    const auto wire = bed_.egress()[i]->bytes();
    const auto parsed = net::ParseFrame(wire);
    ASSERT_TRUE(parsed.has_value()) << "frame " << i;
    EXPECT_TRUE(net::FrameChecksumsValid(wire, *parsed)) << "frame " << i;
    std::vector<uint8_t> copy(wire.begin(), wire.end());
    ASSERT_TRUE(net::FixupFrameChecksums(copy)) << "frame " << i;
    EXPECT_TRUE(std::ranges::equal(copy, wire)) << "frame " << i;
  }
}

}  // namespace
}  // namespace norman
