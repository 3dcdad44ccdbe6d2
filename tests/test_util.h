// Shared helpers for Norman tests: canned frames, contexts, an echo
// network that loops TX frames back as RX, and the NIC's packet
// conservation check.
#ifndef NORMAN_TESTS_TEST_UTIL_H_
#define NORMAN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"
#include "src/nic/smart_nic.h"
#include "src/overlay/packet_context.h"

namespace norman::test {

inline constexpr auto kLocalIp = net::Ipv4Address::FromOctets(10, 0, 0, 1);
inline constexpr auto kRemoteIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

inline net::FrameEndpoints LocalToRemote() {
  return {net::MacAddress::ForHost(1), net::MacAddress::ForHost(2), kLocalIp,
          kRemoteIp};
}

inline net::FrameEndpoints RemoteToLocal() {
  return {net::MacAddress::ForHost(2), net::MacAddress::ForHost(1), kRemoteIp,
          kLocalIp};
}

// A pooled frame's bytes as a plain buffer.
inline std::vector<uint8_t> Bytes(const net::PacketPtr& packet) {
  return {packet->bytes().begin(), packet->bytes().end()};
}

// A frame + parse + context bundle whose lifetimes are tied together.
struct ContextBundle {
  std::vector<uint8_t> frame;
  net::Packet packet;
  net::ParsedPacket parsed;
  overlay::PacketContext ctx;
};

inline std::unique_ptr<ContextBundle> MakeUdpContext(
    uint16_t src_port, uint16_t dst_port, net::Direction dir,
    overlay::ConnMetadata owner = {}, size_t payload = 32,
    uint8_t dscp = 0) {
  auto b = std::make_unique<ContextBundle>();
  const auto ep =
      dir == net::Direction::kTx ? LocalToRemote() : RemoteToLocal();
  b->frame = Bytes(net::BuildUdpPacket(
      ep, src_port, dst_port, std::vector<uint8_t>(payload, 0xcc), dscp));
  b->packet = net::Packet(b->frame);
  b->parsed = *net::ParseFrame(b->packet.bytes());
  b->ctx.frame = b->packet.bytes();
  b->ctx.parsed = &b->parsed;
  b->ctx.conn = owner;
  b->ctx.direction = dir;
  b->packet.meta().direction = dir;
  return b;
}

inline std::unique_ptr<ContextBundle> MakeTcpContext(
    uint16_t src_port, uint16_t dst_port, uint8_t flags, net::Direction dir,
    overlay::ConnMetadata owner = {}, size_t payload = 0) {
  auto b = std::make_unique<ContextBundle>();
  const auto ep =
      dir == net::Direction::kTx ? LocalToRemote() : RemoteToLocal();
  b->frame = Bytes(net::BuildTcpPacket(ep, src_port, dst_port, 1, 1, flags,
                                       std::vector<uint8_t>(payload, 0xdd)));
  b->packet = net::Packet(b->frame);
  b->parsed = *net::ParseFrame(b->packet.bytes());
  b->ctx.frame = b->packet.bytes();
  b->ctx.parsed = &b->parsed;
  b->ctx.conn = owner;
  b->ctx.direction = dir;
  b->packet.meta().direction = dir;
  return b;
}

// An ARP request from the local host (TX) or the remote one (RX).
inline std::unique_ptr<ContextBundle> MakeArpContext(
    net::Direction dir, overlay::ConnMetadata owner = {}) {
  auto b = std::make_unique<ContextBundle>();
  b->frame = Bytes(
      dir == net::Direction::kTx
          ? net::BuildArpRequestPacket(net::MacAddress::ForHost(1), kLocalIp,
                                       kRemoteIp)
          : net::BuildArpRequestPacket(net::MacAddress::ForHost(2),
                                       kRemoteIp, kLocalIp));
  b->packet = net::Packet(b->frame);
  b->parsed = *net::ParseFrame(b->packet.bytes());
  b->ctx.frame = b->packet.bytes();
  b->ctx.parsed = &b->parsed;
  b->ctx.conn = owner;
  b->ctx.direction = dir;
  b->packet.meta().direction = dir;
  return b;
}

// A frame the parser frontend could not parse: ctx.parsed is null.
inline std::unique_ptr<ContextBundle> MakeUnparsedContext(
    std::vector<uint8_t> bytes, net::Direction dir,
    overlay::ConnMetadata owner = {}) {
  auto b = std::make_unique<ContextBundle>();
  b->frame = std::move(bytes);
  b->packet = net::Packet(b->frame);
  b->ctx.frame = b->packet.bytes();
  b->ctx.parsed = nullptr;
  b->ctx.conn = owner;
  b->ctx.direction = dir;
  b->packet.meta().direction = dir;
  return b;
}

// Packet conservation at the NIC, checked once the world has drained.
// TX: every frame the NIC fetched is queued for the wire, dropped by the
// pipeline, dropped by the scheduler, or diverted. RX: every frame off the
// wire lands in a ring or in exactly one other outcome.
inline void ExpectNicConservation(const nic::NicStats& s) {
  EXPECT_EQ(s.tx_seen(), s.tx_accepted() + s.tx_dropped() +
                             s.tx_sched_dropped() + s.tx_fallback())
      << "TX conservation";
  EXPECT_EQ(s.rx_seen(), s.rx_accepted() + s.rx_dropped() + s.rx_fallback() +
                             s.rx_unmatched() + s.rx_ring_overflow())
      << "RX conservation";
}

}  // namespace norman::test

#endif  // NORMAN_TESTS_TEST_UTIL_H_
