// Frame construction helpers used by workloads, tests and the dataplane
// (ARP replies, NAT rewrites). All builders produce complete wire frames
// with valid IPv4 and transport checksums, except the Alloc*Packet
// zero-copy frames, whose checksums TX checksum offload writes.
#ifndef NORMAN_NET_PACKET_BUILDER_H_
#define NORMAN_NET_PACKET_BUILDER_H_

#include <cstdint>
#include <span>

#include "src/net/headers.h"
#include "src/net/packet_pool.h"
#include "src/net/types.h"

namespace norman::net {

struct FrameEndpoints {
  MacAddress src_mac;
  MacAddress dst_mac;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
};

// Rewinds the process-global IPv4 identification counter. Tests that build
// two identical traffic sequences in one process (e.g. a cache-off vs
// cache-on parity run) call this so the generated frames are byte-identical.
void ResetIpIdCounterForTest();

// Frame builders. The buffer comes from PacketPool::Default(), so
// steady-state construction performs no heap allocation. The UDP, TCP and
// ICMP builders return packets with checksums_valid() set.

// UDP datagram frame.
PacketPtr BuildUdpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, std::span<const uint8_t> payload,
                         uint8_t dscp = 0, uint8_t ttl = 64);
// TCP segment frame (no options).
PacketPtr BuildTcpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, uint32_t seq, uint32_t ack,
                         uint8_t flags, std::span<const uint8_t> payload,
                         uint16_t window = 65535);
// ICMP echo request/reply frame.
PacketPtr BuildIcmpEchoPacket(const FrameEndpoints& ep, IcmpType type,
                              uint16_t identifier, uint16_t sequence,
                              std::span<const uint8_t> payload);
// ARP request: who-has target_ip, tell sender. Sent to broadcast.
PacketPtr BuildArpRequestPacket(MacAddress sender_mac, Ipv4Address sender_ip,
                                Ipv4Address target_ip);
// ARP reply: sender_ip is-at sender_mac, unicast to the requester.
PacketPtr BuildArpReplyPacket(MacAddress sender_mac, Ipv4Address sender_ip,
                              MacAddress requester_mac,
                              Ipv4Address requester_ip);

// Zero-copy TX frames (Socket::AllocFrame): headers plus `payload_size`
// zero bytes for the caller to fill in place. Every checksum field is left
// zero and checksums_valid() is clear, so TX checksum offload
// (FixupFrameChecksums at Socket::SendFrame) is the frame's only checksum
// pass.
PacketPtr AllocUdpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, size_t payload_size);
PacketPtr AllocTcpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, uint32_t seq, uint32_t ack,
                         uint8_t flags, size_t payload_size);

// In-place rewrites used by the NAT stage: update addresses/ports and fix
// IPv4 + transport checksums incrementally. Frame must be valid IPv4+UDP/TCP.
// Returns false if the frame cannot be rewritten (not IPv4 UDP/TCP).
bool RewriteSource(std::span<uint8_t> frame, Ipv4Address new_src_ip,
                   uint16_t new_src_port);
bool RewriteDestination(std::span<uint8_t> frame, Ipv4Address new_dst_ip,
                        uint16_t new_dst_port);

}  // namespace norman::net

#endif  // NORMAN_NET_PACKET_BUILDER_H_
