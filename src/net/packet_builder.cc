#include "src/net/packet_builder.h"

#include <cstring>

#include "src/net/byte_io.h"
#include "src/net/checksum.h"
#include "src/net/packet_pool.h"
#include "src/net/parsed_packet.h"

namespace norman::net {
namespace {

// Sequential IPv4 identification for generated frames; wraps naturally.
uint16_t& IpIdCounter() {
  static uint16_t id = 0;
  return id;
}

uint16_t NextIpId() { return ++IpIdCounter(); }

// Writers fill a caller-provided frame of exactly the right size: a pooled
// packet, whose recycled buffer capacity means a steady-state hot path
// never allocates. The *Headers writers leave the transport checksum field
// zero, and the IPv4 one too unless `ip_checksum`; the *Frame writers copy
// the payload and fill both.

void WriteIpv4Header(std::span<uint8_t> frame, const FrameEndpoints& ep,
                     IpProto proto, size_t l4_size, uint8_t dscp, uint8_t ttl,
                     bool ip_checksum) {
  EthernetHeader eth;
  eth.dst = ep.dst_mac;
  eth.src = ep.src_mac;
  eth.ether_type = static_cast<uint16_t>(EtherType::kIpv4);
  eth.Serialize(frame);

  Ipv4Header ip;
  ip.dscp = dscp;
  ip.total_length = static_cast<uint16_t>(kIpv4MinHeaderSize + l4_size);
  ip.identification = NextIpId();
  ip.ttl = ttl;
  ip.protocol = proto;
  ip.src = ep.src_ip;
  ip.dst = ep.dst_ip;
  ip.Serialize(frame.subspan(kEthernetHeaderSize), ip_checksum);
}

size_t UdpFrameSize(size_t payload_size) {
  return kEthernetHeaderSize + kIpv4MinHeaderSize + kUdpHeaderSize +
         payload_size;
}

// Returns the UDP segment (header + payload space).
std::span<uint8_t> WriteUdpHeaders(std::span<uint8_t> frame,
                                   const FrameEndpoints& ep,
                                   uint16_t src_port, uint16_t dst_port,
                                   size_t payload_size, uint8_t dscp,
                                   uint8_t ttl, bool ip_checksum) {
  const size_t l4_size = kUdpHeaderSize + payload_size;
  WriteIpv4Header(frame, ep, IpProto::kUdp, l4_size, dscp, ttl, ip_checksum);
  auto l4 = frame.subspan(kEthernetHeaderSize + kIpv4MinHeaderSize);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<uint16_t>(l4_size);
  udp.checksum = 0;
  udp.Serialize(l4);
  return l4;
}

void WriteUdpFrame(std::span<uint8_t> frame, const FrameEndpoints& ep,
                   uint16_t src_port, uint16_t dst_port,
                   std::span<const uint8_t> payload, uint8_t dscp,
                   uint8_t ttl) {
  auto l4 = WriteUdpHeaders(frame, ep, src_port, dst_port, payload.size(),
                            dscp, ttl, /*ip_checksum=*/true);
  if (!payload.empty()) {
    std::memcpy(l4.data() + kUdpHeaderSize, payload.data(), payload.size());
  }
  StoreBe16(l4.data() + 6,
            TransportChecksum(ep.src_ip, ep.dst_ip, IpProto::kUdp, l4));
}

size_t TcpFrameSize(size_t payload_size) {
  return kEthernetHeaderSize + kIpv4MinHeaderSize + kTcpMinHeaderSize +
         payload_size;
}

// Returns the TCP segment (header + payload space).
std::span<uint8_t> WriteTcpHeaders(std::span<uint8_t> frame,
                                   const FrameEndpoints& ep,
                                   uint16_t src_port, uint16_t dst_port,
                                   uint32_t seq, uint32_t ack, uint8_t flags,
                                   size_t payload_size, uint16_t window,
                                   bool ip_checksum) {
  const size_t l4_size = kTcpMinHeaderSize + payload_size;
  WriteIpv4Header(frame, ep, IpProto::kTcp, l4_size, /*dscp=*/0, /*ttl=*/64,
                  ip_checksum);
  auto l4 = frame.subspan(kEthernetHeaderSize + kIpv4MinHeaderSize);
  TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = dst_port;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  tcp.window = window;
  tcp.checksum = 0;
  tcp.Serialize(l4);
  return l4;
}

void WriteTcpFrame(std::span<uint8_t> frame, const FrameEndpoints& ep,
                   uint16_t src_port, uint16_t dst_port, uint32_t seq,
                   uint32_t ack, uint8_t flags,
                   std::span<const uint8_t> payload, uint16_t window) {
  auto l4 = WriteTcpHeaders(frame, ep, src_port, dst_port, seq, ack, flags,
                            payload.size(), window, /*ip_checksum=*/true);
  if (!payload.empty()) {
    std::memcpy(l4.data() + kTcpMinHeaderSize, payload.data(), payload.size());
  }
  StoreBe16(l4.data() + 16,
            TransportChecksum(ep.src_ip, ep.dst_ip, IpProto::kTcp, l4));
}

size_t IcmpFrameSize(std::span<const uint8_t> payload) {
  return kEthernetHeaderSize + kIpv4MinHeaderSize + kIcmpHeaderSize +
         payload.size();
}

void WriteIcmpEchoFrame(std::span<uint8_t> frame, const FrameEndpoints& ep,
                        IcmpType type, uint16_t identifier, uint16_t sequence,
                        std::span<const uint8_t> payload) {
  const size_t l4_size = kIcmpHeaderSize + payload.size();
  WriteIpv4Header(frame, ep, IpProto::kIcmp, l4_size, /*dscp=*/0,
                  /*ttl=*/64, /*ip_checksum=*/true);
  auto l4 = frame.subspan(kEthernetHeaderSize + kIpv4MinHeaderSize);
  IcmpHeader icmp;
  icmp.type = type;
  icmp.identifier = identifier;
  icmp.sequence = sequence;
  icmp.checksum = 0;
  icmp.Serialize(l4);
  if (!payload.empty()) {
    std::memcpy(l4.data() + kIcmpHeaderSize, payload.data(), payload.size());
  }
  icmp.checksum = InternetChecksum(l4);
  StoreBe16(l4.data() + 2, icmp.checksum);
}

constexpr size_t kArpFrameSize = kEthernetHeaderSize + kArpBodySize;

void WriteArpRequest(std::span<uint8_t> frame, MacAddress sender_mac,
                     Ipv4Address sender_ip, Ipv4Address target_ip) {
  EthernetHeader eth;
  eth.dst = MacAddress::Broadcast();
  eth.src = sender_mac;
  eth.ether_type = static_cast<uint16_t>(EtherType::kArp);
  eth.Serialize(frame);
  ArpMessage arp;
  arp.op = ArpOp::kRequest;
  arp.sender_mac = sender_mac;
  arp.sender_ip = sender_ip;
  arp.target_mac = MacAddress::Zero();
  arp.target_ip = target_ip;
  arp.Serialize(frame.subspan(kEthernetHeaderSize));
}

void WriteArpReply(std::span<uint8_t> frame, MacAddress sender_mac,
                   Ipv4Address sender_ip, MacAddress requester_mac,
                   Ipv4Address requester_ip) {
  EthernetHeader eth;
  eth.dst = requester_mac;
  eth.src = sender_mac;
  eth.ether_type = static_cast<uint16_t>(EtherType::kArp);
  eth.Serialize(frame);
  ArpMessage arp;
  arp.op = ArpOp::kReply;
  arp.sender_mac = sender_mac;
  arp.sender_ip = sender_ip;
  arp.target_mac = requester_mac;
  arp.target_ip = requester_ip;
  arp.Serialize(frame.subspan(kEthernetHeaderSize));
}

}  // namespace

void ResetIpIdCounterForTest() { IpIdCounter() = 0; }

PacketPtr BuildUdpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, std::span<const uint8_t> payload,
                         uint8_t dscp, uint8_t ttl) {
  PacketPtr p =
      PacketPool::Default().AcquireUninitialized(UdpFrameSize(payload.size()));
  WriteUdpFrame(p->mutable_bytes(), ep, src_port, dst_port, payload, dscp,
                ttl);
  p->MarkChecksumsValid();
  return p;
}

PacketPtr AllocUdpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, size_t payload_size) {
  PacketPtr p = PacketPool::Default().Acquire(UdpFrameSize(payload_size));
  WriteUdpHeaders(p->mutable_bytes(), ep, src_port, dst_port, payload_size,
                  /*dscp=*/0, /*ttl=*/64, /*ip_checksum=*/false);
  return p;
}

PacketPtr BuildTcpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, uint32_t seq, uint32_t ack,
                         uint8_t flags, std::span<const uint8_t> payload,
                         uint16_t window) {
  PacketPtr p =
      PacketPool::Default().AcquireUninitialized(TcpFrameSize(payload.size()));
  WriteTcpFrame(p->mutable_bytes(), ep, src_port, dst_port, seq, ack, flags,
                payload, window);
  p->MarkChecksumsValid();
  return p;
}

PacketPtr AllocTcpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, uint32_t seq, uint32_t ack,
                         uint8_t flags, size_t payload_size) {
  PacketPtr p = PacketPool::Default().Acquire(TcpFrameSize(payload_size));
  WriteTcpHeaders(p->mutable_bytes(), ep, src_port, dst_port, seq, ack, flags,
                  payload_size, /*window=*/65535, /*ip_checksum=*/false);
  return p;
}

PacketPtr BuildIcmpEchoPacket(const FrameEndpoints& ep, IcmpType type,
                              uint16_t identifier, uint16_t sequence,
                              std::span<const uint8_t> payload) {
  PacketPtr p = PacketPool::Default().AcquireUninitialized(IcmpFrameSize(payload));
  WriteIcmpEchoFrame(p->mutable_bytes(), ep, type, identifier, sequence,
                     payload);
  p->MarkChecksumsValid();
  return p;
}

PacketPtr BuildArpRequestPacket(MacAddress sender_mac, Ipv4Address sender_ip,
                                Ipv4Address target_ip) {
  PacketPtr p = PacketPool::Default().AcquireUninitialized(kArpFrameSize);
  WriteArpRequest(p->mutable_bytes(), sender_mac, sender_ip, target_ip);
  return p;
}

PacketPtr BuildArpReplyPacket(MacAddress sender_mac, Ipv4Address sender_ip,
                              MacAddress requester_mac,
                              Ipv4Address requester_ip) {
  PacketPtr p = PacketPool::Default().AcquireUninitialized(kArpFrameSize);
  WriteArpReply(p->mutable_bytes(), sender_mac, sender_ip, requester_mac,
                requester_ip);
  return p;
}

namespace {

// Incremental checksum update per RFC 1624: HC' = ~(~HC + ~m + m').
uint16_t IncrementalFix(uint16_t csum, uint16_t old16, uint16_t new16) {
  uint32_t sum = static_cast<uint32_t>(static_cast<uint16_t>(~csum));
  sum += static_cast<uint16_t>(~old16);
  sum += new16;
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

struct RewriteOffsets {
  size_t ip_addr;     // offset of the address to rewrite (src or dst)
  size_t ip_csum;     // IPv4 checksum offset
  size_t l4_port;     // offset of port to rewrite
  size_t l4_csum;     // transport checksum offset
  bool udp;           // UDP semantics for zero checksum
};

bool FindOffsets(std::span<uint8_t> frame, bool source, RewriteOffsets* out) {
  auto parsed = ParseFrame(frame);
  if (!parsed || !parsed->ipv4 || (!parsed->udp && !parsed->tcp)) {
    return false;
  }
  const size_t l3 = parsed->l3_offset;
  const size_t l4 = parsed->l4_offset;
  out->ip_addr = l3 + (source ? 12 : 16);
  out->ip_csum = l3 + 10;
  out->l4_port = l4 + (source ? 0 : 2);
  out->udp = parsed->is_udp();
  out->l4_csum = l4 + (out->udp ? 6 : 16);
  return true;
}

bool Rewrite(std::span<uint8_t> frame, bool source, Ipv4Address new_ip,
             uint16_t new_port) {
  RewriteOffsets off;
  if (!FindOffsets(frame, source, &off)) {
    return false;
  }
  const uint32_t old_ip = LoadBe32(&frame[off.ip_addr]);
  const uint16_t old_port = LoadBe16(&frame[off.l4_port]);

  // IPv4 header checksum: fix for the two 16-bit halves of the address.
  uint16_t ip_csum = LoadBe16(&frame[off.ip_csum]);
  ip_csum = IncrementalFix(ip_csum, static_cast<uint16_t>(old_ip >> 16),
                           static_cast<uint16_t>(new_ip.addr >> 16));
  ip_csum = IncrementalFix(ip_csum, static_cast<uint16_t>(old_ip),
                           static_cast<uint16_t>(new_ip.addr));
  StoreBe16(&frame[off.ip_csum], ip_csum);

  // Transport checksum covers the pseudo header (address) and the port.
  uint16_t l4_csum = LoadBe16(&frame[off.l4_csum]);
  const bool udp_no_csum = off.udp && l4_csum == 0;
  if (!udp_no_csum) {
    l4_csum = IncrementalFix(l4_csum, static_cast<uint16_t>(old_ip >> 16),
                             static_cast<uint16_t>(new_ip.addr >> 16));
    l4_csum = IncrementalFix(l4_csum, static_cast<uint16_t>(old_ip),
                             static_cast<uint16_t>(new_ip.addr));
    l4_csum = IncrementalFix(l4_csum, old_port, new_port);
    if (off.udp && l4_csum == 0) {
      l4_csum = 0xffff;
    }
    StoreBe16(&frame[off.l4_csum], l4_csum);
  }

  StoreBe32(&frame[off.ip_addr], new_ip.addr);
  StoreBe16(&frame[off.l4_port], new_port);
  return true;
}

}  // namespace

bool RewriteSource(std::span<uint8_t> frame, Ipv4Address new_src_ip,
                   uint16_t new_src_port) {
  return Rewrite(frame, /*source=*/true, new_src_ip, new_src_port);
}

bool RewriteDestination(std::span<uint8_t> frame, Ipv4Address new_dst_ip,
                        uint16_t new_dst_port) {
  return Rewrite(frame, /*source=*/false, new_dst_ip, new_dst_port);
}

}  // namespace norman::net
