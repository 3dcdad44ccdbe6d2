#include "src/norman/socket.h"

#include <algorithm>

#include "src/net/frame_checksum.h"
#include "src/net/parsed_packet.h"

namespace norman {

StatusOr<Socket> Socket::Connect(kernel::Kernel* kernel, kernel::Pid pid,
                                 net::Ipv4Address remote_ip,
                                 uint16_t remote_port,
                                 const kernel::ConnectOptions& opts) {
  NORMAN_ASSIGN_OR_RETURN(kernel::AppPort port,
                          kernel->Connect(pid, remote_ip, remote_port, opts));
  return Socket(kernel, std::move(port));
}

net::FrameEndpoints Socket::Endpoints() const {
  return net::FrameEndpoints{port_.local_mac(), port_.gateway_mac(),
                             port_.tuple().src_ip, port_.tuple().dst_ip};
}

net::PacketPtr Socket::AllocFrame(size_t payload_size) {
  const auto& t = port_.tuple();
  if (t.proto == net::IpProto::kTcp) {
    auto p = net::AllocTcpPacket(Endpoints(), t.src_port, t.dst_port,
                                 next_tcp_seq_, 0, net::TcpFlags::kAck,
                                 payload_size);
    next_tcp_seq_ += static_cast<uint32_t>(payload_size);
    return p;
  }
  return net::AllocUdpPacket(Endpoints(), t.src_port, t.dst_port,
                             payload_size);
}

std::span<uint8_t> Socket::Payload(net::Packet& frame) {
  auto parsed = net::ParseFrame(frame.bytes());
  if (!parsed || parsed->payload_offset == 0) {
    return {};
  }
  return frame.mutable_bytes().subspan(parsed->payload_offset);
}

std::span<const uint8_t> Socket::Payload(const net::Packet& frame) {
  if (const net::ParsedPacket* cached = frame.parsed()) {
    if (cached->payload_offset == 0) {
      return {};
    }
    return frame.bytes().subspan(cached->payload_offset);
  }
  auto parsed = net::ParseFrame(frame.bytes());
  if (!parsed || parsed->payload_offset == 0) {
    return {};
  }
  return frame.bytes().subspan(parsed->payload_offset);
}

Status Socket::SendFrame(net::PacketPtr frame) {
  if (!valid()) {
    return FailedPreconditionError("socket not connected");
  }
  // TX checksum offload, skipped for untouched builder output.
  if (!frame->checksums_valid()) {
    net::FixupFrameChecksums(frame->mutable_bytes());
  }
  const size_t size = frame->size();
  frame->meta().created_at = kernel_->simulator()->Now();
  frame->meta().connection = port_.conn_id();
  if (software_fallback()) {
    NORMAN_RETURN_IF_ERROR(
        kernel_->SoftwareTransmit(port_.conn_id(), std::move(frame)));
  } else {
    if (!port_.PushTx(std::move(frame))) {
      ++stats_.tx_ring_full;
      return UnavailableError("TX ring full");
    }
    NORMAN_RETURN_IF_ERROR(
        port_.RingDoorbell(kernel_->simulator()->Now()));
  }
  ++stats_.tx_packets;
  stats_.tx_bytes += size;
  return OkStatus();
}

Status Socket::Send(std::span<const uint8_t> payload) {
  if (!valid()) {
    return FailedPreconditionError("socket not connected");
  }
  const auto& t = port_.tuple();
  net::PacketPtr frame;
  if (t.proto == net::IpProto::kTcp) {
    frame = net::BuildTcpPacket(Endpoints(), t.src_port, t.dst_port,
                                next_tcp_seq_, 0, net::TcpFlags::kAck,
                                payload);
    next_tcp_seq_ += static_cast<uint32_t>(payload.size());
  } else {
    frame = net::BuildUdpPacket(Endpoints(), t.src_port, t.dst_port, payload);
  }
  return SendFrame(std::move(frame));
}

net::PacketPtr Socket::RecvFrame() {
  if (!valid()) {
    return nullptr;
  }
  net::PacketPtr p = port_.PopRx();
  if (p != nullptr) {
    ++stats_.rx_packets;
    stats_.rx_bytes += p->size();
  }
  return p;
}

size_t Socket::RecvFrames(std::span<net::PacketPtr> out) {
  if (!valid()) {
    return 0;
  }
  const uint32_t n = port_.PopRxN(out);
  for (uint32_t i = 0; i < n; ++i) {
    ++stats_.rx_packets;
    stats_.rx_bytes += out[i]->size();
  }
  return n;
}

StatusOr<std::vector<uint8_t>> Socket::Recv() {
  net::PacketPtr p = RecvFrame();
  if (p == nullptr) {
    return UnavailableError("no data");
  }
  auto payload = Payload(*p);
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

StatusOr<size_t> Socket::RecvInto(std::span<uint8_t> buffer) {
  net::PacketPtr p = RecvFrame();
  if (p == nullptr) {
    return UnavailableError("no data");
  }
  const auto payload = Payload(static_cast<const net::Packet&>(*p));
  const size_t n = std::min(buffer.size(), payload.size());
  std::copy_n(payload.begin(), n, buffer.begin());
  return n;
}

Status Socket::SendBlocking(std::vector<uint8_t> payload,
                            std::function<void(Status)> done) {
  Status first = Send(payload);
  if (first.ok() || first.code() != StatusCode::kUnavailable) {
    done(first);
    return OkStatus();
  }
  // Ring full: sleep until the NIC drains it, then retry once.
  return kernel_->BlockOnTxDrain(
      port_.conn_id(),
      [this, payload = std::move(payload), done = std::move(done)] {
        done(Send(payload));
      });
}

Status Socket::RecvBlocking(
    std::function<void(std::vector<uint8_t>)> on_data) {
  if (!valid()) {
    return FailedPreconditionError("socket not connected");
  }
  auto ready = Recv();
  if (ready.ok()) {
    on_data(std::move(ready).value());
    return OkStatus();
  }
  return kernel_->BlockOnRx(
      port_.conn_id(), [this, on_data = std::move(on_data)] {
        auto data = Recv();
        // A notification without data can only mean the packet raced with a
        // previous consumer; deliver empty payload in that (unexpected) case.
        on_data(data.ok() ? std::move(data).value() : std::vector<uint8_t>{});
      });
}

Status Socket::Close() {
  if (!valid()) {
    return OkStatus();
  }
  const Status s = kernel_->Close(port_.conn_id());
  kernel_ = nullptr;
  return s;
}

}  // namespace norman
