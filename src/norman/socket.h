// The Norman userspace library (§4.2-§4.3).
//
// "The Norman library provides abstractions that allow applications to
// interface with the network. It provides both POSIX APIs ... as well as
// more efficient abstractions that prevent unnecessary copies."
//
// A Socket is created through the kernel (connect(2)-equivalent); after
// that, Send/Recv are pure memory + doorbell operations against the
// connection's ring pair — the software kernel is not on the datapath.
// Blocking variants register a continuation with the kernel, which wakes it
// from the NIC notification queue (§4.3).
//
// Two data interfaces:
//  * POSIX-ish:   Send(payload) / Recv() / RecvInto(buffer) — one copy each
//                 way (payload <-> frame), familiar semantics;
//  * zero-copy:   SendFrame(PacketPtr) / RecvFrame() — the application
//                 owns/receives whole frames, no payload copies.
//
// Listening is a separate RAII object: see norman::Listener (listener.h).
//
// Error convention (library-wide):
//  * kUnavailable        — would-block / try again later: no data to Recv,
//                          nothing pending to Accept, TX ring full. The
//                          operation is valid; the resource is momentarily
//                          empty or busy.
//  * kNotFound           — the thing you named does not exist: unknown
//                          connection, port nobody listens on.
//  * kFailedPrecondition — the handle itself is unusable (socket not
//                          connected, listener not bound).
// The zero-copy lane is the one deliberate exception: RecvFrame() returns
// nullptr for "no data" instead of a StatusOr, keeping the hot path free of
// status-object construction; nullptr there means exactly kUnavailable.
#ifndef NORMAN_NORMAN_SOCKET_H_
#define NORMAN_NORMAN_SOCKET_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/packet.h"
#include "src/net/packet_builder.h"

namespace norman {

struct SocketStats {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_packets = 0;
  uint64_t rx_bytes = 0;
  uint64_t tx_ring_full = 0;
};

class Socket {
 public:
  Socket() = default;

  // connect(2): asks the kernel for a connection to remote_ip:remote_port
  // on behalf of `pid`. The kernel allocates rings, installs the flow with
  // owner metadata, and returns the dataplane capability.
  static StatusOr<Socket> Connect(kernel::Kernel* kernel, kernel::Pid pid,
                                  net::Ipv4Address remote_ip,
                                  uint16_t remote_port,
                                  const kernel::ConnectOptions& opts = {});

  bool valid() const { return kernel_ != nullptr; }
  net::ConnectionId conn_id() const { return port_.conn_id(); }
  const net::FiveTuple& tuple() const { return port_.tuple(); }
  bool software_fallback() const { return port_.software_fallback(); }
  const SocketStats& stats() const { return stats_; }

  // ---- POSIX-ish copying interface ---------------------------------------
  // Builds a frame around `payload` and publishes it. Returns Unavailable
  // when the TX ring is full (use SendBlocking or retry).
  Status Send(std::span<const uint8_t> payload);
  Status Send(const std::string& payload) {
    return Send(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  }

  // Non-blocking receive: payload of the next RX frame, or Unavailable.
  StatusOr<std::vector<uint8_t>> Recv();

  // Non-blocking, non-allocating receive: copies the next frame's payload
  // into `buffer` and returns the byte count. Oversized payloads are
  // truncated to the buffer (POSIX datagram semantics); Unavailable when no
  // frame is waiting. The hot-loop alternative to Recv(), which allocates a
  // fresh vector per message.
  StatusOr<size_t> RecvInto(std::span<uint8_t> buffer);

  // ---- Blocking variants (§4.3) -------------------------------------------
  // Runs `done` (in virtual time) once `payload` has been published; if the
  // ring is full, sleeps on the TX-drain notification first. Requires
  // ConnectOptions::notify_tx_drain.
  Status SendBlocking(std::vector<uint8_t> payload,
                      std::function<void(Status)> done);

  // Runs `on_data(payload)` once data is available; delivers immediately if
  // the RX ring is non-empty, otherwise sleeps on the RX notification.
  // Requires ConnectOptions::notify_rx.
  Status RecvBlocking(std::function<void(std::vector<uint8_t>)> on_data);

  // ---- Zero-copy interface -------------------------------------------------
  // Allocates a frame with headers prebuilt for this connection and
  // `payload_size` zeroed bytes of payload space; the caller fills Payload()
  // and passes it to SendFrame. No further copies happen on the TX path.
  // Nothing is checksummed here: SendFrame's offload pass is the frame's
  // only one.
  net::PacketPtr AllocFrame(size_t payload_size);
  // Payload view of a frame produced by AllocFrame / received by RecvFrame.
  static std::span<uint8_t> Payload(net::Packet& frame);
  // Read-only payload view. Uses the frame's cached single-pass parse when
  // present (every frame the NIC delivered has one), so hot RX loops pay no
  // re-parse.
  static std::span<const uint8_t> Payload(const net::Packet& frame);

  // Publishes a frame. Models TX checksum offload: a frame without
  // checksums_valid() (AllocFrame frames, anything written through
  // mutable_bytes()) gets its IPv4/L4 checksums written on the way out,
  // which is what makes the AllocFrame/Payload zero-copy path legal.
  // Frames fresh from a packet builder already carry valid checksums and
  // skip the pass.
  Status SendFrame(net::PacketPtr frame);
  // Whole received frame (headers included), or nullptr when empty.
  net::PacketPtr RecvFrame();
  // Bulk zero-copy receive: fills `out` with up to out.size() whole frames
  // in delivery order (one ring/gauge transaction for the burst — the
  // batched-drain analog of RecvFrame for hot RX loops). Returns the count
  // received; a short count means the RX ring is now empty.
  size_t RecvFrames(std::span<net::PacketPtr> out);

  // close(2).
  Status Close();

 private:
  friend class Listener;  // mints Sockets from accepted connections

  Socket(kernel::Kernel* kernel, kernel::AppPort port)
      : kernel_(kernel), port_(std::move(port)) {}

  net::FrameEndpoints Endpoints() const;

  kernel::Kernel* kernel_ = nullptr;
  kernel::AppPort port_;
  SocketStats stats_;
  uint32_t next_tcp_seq_ = 1;
};

}  // namespace norman

#endif  // NORMAN_NORMAN_SOCKET_H_
