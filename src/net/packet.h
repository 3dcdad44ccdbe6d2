// Packet buffer and simulation metadata.
//
// A Packet owns its bytes (wire format, starting at the Ethernet header) and
// carries sideband metadata the simulated hardware attaches as the packet
// moves: timestamps, the RSS queue, and — crucially for KOPI — the identity
// of the *sending connection*, which the kernel stamped into the NIC flow
// table at connection setup. The identity travels as metadata, never as
// packet bytes, mirroring how a real on-NIC dataplane knows the source ring
// (and therefore the owning process) of every TX descriptor.
#ifndef NORMAN_NET_PACKET_H_
#define NORMAN_NET_PACKET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/net/parsed_packet.h"
#include "src/net/types.h"

namespace norman::net {

// Identifies a NIC-visible connection (== one ring-buffer pair). 0 is
// reserved for "unknown / not from a registered connection".
using ConnectionId = uint32_t;
inline constexpr ConnectionId kUnknownConnection = 0;

enum class Direction : uint8_t { kTx, kRx };

struct PacketMeta {
  Nanos created_at = 0;       // when the app/workload produced it
  Nanos nic_arrival = 0;      // when it entered the NIC pipeline
  Nanos completed_at = 0;     // when it hit the wire / app ring
  Direction direction = Direction::kTx;
  ConnectionId connection = kUnknownConnection;
  uint16_t rx_queue = 0;      // RSS result (RX only)
  bool software_fallback = false;  // diverted through host slow path (E7)
  // Owning process, stamped where the dataplane first resolves it (flow
  // entry owner on TX, kernel fallback-connection owner on injected
  // frames). Carried so later charge points (wire drain) can attribute
  // cycles without re-walking the flow table. 0 = no registered owner.
  uint32_t owner_pid = 0;
  // Owning tenant (kernel-assigned; 0 = untenanted), stamped alongside
  // owner_pid from the flow entry so per-tenant cycle shares and drop
  // attribution work anywhere in the pipeline.
  uint32_t tenant = 0;
  // Lifecycle tracing (telemetry::Tracepoints spans): nonzero when this
  // packet was sampled at NIC arrival; spans are recorded under this id.
  uint32_t trace_id = 0;
  // When the TX scheduler accepted the packet (start of the qdisc-wait
  // span; meaningful only while trace_id != 0).
  Nanos sched_enqueued_at = 0;
};

class PacketPool;

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::span<const uint8_t> bytes() const { return bytes_; }
  // Writable view. Clears checksums_valid(): the caller may change bytes
  // the checksums cover.
  std::span<uint8_t> mutable_bytes() {
    checksums_valid_ = false;
    return bytes_;
  }
  size_t size() const { return bytes_.size(); }

  // True when a packet builder wrote every checksum and nothing has been
  // written since (TX checksum offload skips such frames). A sender-side
  // hint only: the NIC never reads it, and RX verifies every wire frame.
  bool checksums_valid() const { return checksums_valid_; }
  void MarkChecksumsValid() { checksums_valid_ = true; }

  PacketMeta& meta() { return meta_; }
  const PacketMeta& meta() const { return meta_; }

  // Cached single-pass parse of bytes(). The NIC parses each frame once on
  // pipeline entry and re-parses *only* after a stage mutates the bytes
  // (NAT); everything downstream — schedulers, RSS, observers — reads this
  // instead of re-walking the headers. Nullptr until SetParsed; invalidated
  // whenever the frame is rewritten without a fresh parse.
  const ParsedPacket* parsed() const {
    return parsed_.has_value() ? &*parsed_ : nullptr;
  }
  void SetParsed(std::optional<ParsedPacket> parsed) {
    parsed_ = std::move(parsed);
  }
  void InvalidateParse() { parsed_.reset(); }

 private:
  friend class PacketPool;
  friend struct PacketDeleter;

  std::vector<uint8_t> bytes_;
  PacketMeta meta_;
  std::optional<ParsedPacket> parsed_;
  bool checksums_valid_ = false;
  // Owning pool, or nullptr for plain heap/stack packets. Set by PacketPool
  // on acquisition; PacketDeleter routes the buffer back through it.
  PacketPool* pool_ = nullptr;
};

// Deleter for pooled packets: returns the buffer to its owning pool (which
// recycles Packet + vector capacity) or plain-deletes unpooled packets.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

// Owning packet handle. The deleter is stateless, so PacketPtr can still be
// constructed directly from a raw pointer (release()/re-wrap round trips).
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

}  // namespace norman::net

#endif  // NORMAN_NET_PACKET_H_
