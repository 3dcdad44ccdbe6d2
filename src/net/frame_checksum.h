// Whole-frame checksum verification and recomputation.
//
// The graceful-degradation half of the fault model: the wire can damage
// bytes (sim::FaultInjector), so RX ingest verifies the IPv4 header
// checksum and the L4 checksum of every frame before it is allowed past the
// NIC (DropReason::kCorrupt). The TX side models checksum offload: at
// SendFrame time the library fixes up only frames written after their
// builder ran (Packet::checksums_valid() clear). That is what makes the
// zero-copy AllocFrame/Payload path legal — AllocFrame writes headers and
// a zeroed payload without checksums, the application fills the payload,
// and the "hardware" checksums the frame once on the way out.
#ifndef NORMAN_NET_FRAME_CHECKSUM_H_
#define NORMAN_NET_FRAME_CHECKSUM_H_

#include <span>

#include "src/net/parsed_packet.h"

namespace norman::net {

// True iff the frame's IPv4 header checksum and, when present, its UDP/TCP/
// ICMP checksum are valid. `parsed` must describe `frame` (same bytes). A
// UDP checksum of zero means "not computed" (RFC 768) and passes. Frames
// that are not IPv4 — ARP, unparsed garbage — vacuously pass: the dataplane
// forwards what it cannot parse, and only corruption of understood headers
// is detectable.
bool FrameChecksumsValid(std::span<const uint8_t> frame,
                         const ParsedPacket& parsed);

// Recomputes the IPv4 header checksum and the L4 checksum in place (TX
// checksum offload). Returns false (frame untouched) when the frame does
// not parse as IPv4 — there is nothing to fix on a non-IP frame.
bool FixupFrameChecksums(std::span<uint8_t> frame);

}  // namespace norman::net

#endif  // NORMAN_NET_FRAME_CHECKSUM_H_
