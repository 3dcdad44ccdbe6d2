// Alignment-safe big-endian (network order) loads and stores.
//
// Header serialization never casts structs onto byte buffers; all field
// access goes through these helpers, which compile to single moves on
// little-endian targets.
#ifndef NORMAN_NET_BYTE_IO_H_
#define NORMAN_NET_BYTE_IO_H_

#include <cstdint>
#include <cstring>

namespace norman::net {

inline uint16_t LoadBe16(const uint8_t* p) {
  return static_cast<uint16_t>((uint16_t{p[0]} << 8) | p[1]);
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

inline void StoreBe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

}  // namespace norman::net

#endif  // NORMAN_NET_BYTE_IO_H_
