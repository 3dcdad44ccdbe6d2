#include "src/net/checksum.h"

#include <bit>
#include <cstring>

#include "src/net/byte_io.h"

namespace norman::net {

// Sums native words and converts the folded result to the big-endian word
// convention at the end. Valid because the ones-complement sum is
// byte-order independent (RFC 1071 §2B): byte-swapping every 16-bit operand
// and the folded result yields the same value, so the swap moves out of the
// loop. The sum is order independent too, so 32-byte blocks go through two
// 16-byte vector accumulators (GCC/Clang vector extensions: SSE2 on x86-64,
// scalar pairs elsewhere) whose 64-bit lanes add the two 32-bit halves of
// each word; an 8/4/2/1-byte tail follows. Every chunk starts at even parity
// within `data`, and the caller-visible contract (a uint32 partial folded by
// ChecksumFinish) is unchanged — ones-complement addition lets partials be
// folded early.
uint32_t ChecksumPartial(std::span<const uint8_t> data, uint32_t sum) {
  using U64x2 = uint64_t __attribute__((vector_size(16)));
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t acc = 0;
  if (n >= 32) {
    const U64x2 low = {0xffffffffULL, 0xffffffffULL};
    U64x2 a = {0, 0};
    U64x2 b = {0, 0};
    do {
      U64x2 w0;
      U64x2 w1;
      std::memcpy(&w0, p, 16);
      std::memcpy(&w1, p + 16, 16);
      a += (w0 & low) + (w0 >> 32);
      b += (w1 & low) + (w1 >> 32);
      p += 32;
      n -= 32;
    } while (n >= 32);
    a += b;
    acc = a[0] + a[1];
  }
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    acc += (w & 0xffffffffULL) + (w >> 32);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    acc += w;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    uint16_t w;
    std::memcpy(&w, p, 2);
    acc += w;
    p += 2;
    n -= 2;
  }
  // Fold 64 -> 16 bits with end-around carries, in native word order.
  acc = (acc & 0xffffffffULL) + (acc >> 32);
  acc = (acc & 0xffffffffULL) + (acc >> 32);
  uint32_t folded = static_cast<uint32_t>(acc);
  folded = (folded & 0xffff) + (folded >> 16);
  folded = (folded & 0xffff) + (folded >> 16);
  if constexpr (std::endian::native == std::endian::little) {
    folded = ((folded & 0xff) << 8) | (folded >> 8);
  }
  sum += folded;
  if (n != 0) {
    // Odd trailing byte is padded with zero on the right.
    sum += static_cast<uint32_t>(*p) << 8;
  }
  return sum;
}

uint16_t ChecksumFinish(uint32_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

uint16_t InternetChecksum(std::span<const uint8_t> data) {
  return ChecksumFinish(ChecksumPartial(data));
}

uint16_t TransportChecksum(Ipv4Address src, Ipv4Address dst, IpProto proto,
                           std::span<const uint8_t> l4) {
  uint8_t pseudo[12];
  StoreBe32(&pseudo[0], src.addr);
  StoreBe32(&pseudo[4], dst.addr);
  pseudo[8] = 0;
  pseudo[9] = static_cast<uint8_t>(proto);
  StoreBe16(&pseudo[10], static_cast<uint16_t>(l4.size()));
  uint32_t sum = ChecksumPartial(std::span<const uint8_t>(pseudo, 12));
  sum = ChecksumPartial(l4, sum);
  uint16_t csum = ChecksumFinish(sum);
  // Per RFC 768, a computed UDP checksum of zero is transmitted as 0xffff.
  if (csum == 0 && proto == IpProto::kUdp) {
    csum = 0xffff;
  }
  return csum;
}

}  // namespace norman::net
