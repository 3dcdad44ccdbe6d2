#include "src/net/checksum.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/net/byte_io.h"

namespace norman::net {
namespace {

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 §3: words 0001 f203 f4f5 f6f7.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 2ddf0 -> fold: ddf0 + 2 = ddf2 -> complement = 220d.
  EXPECT_EQ(InternetChecksum(data), 0x220d);
}

TEST(ChecksumTest, ZeroBufferChecksum) {
  const std::vector<uint8_t> zeros(20, 0);
  EXPECT_EQ(InternetChecksum(zeros), 0xffff);
}

TEST(ChecksumTest, OddLengthPadsRight) {
  const uint8_t data[] = {0xab};
  // Sum = 0xab00 -> complement = 0x54ff.
  EXPECT_EQ(InternetChecksum(data), 0x54ff);
}

TEST(ChecksumTest, EmptyBuffer) {
  EXPECT_EQ(InternetChecksum(std::span<const uint8_t>{}), 0xffff);
}

TEST(ChecksumTest, InsertedChecksumValidatesToZero) {
  // Property: writing the computed checksum into a zeroed field makes the
  // full-buffer checksum come out 0 — for any content.
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> buf(20 + rng.NextBounded(64) * 2);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    // Zero a 16-bit "checksum field" at offset 10.
    buf[10] = buf[11] = 0;
    const uint16_t csum = InternetChecksum(buf);
    StoreBe16(&buf[10], csum);
    EXPECT_EQ(InternetChecksum(buf), 0) << "trial " << trial;
  }
}

TEST(ChecksumTest, PartialComposition) {
  // Property: checksum(a ++ b) == finish(partial(b, partial(a))) for
  // even-length a (one's complement sums compose at 16-bit boundaries).
  Rng rng(22);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> a(2 * (1 + rng.NextBounded(20)));
    std::vector<uint8_t> b(1 + rng.NextBounded(40));
    for (auto& x : a) {
      x = static_cast<uint8_t>(rng.NextU64());
    }
    for (auto& x : b) {
      x = static_cast<uint8_t>(rng.NextU64());
    }
    std::vector<uint8_t> ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(InternetChecksum(ab),
              ChecksumFinish(ChecksumPartial(b, ChecksumPartial(a))));
  }
}

TEST(ChecksumTest, ChunkedSumMatchesBytewiseReference) {
  // The production ChecksumPartial sums 32-byte blocks in two vector
  // accumulators, then an 8/4/2/1-byte tail, natively with the byte swap
  // deferred (RFC 1071 §2B). Check it against the obvious big-endian 16-bit
  // reference over every length 0..1600 at start offsets 0..3, so the block
  // loop, every tail path, unaligned loads and carry patterns are all
  // exercised.
  Rng rng(24);
  std::vector<uint8_t> buf(1600 + 3);
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t len = 0; len <= 1600; ++len) {
      for (auto& b : buf) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      const std::span<const uint8_t> data(buf.data() + offset, len);
      uint32_t ref = 17;  // arbitrary incoming partial
      size_t i = 0;
      for (; i + 1 < data.size(); i += 2) {
        ref += LoadBe16(&data[i]);
      }
      if (i < data.size()) {
        ref += static_cast<uint32_t>(data[i]) << 8;
      }
      ASSERT_EQ(ChecksumFinish(ChecksumPartial(data, 17)), ChecksumFinish(ref))
          << "offset " << offset << " len " << len;
    }
  }
  // All-0xff buffers drive the maximum carry cascade, through the vector
  // lanes too.
  for (const size_t len : {size_t{96}, size_t{1480}, size_t{4000}}) {
    const std::vector<uint8_t> ones(len, 0xff);
    EXPECT_EQ(InternetChecksum(ones), 0) << "len " << len;
  }
}

TEST(TransportChecksumTest, UdpNeverZero) {
  // Find-by-construction is hard; instead verify the documented rule via a
  // payload engineered to sum to zero is still reported as 0xffff.
  // Simpler: property — transport checksum is never 0 for UDP.
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> l4(8 + rng.NextBounded(32));
    for (auto& x : l4) {
      x = static_cast<uint8_t>(rng.NextU64());
    }
    l4[6] = l4[7] = 0;  // checksum field zeroed
    const uint16_t csum =
        TransportChecksum(Ipv4Address::FromOctets(10, 0, 0, 1),
                          Ipv4Address::FromOctets(10, 0, 0, 2), IpProto::kUdp,
                          l4);
    EXPECT_NE(csum, 0);
  }
}

TEST(TransportChecksumTest, DependsOnPseudoHeader) {
  const std::vector<uint8_t> l4(16, 0x5a);
  const auto src1 = Ipv4Address::FromOctets(10, 0, 0, 1);
  const auto src2 = Ipv4Address::FromOctets(10, 0, 0, 2);
  const auto dst = Ipv4Address::FromOctets(10, 0, 0, 3);
  EXPECT_NE(TransportChecksum(src1, dst, IpProto::kTcp, l4),
            TransportChecksum(src2, dst, IpProto::kTcp, l4));
  EXPECT_NE(TransportChecksum(src1, dst, IpProto::kTcp, l4),
            TransportChecksum(src1, dst, IpProto::kUdp, l4));
}

}  // namespace
}  // namespace norman::net
