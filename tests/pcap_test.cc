#include "src/net/pcap_writer.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/net/packet_builder.h"

namespace norman::net {
namespace {

std::vector<uint8_t> SampleFrame(size_t payload = 20) {
  FrameEndpoints ep{MacAddress::ForHost(1), MacAddress::ForHost(2),
                    Ipv4Address::FromOctets(10, 0, 0, 1),
                    Ipv4Address::FromOctets(10, 0, 0, 2)};
  const PacketPtr p =
      BuildUdpPacket(ep, 1, 2, std::vector<uint8_t>(payload, 0xcd));
  return {p->bytes().begin(), p->bytes().end()};
}

TEST(PcapWriterTest, EmptyFileHasOnlyGlobalHeader) {
  PcapWriter w;
  EXPECT_EQ(w.buffer().size(), 24u);
  EXPECT_EQ(w.record_count(), 0u);
  // Little-endian magic at the front.
  EXPECT_EQ(w.buffer()[0], 0xd4);
  EXPECT_EQ(w.buffer()[1], 0xc3);
  EXPECT_EQ(w.buffer()[2], 0xb2);
  EXPECT_EQ(w.buffer()[3], 0xa1);
  // Link type Ethernet at offset 20.
  EXPECT_EQ(w.buffer()[20], 1);
}

TEST(PcapWriterTest, RecordsRoundTripThroughParser) {
  PcapWriter w;
  const auto f1 = SampleFrame(10);
  const auto f2 = SampleFrame(100);
  w.AddRecord(1 * kSecond + 250 * kMicrosecond, f1);
  w.AddRecord(2 * kSecond, f2);
  EXPECT_EQ(w.record_count(), 2u);

  auto records = ParsePcap(w.buffer());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].timestamp, 1 * kSecond + 250 * kMicrosecond);
  EXPECT_EQ((*records)[0].bytes, f1);
  EXPECT_EQ((*records)[0].original_length, f1.size());
  EXPECT_EQ((*records)[1].bytes, f2);
}

TEST(PcapWriterTest, SnaplenTruncatesButRecordsOriginalLength) {
  PcapWriter w(/*snaplen=*/32);
  const auto frame = SampleFrame(200);
  w.AddRecord(0, frame);
  auto records = ParsePcap(w.buffer());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].bytes.size(), 32u);
  EXPECT_EQ((*records)[0].original_length, frame.size());
  EXPECT_TRUE(std::equal((*records)[0].bytes.begin(),
                         (*records)[0].bytes.end(), frame.begin()));
}

TEST(PcapWriterTest, SubSecondTimestampPrecisionIsMicroseconds) {
  PcapWriter w;
  w.AddRecord(5 * kSecond + 123456789 /* ns */, SampleFrame());
  auto records = ParsePcap(w.buffer());
  ASSERT_TRUE(records.ok());
  // 123456789ns floors to 123456us.
  EXPECT_EQ((*records)[0].timestamp, 5 * kSecond + 123456 * kMicrosecond);
}

TEST(PcapParserTest, RejectsBadMagic) {
  std::vector<uint8_t> junk(24, 0);
  EXPECT_FALSE(ParsePcap(junk).ok());
}

TEST(PcapParserTest, RejectsTruncatedHeader) {
  std::vector<uint8_t> junk(10, 0);
  EXPECT_FALSE(ParsePcap(junk).ok());
}

TEST(PcapParserTest, RejectsTruncatedRecord) {
  PcapWriter w;
  w.AddRecord(0, SampleFrame());
  auto buf = w.buffer();
  buf.resize(buf.size() - 4);  // chop the record body
  EXPECT_FALSE(ParsePcap(buf).ok());
}

TEST(PcapWriterTest, WritesToFile) {
  PcapWriter w;
  w.AddRecord(0, SampleFrame());
  const std::string path = ::testing::TempDir() + "/norman_test.pcap";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<size_t>(std::ftell(f)), w.buffer().size());
  std::fclose(f);
}

}  // namespace
}  // namespace norman::net
