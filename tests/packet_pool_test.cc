#include "src/net/packet_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/net/packet_builder.h"

namespace norman::net {
namespace {

TEST(PacketPoolTest, AcquireZeroFills) {
  PacketPool pool;
  auto p = pool.Acquire(128);
  ASSERT_EQ(p->size(), 128u);
  for (uint8_t b : p->bytes()) {
    EXPECT_EQ(b, 0);
  }
}

TEST(PacketPoolTest, ReleaseThenAcquireReusesSamePacket) {
  PacketPool pool;
  auto p = pool.Acquire(500);
  Packet* raw = p.get();
  p.reset();  // back to the pool
  EXPECT_EQ(pool.free_packets(), 1u);

  auto q = pool.Acquire(400);  // same 512B capacity class
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.free_packets(), 0u);
  EXPECT_EQ(pool.counters().hits, 1u);
  EXPECT_EQ(pool.counters().misses, 1u);
}

TEST(PacketPoolTest, ReuseZeroFillsRecycledBytes) {
  PacketPool pool;
  auto p = pool.Acquire(64);
  for (auto& b : p->mutable_bytes()) {
    b = 0xff;
  }
  p.reset();
  auto q = pool.Acquire(64);
  for (uint8_t b : q->bytes()) {
    EXPECT_EQ(b, 0);
  }
}

TEST(PacketPoolTest, AcquireUninitializedNeverShrinksCapacity) {
  PacketPool pool;
  auto p = pool.Acquire(1000);  // 1024B class
  p.reset();
  auto q = pool.AcquireUninitialized(600);
  EXPECT_EQ(q->size(), 600u);
  EXPECT_GE(q->mutable_bytes().size(), 600u);
}

TEST(PacketPoolTest, BucketsMatchByCapacityClass) {
  PacketPool pool;
  auto small = pool.Acquire(100);   // 128B class
  auto large = pool.Acquire(2000);  // 2048B class
  Packet* raw_small = small.get();
  Packet* raw_large = large.get();
  small.reset();
  large.reset();

  // A 1500B request must skip the 128B buffer and take the 2048B one.
  auto q = pool.Acquire(1500);
  EXPECT_EQ(q.get(), raw_large);
  // And a 64B request reuses the small one (ceil bucket 64 <= cap 128? no:
  // ceil bucket of 64 is the 64B class, which is empty — the 128B buffer
  // stays put and a fresh packet is carved).
  auto r = pool.Acquire(64);
  EXPECT_NE(r.get(), raw_small);
  auto s = pool.Acquire(100);
  EXPECT_EQ(s.get(), raw_small);
}

TEST(PacketPoolTest, OversizeBuffersRecycleByFirstFit) {
  PacketPool pool;
  auto jumbo = pool.Acquire(PacketPool::kMaxBucketBytes + 1000);
  Packet* raw = jumbo.get();
  jumbo.reset();
  auto again = pool.Acquire(PacketPool::kMaxBucketBytes + 500);
  EXPECT_EQ(again.get(), raw);
  // Too big for the recycled jumbo: fresh allocation.
  auto bigger = pool.Acquire(PacketPool::kMaxBucketBytes + 100000);
  EXPECT_EQ(bigger->size(), PacketPool::kMaxBucketBytes + 100000);
}

TEST(PacketPoolTest, ExhaustionFallsBackToPlainAllocation) {
  PacketPool pool(/*max_free_per_bucket=*/2);
  std::vector<PacketPtr> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back(pool.Acquire(200));
  }
  held.clear();  // 5 releases into a bucket capped at 2
  EXPECT_EQ(pool.free_packets(), 2u);
  EXPECT_EQ(pool.counters().dropped, 3u);
  EXPECT_EQ(pool.counters().releases, 5u);
}

TEST(PacketPoolTest, AdoptTakesOwnershipOfBytes) {
  PacketPool pool;
  std::vector<uint8_t> bytes{1, 2, 3, 4};
  const uint8_t* data = bytes.data();
  auto p = pool.Adopt(std::move(bytes));
  ASSERT_EQ(p->size(), 4u);
  EXPECT_EQ(p->bytes().data(), data);  // moved, not copied
  EXPECT_EQ(p->bytes()[2], 3);
}

TEST(PacketPoolTest, CountersTrackOutstandingAndHighWater) {
  PacketPool pool;
  auto a = pool.Acquire(100);
  auto b = pool.Acquire(100);
  EXPECT_EQ(pool.counters().outstanding, 2u);
  EXPECT_EQ(pool.counters().high_water, 2u);
  a.reset();
  EXPECT_EQ(pool.counters().outstanding, 1u);
  EXPECT_EQ(pool.counters().high_water, 2u);
  b.reset();
  EXPECT_EQ(pool.counters().outstanding, 0u);
  EXPECT_DOUBLE_EQ(pool.counters().HitRate(), 0.0);
  auto c = pool.Acquire(100);
  EXPECT_DOUBLE_EQ(pool.counters().HitRate(), 1.0 / 3.0);
}

TEST(PacketPoolTest, MetadataResetOnReuse) {
  PacketPool pool;
  auto p = pool.Acquire(100);
  p->meta().created_at = 12345;
  p->meta().connection = 7;
  p.reset();
  auto q = pool.Acquire(100);
  EXPECT_EQ(q->meta().created_at, 0);
  EXPECT_EQ(q->meta().connection, 0u);
}

TEST(PacketPoolTest, ReleaseRoundTripsThroughRawPointer) {
  // The NIC/kernel frequently release() a PacketPtr into a scheduler lambda
  // and re-wrap it later; the deleter must still return it to its pool.
  PacketPool pool;
  auto p = pool.Acquire(100);
  Packet* raw = p.release();
  PacketPtr rewrapped(raw);
  rewrapped.reset();
  EXPECT_EQ(pool.free_packets(), 1u);
  EXPECT_EQ(pool.counters().outstanding, 0u);
}

// The checksums_valid() bit lets TX checksum offload skip builder output.
// Only the checksumming builders may set it; any writable view or pool
// recycle must clear it, or stale checksums would reach the wire.
TEST(PacketPoolTest, BuildersMarkChecksumsValid) {
  const FrameEndpoints ep{MacAddress::ForHost(1), MacAddress::ForHost(2),
                          Ipv4Address::FromOctets(10, 0, 0, 1),
                          Ipv4Address::FromOctets(10, 0, 0, 2)};
  const std::vector<uint8_t> payload(40, 0x5a);
  EXPECT_TRUE(BuildUdpPacket(ep, 1, 2, payload)->checksums_valid());
  EXPECT_TRUE(BuildTcpPacket(ep, 1, 2, 100, 0, TcpFlags::kAck, payload)
                  ->checksums_valid());
  EXPECT_TRUE(BuildIcmpEchoPacket(ep, IcmpType::kEchoRequest, 1, 1, payload)
                  ->checksums_valid());
  // Zero-copy frames carry no checksums until TX offload writes them.
  EXPECT_FALSE(AllocUdpPacket(ep, 1, 2, 40)->checksums_valid());
  EXPECT_FALSE(
      AllocTcpPacket(ep, 1, 2, 100, 0, TcpFlags::kAck, 40)->checksums_valid());
  EXPECT_FALSE(MakePacket(64)->checksums_valid());
  EXPECT_FALSE(Packet(std::vector<uint8_t>(64)).checksums_valid());
}

TEST(PacketPoolTest, MutableBytesClearsChecksumsValid) {
  const FrameEndpoints ep{MacAddress::ForHost(1), MacAddress::ForHost(2),
                          Ipv4Address::FromOctets(10, 0, 0, 1),
                          Ipv4Address::FromOctets(10, 0, 0, 2)};
  auto p = BuildUdpPacket(ep, 1, 2, std::vector<uint8_t>(40, 0x5a));
  ASSERT_TRUE(p->checksums_valid());
  p->mutable_bytes().back() ^= 0xff;
  EXPECT_FALSE(p->checksums_valid());
}

TEST(PacketPoolTest, ReacquireClearsChecksumsValid) {
  PacketPool pool;
  auto p = pool.Acquire(100);
  Packet* raw = p.get();
  p->MarkChecksumsValid();
  p.reset();
  auto q = pool.AcquireUninitialized(100);
  ASSERT_EQ(q.get(), raw);
  EXPECT_FALSE(q->checksums_valid());
  q->MarkChecksumsValid();
  q.reset();
  auto r = pool.Acquire(100);
  ASSERT_EQ(r.get(), raw);
  EXPECT_FALSE(r->checksums_valid());

  // Adopt recycles a shell from the smallest bucket.
  auto small = pool.Acquire(32);
  Packet* small_raw = small.get();
  small->MarkChecksumsValid();
  small.reset();
  auto adopted = pool.Adopt(std::vector<uint8_t>(32));
  ASSERT_EQ(adopted.get(), small_raw);
  EXPECT_FALSE(adopted->checksums_valid());
}

TEST(PacketPoolTest, DefaultPoolBacksMakePacket) {
  const auto before = PacketPool::Default().counters().acquisitions();
  auto p = MakePacket(64);
  auto q = MakePacket(std::vector<uint8_t>{1, 2, 3});
  EXPECT_EQ(PacketPool::Default().counters().acquisitions(), before + 2);
}

}  // namespace
}  // namespace norman::net
