#include "src/common/fixed_ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"

namespace norman {
namespace {

TEST(FixedRingTest, StartsEmpty) {
  FixedRing<int> r(8);
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.full());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(r.TryPop(), std::nullopt);
  EXPECT_EQ(r.Peek(), nullptr);
}

TEST(FixedRingTest, FifoOrder) {
  FixedRing<int> r(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(r.TryPush(i));
  }
  EXPECT_TRUE(r.full());
  EXPECT_FALSE(r.TryPush(99));
  for (int i = 0; i < 4; ++i) {
    auto v = r.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(r.empty());
}

TEST(FixedRingTest, PeekDoesNotConsume) {
  FixedRing<int> r(4);
  r.TryPush(7);
  ASSERT_NE(r.Peek(), nullptr);
  EXPECT_EQ(*r.Peek(), 7);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(*r.TryPop(), 7);
}

TEST(FixedRingTest, WrapsAroundManyTimes) {
  FixedRing<uint32_t> r(8);
  uint32_t next_push = 0, next_pop = 0;
  Rng rng(1);
  for (int step = 0; step < 100000; ++step) {
    if (rng.NextBool(0.55) && !r.full()) {
      EXPECT_TRUE(r.TryPush(next_push++));
    } else if (!r.empty()) {
      auto v = r.TryPop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
    EXPECT_EQ(r.size(), next_push - next_pop);
    EXPECT_LE(r.size(), r.capacity());
  }
}

TEST(FixedRingTest, FreeRunningCountersWrapAt32Bits) {
  // Push/pop enough that head approaches wrap; the discipline must survive
  // uint32 overflow. Simulate by many cycles on a tiny ring.
  FixedRing<int> r(2);
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(r.TryPush(1));
    EXPECT_TRUE(r.TryPush(2));
    EXPECT_TRUE(r.full());
    EXPECT_EQ(*r.TryPop(), 1);
    EXPECT_EQ(*r.TryPop(), 2);
  }
  EXPECT_EQ(r.head(), 2000u);
  EXPECT_EQ(r.tail(), 2000u);
}

TEST(FixedRingTest, GaugesFollowEveryPushAndPop) {
  telemetry::MetricsRegistry registry;
  telemetry::QueueDepthGauges gauges(&registry, "test.ring");
  {
    FixedRing<int> r(4);
    r.AttachGauges(&gauges);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(r.TryPush(i));
      EXPECT_EQ(gauges.depth(), i + 1);
    }
    EXPECT_FALSE(r.TryPush(99));  // refused: no change
    EXPECT_EQ(gauges.depth(), 4);
    ASSERT_TRUE(r.TryPop().has_value());
    EXPECT_EQ(gauges.depth(), 3);
    std::vector<int> out(2);
    EXPECT_EQ(r.PopN(std::span<int>(out)), 2u);
    EXPECT_EQ(gauges.depth(), 1);
    // Draining never lowers the latched high water.
    EXPECT_EQ(gauges.high_water(), 4);
    ASSERT_TRUE(r.TryPush(5));
    EXPECT_EQ(gauges.depth(), 2);
  }
  // Destroyed with two occupants: the depth settles to zero.
  EXPECT_EQ(gauges.depth(), 0);
  EXPECT_EQ(gauges.high_water(), 4);
}

TEST(FixedRingTest, RingsSharingGaugesAggregate) {
  telemetry::MetricsRegistry registry;
  telemetry::QueueDepthGauges gauges(&registry, "test.rings");
  FixedRing<int> a(4);
  a.AttachGauges(&gauges);
  ASSERT_TRUE(a.TryPush(1));
  {
    FixedRing<int> b(4);
    b.AttachGauges(&gauges);
    ASSERT_TRUE(b.TryPush(2));
    ASSERT_TRUE(b.TryPush(3));
    EXPECT_EQ(gauges.depth(), 3);
  }
  EXPECT_EQ(gauges.depth(), 1);  // only `b`'s occupants left with it
  EXPECT_EQ(gauges.high_water(), 3);
}

TEST(FixedRingTest, MoveOnlyPayload) {
  FixedRing<std::unique_ptr<int>> r(2);
  EXPECT_TRUE(r.TryPush(std::make_unique<int>(3)));
  auto v = r.TryPop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 3);
}

TEST(FixedRingBulkTest, PopNPartialAndEmpty) {
  FixedRing<int> r(4);
  std::vector<int> out(4, -1);
  EXPECT_EQ(r.PopN(std::span<int>(out)), 0u);
  r.TryPush(7);
  r.TryPush(8);
  EXPECT_EQ(r.PopN(std::span<int>(out)), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  EXPECT_EQ(out[2], -1);
}

TEST(FixedRingBulkTest, EmptySpansAreNoOps) {
  FixedRing<int> r(4);
  r.TryPush(1);
  EXPECT_EQ(r.PopN(std::span<int>()), 0u);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(*r.TryPop(), 1);
}

TEST(FixedRingBulkTest, BulkWrapAroundManyTimes) {
  // Scalar pushes against bulk pops across thousands of wraps: FIFO order
  // and occupancy must match a free-running model exactly.
  FixedRing<uint32_t> r(8);
  uint32_t next_push = 0, next_pop = 0;
  Rng rng(2);
  std::vector<uint32_t> buf(8);
  for (int step = 0; step < 50000; ++step) {
    const uint32_t n = static_cast<uint32_t>(rng.NextInRange(1, 6));
    if (rng.NextBool(0.55)) {
      const uint32_t room = 8u - (next_push - next_pop);
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(r.TryPush(next_push), i < room);
        if (i < room) ++next_push;
      }
    } else {
      buf.assign(n, 0xdeadbeef);
      const uint32_t popped = r.PopN(std::span<uint32_t>(buf));
      EXPECT_EQ(popped, std::min(n, next_push - next_pop));
      for (uint32_t i = 0; i < popped; ++i) {
        EXPECT_EQ(buf[i], next_pop + i);
      }
      next_pop += popped;
    }
    EXPECT_EQ(r.size(), next_push - next_pop);
  }
}

TEST(FixedRingBulkTest, PopNMovesOutOfRing) {
  FixedRing<std::unique_ptr<int>> r(4);
  ASSERT_TRUE(r.TryPush(std::make_unique<int>(1)));
  ASSERT_TRUE(r.TryPush(std::make_unique<int>(2)));
  std::vector<std::unique_ptr<int>> out(2);
  EXPECT_EQ(r.PopN(std::span<std::unique_ptr<int>>(out)), 2u);
  ASSERT_NE(out[0], nullptr);
  ASSERT_NE(out[1], nullptr);
  EXPECT_EQ(*out[0], 1);
  EXPECT_EQ(*out[1], 2);
  EXPECT_TRUE(r.empty());
  // The ring owns nothing after the move: refilling reuses the slots.
  ASSERT_TRUE(r.TryPush(std::make_unique<int>(3)));
  std::vector<std::unique_ptr<int>> again(1);
  EXPECT_EQ(r.PopN(std::span<std::unique_ptr<int>>(again)), 1u);
  EXPECT_EQ(*again[0], 3);
}

}  // namespace
}  // namespace norman
