#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace norman::sim {
namespace {

TEST(SimulatorTest, StartsAtZeroIdle) {
  Simulator s;
  EXPECT_EQ(s.Now(), 0);
  EXPECT_TRUE(s.Idle());
  EXPECT_FALSE(s.Step());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(5, [&] { order.push_back(1); });
  s.ScheduleAt(5, [&] { order.push_back(2); });
  s.ScheduleAt(5, [&] { order.push_back(3); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      s.ScheduleAfter(10, chain);
    }
  };
  s.ScheduleAfter(10, chain);
  s.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.Now(), 50);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(100, [&] { ++fired; });
  s.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 50);       // advanced to deadline
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesTimeWhenQueueEmpty) {
  Simulator s;
  s.RunUntil(1000);
  EXPECT_EQ(s.Now(), 1000);
}

TEST(SimulatorTest, ScheduleAtBoundaryIncluded) {
  Simulator s;
  bool fired = false;
  s.ScheduleAt(50, [&] { fired = true; });
  s.RunUntil(50);
  EXPECT_TRUE(fired);
}

TEST(SimulatorDeathTest, SchedulingInPastAborts) {
  Simulator s;
  s.ScheduleAt(100, [] {});
  s.Run();
  EXPECT_DEATH(s.ScheduleAt(50, [] {}), "cannot schedule into the past");
}

TEST(SimulatorTest, ZeroDelaySelfScheduleMakesProgress) {
  Simulator s;
  int count = 0;
  std::function<void()> f = [&] {
    if (++count < 100) {
      s.ScheduleAfter(0, f);
    }
  };
  s.ScheduleAfter(0, f);
  s.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.Now(), 0);
}


TEST(SimulatorTest, EventNodesRecycleThroughFreeList) {
  Simulator s;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      s.ScheduleAfter(i + 1, [] {});
    }
    s.Run();
  }
  const auto& pool = s.event_pool();
  EXPECT_EQ(pool.acquisitions(), 40u);
  // The first round carves fresh slab nodes; later rounds reuse them.
  EXPECT_GE(pool.hits, 30u);
  EXPECT_EQ(pool.outstanding, 0u);
  EXPECT_LE(pool.high_water, 10u);
}

TEST(SimulatorTest, HasEventAtOrBefore) {
  Simulator s;
  EXPECT_FALSE(s.HasEventAtOrBefore(1000));
  s.ScheduleAt(500, [] {});
  EXPECT_TRUE(s.HasEventAtOrBefore(500));
  EXPECT_TRUE(s.HasEventAtOrBefore(1000));
  EXPECT_FALSE(s.HasEventAtOrBefore(499));
  s.Run();
  EXPECT_FALSE(s.HasEventAtOrBefore(1000));
}

TEST(SimulatorTest, SameTimeEventScheduledInCallbackRunsAfterSiblings) {
  // An event scheduled at the current time from inside a callback gets a
  // higher seq than every event already queued for that time, so it runs
  // after them.
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(10, [&] {
    order.push_back(1);
    s.ScheduleAt(10, [&] { order.push_back(9); });
  });
  s.ScheduleAt(10, [&] { order.push_back(2); });
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.pending_events(), 2u);
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
  EXPECT_EQ(s.Now(), 10);
}

TEST(SimulatorTest, QueueObserversCountQueuedSameTimeSiblings) {
  // While one event at t=10 runs, its same-time sibling is still queued:
  // Idle/pending_events/HasEventAtOrBefore count it (the SmartNic TX fetch
  // and the kernel's interrupt re-arm probe the queue from callbacks).
  Simulator s;
  bool sibling_visible = false;
  size_t pending_seen = 0;
  bool idle_seen = true;
  s.ScheduleAt(10, [&] {
    sibling_visible = s.HasEventAtOrBefore(10);
    pending_seen = s.pending_events();
    idle_seen = s.Idle();
  });
  s.ScheduleAt(10, [] {});
  s.Run();
  EXPECT_TRUE(sibling_visible);
  EXPECT_EQ(pending_seen, 1u);
  EXPECT_FALSE(idle_seen);
  // After the run everything has drained.
  EXPECT_TRUE(s.Idle());
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.HasEventAtOrBefore(1'000'000));
}

TEST(SimulatorTest, RunUntilDeadlineBetweenHorizons) {
  // Deadline falls between two event timestamps: the t=10 pair runs, the
  // t=100 pair stays queued, and Now() lands exactly on the deadline.
  Simulator s;
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(100, [&] { ++fired; });
  s.ScheduleAt(100, [&] { ++fired; });
  s.RunUntil(50);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.Now(), 50);
  EXPECT_EQ(s.pending_events(), 2u);
  s.Run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(s.Now(), 100);
}

TEST(SimulatorTest, RunUntilLeavesEventsScheduledPastDeadlineQueued) {
  // A callback before the deadline schedules work beyond it; RunUntil
  // leaves that work queued.
  Simulator s;
  bool late_ran = false;
  s.ScheduleAt(10, [&] { s.ScheduleAt(60, [&] { late_ran = true; }); });
  s.ScheduleAt(10, [] {});
  s.RunUntil(50);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.Now(), 50);
  s.Run();
  EXPECT_TRUE(late_ran);
}

TEST(InlineCallbackTest, SmallLambdaStaysInline) {
  int x = 0;
  InlineCallback cb([&x] { ++x; });
  EXPECT_FALSE(cb.heap_allocated());
  cb();
  EXPECT_EQ(x, 1);
}

TEST(InlineCallbackTest, LargeCaptureFallsBackToHeap) {
  std::array<uint64_t, 16> big{};
  big[15] = 7;
  int out = 0;
  InlineCallback cb([big, &out] { out = static_cast<int>(big[15]); });
  EXPECT_TRUE(cb.heap_allocated());
  cb();
  EXPECT_EQ(out, 7);
}

TEST(InlineCallbackTest, MoveTransfersOwnership) {
  int x = 0;
  InlineCallback a([&x] { ++x; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(x, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(x, 2);
}

TEST(InlineCallbackTest, MoveOnlyCaptureWorks) {
  auto ptr = std::make_unique<int>(41);
  InlineCallback cb([p = std::move(ptr)] { ++*p; });
  cb();  // no observable effect, but must not crash or leak (ASan checks)
}

}  // namespace
}  // namespace norman::sim
