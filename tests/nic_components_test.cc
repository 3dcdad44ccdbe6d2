// Unit tests for SRAM accounting, flow table, RSS, MMIO privilege windows,
// and notification queues.
#include <gtest/gtest.h>

#include "src/nic/flow_table.h"
#include "src/nic/mmio.h"
#include "src/nic/notification.h"
#include "src/nic/rss.h"
#include "src/nic/sram.h"

namespace norman::nic {
namespace {

using net::FiveTuple;
using net::IpProto;
using net::Ipv4Address;

// --- SRAM ---

TEST(SramTest, AllocateAndFree) {
  SramAllocator sram(1000);
  EXPECT_TRUE(sram.Allocate("a", 400).ok());
  EXPECT_TRUE(sram.Allocate("b", 600).ok());
  EXPECT_EQ(sram.available(), 0u);
  EXPECT_FALSE(sram.Allocate("c", 1).ok());
  sram.Free("a", 400);
  EXPECT_EQ(sram.available(), 400u);
  EXPECT_EQ(sram.UsedBy("a"), 0u);
  EXPECT_EQ(sram.UsedBy("b"), 600u);
}

TEST(SramTest, ExhaustionReturnsResourceExhausted) {
  SramAllocator sram(100);
  const Status s = sram.Allocate("x", 200);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(SramTest, SloppyFreeIsSafe) {
  SramAllocator sram(100);
  sram.Free("never_allocated", 50);
  EXPECT_EQ(sram.used(), 0u);
  ASSERT_TRUE(sram.Allocate("a", 10).ok());
  sram.Free("a", 99);  // more than allocated: ignored
  EXPECT_EQ(sram.UsedBy("a"), 10u);
}

// --- FlowTable ---

FlowEntry MakeEntry(uint32_t conn, uint16_t src_port, uint32_t uid = 1000) {
  FlowEntry e;
  e.conn_id = conn;
  e.tuple = FiveTuple{Ipv4Address::FromOctets(10, 0, 0, 1),
                      Ipv4Address::FromOctets(10, 0, 0, 2), src_port, 80,
                      IpProto::kTcp};
  e.owner = overlay::ConnMetadata{conn, uid, 100 + conn, 1};
  return e;
}

TEST(FlowTableTest, InsertLookupRemove) {
  SramAllocator sram(1 * kMiB);
  FlowTable table(&sram);
  ASSERT_TRUE(table.Insert(MakeEntry(1, 1111)).ok());
  ASSERT_TRUE(table.Insert(MakeEntry(2, 2222)).ok());
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(sram.UsedBy("flow_table"), 2 * kFlowEntryBytes);

  FlowEntry* e = table.Lookup(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->tuple.src_port, 1111);
  EXPECT_EQ(e->owner.owner_uid, 1000u);

  ASSERT_TRUE(table.Remove(1).ok());
  EXPECT_EQ(table.Lookup(1), nullptr);
  EXPECT_EQ(sram.UsedBy("flow_table"), kFlowEntryBytes);
}

TEST(FlowTableTest, RejectsDuplicates) {
  SramAllocator sram(1 * kMiB);
  FlowTable table(&sram);
  ASSERT_TRUE(table.Insert(MakeEntry(1, 1111)).ok());
  EXPECT_EQ(table.Insert(MakeEntry(1, 9999)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.Insert(MakeEntry(3, 1111)).status().code(),
            StatusCode::kAlreadyExists);  // same tuple
}

TEST(FlowTableTest, RejectsReservedConnId) {
  SramAllocator sram(1 * kMiB);
  FlowTable table(&sram);
  EXPECT_EQ(table.Insert(MakeEntry(0, 1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlowTableTest, SramExhaustionPropagates) {
  SramAllocator sram(kFlowEntryBytes * 2);
  FlowTable table(&sram);
  ASSERT_TRUE(table.Insert(MakeEntry(1, 1)).ok());
  ASSERT_TRUE(table.Insert(MakeEntry(2, 2)).ok());
  EXPECT_EQ(table.Insert(MakeEntry(3, 3)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(FlowTableTest, InboundTupleLookupUsesReversedTuple) {
  SramAllocator sram(1 * kMiB);
  FlowTable table(&sram);
  ASSERT_TRUE(table.Insert(MakeEntry(1, 5555)).ok());
  // Inbound packet: remote (10.0.0.2:80) -> local (10.0.0.1:5555).
  FiveTuple inbound{Ipv4Address::FromOctets(10, 0, 0, 2),
                    Ipv4Address::FromOctets(10, 0, 0, 1), 80, 5555,
                    IpProto::kTcp};
  FlowEntry* e = table.LookupByInboundTuple(inbound);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->conn_id, 1u);
  // The TX direction tuple must NOT match as inbound.
  EXPECT_EQ(table.LookupByInboundTuple(e->tuple), nullptr);
}

TEST(FlowTableTest, RemoveUnknownFails) {
  SramAllocator sram(1 * kMiB);
  FlowTable table(&sram);
  EXPECT_EQ(table.Remove(42).status().code(), StatusCode::kNotFound);
}

// --- RSS ---

TEST(RssTest, SteeringIsDeterministicAndInRange) {
  RssEngine rss(8);
  FiveTuple t{Ipv4Address::FromOctets(1, 2, 3, 4),
              Ipv4Address::FromOctets(5, 6, 7, 8), 1000, 2000, IpProto::kUdp};
  const uint16_t q = rss.Steer(t);
  EXPECT_LT(q, 8);
  EXPECT_EQ(rss.Steer(t), q);  // stable
}

TEST(RssTest, DifferentFlowsSpreadAcrossQueues) {
  RssEngine rss(8);
  std::array<int, 8> counts{};
  for (uint16_t port = 1000; port < 2000; ++port) {
    FiveTuple t{Ipv4Address::FromOctets(1, 2, 3, 4),
                Ipv4Address::FromOctets(5, 6, 7, 8), port, 80, IpProto::kTcp};
    counts[rss.Steer(t)]++;
  }
  for (int q = 0; q < 8; ++q) {
    EXPECT_GT(counts[q], 1000 / 8 / 4) << "queue " << q << " starved";
  }
}

TEST(RssTest, SeedChangesMapping) {
  RssEngine a(8, /*seed=*/1), b(8, /*seed=*/2);
  int diffs = 0;
  for (uint16_t port = 0; port < 200; ++port) {
    FiveTuple t{Ipv4Address::FromOctets(9, 9, 9, 9),
                Ipv4Address::FromOctets(8, 8, 8, 8), port, 443,
                IpProto::kTcp};
    if (a.Steer(t) != b.Steer(t)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 50);
}

TEST(RssTest, CustomIndirectionOverrides) {
  RssEngine rss(4);
  // Pin every indirection slot to queue 3 — "virtual interface" carve-out.
  for (size_t i = 0; i < RssEngine::kIndirectionEntries; ++i) {
    ASSERT_TRUE(rss.SetIndirection(i, 3).ok());
  }
  FiveTuple t{Ipv4Address::FromOctets(1, 1, 1, 1),
              Ipv4Address::FromOctets(2, 2, 2, 2), 5, 6, IpProto::kUdp};
  EXPECT_EQ(rss.Steer(t), 3);
}

TEST(RssTest, SetIndirectionRejectsOutOfRange) {
  RssEngine rss(4);
  // A queue the device doesn't have: must be an explicit error, not a
  // silent queue%num_queues remap that steers traffic somewhere unintended.
  const Status bad_queue = rss.SetIndirection(0, 4);
  EXPECT_EQ(bad_queue.code(), StatusCode::kInvalidArgument);
  const Status bad_index =
      rss.SetIndirection(RssEngine::kIndirectionEntries, 0);
  EXPECT_EQ(bad_index.code(), StatusCode::kInvalidArgument);
  // The failed writes left the table untouched.
  EXPECT_EQ(rss.indirection(0), 0);
}

TEST(RssTest, ZeroQueuesClampsToOne) {
  RssEngine rss(0);
  EXPECT_EQ(rss.num_queues(), 1);
}

// --- MMIO privilege ---

TEST(MmioTest, PrivilegedSeesEverything) {
  RegisterFile regs;
  PrivilegedMmio priv(&regs);
  priv.Write(0x0, 123);
  priv.Write(DoorbellAddr(7, kRegTxHead), 45);
  EXPECT_EQ(priv.Read(0x0), 123u);
  EXPECT_EQ(priv.Read(DoorbellAddr(7, kRegTxHead)), 45u);
}

TEST(MmioTest, DoorbellWindowConfinedToItsConnection) {
  RegisterFile regs;
  PrivilegedMmio priv(&regs);
  DoorbellWindow win(&regs, /*conn_id=*/3);

  ASSERT_TRUE(win.Write(kRegTxHead, 10).ok());
  EXPECT_EQ(priv.Read(DoorbellAddr(3, kRegTxHead)), 10u);

  // Registers beyond the 4-word window fault.
  EXPECT_EQ(win.Write(4, 1).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(win.Read(99).status().code(), StatusCode::kPermissionDenied);
}

TEST(MmioTest, WindowsForDifferentConnectionsDoNotAlias) {
  RegisterFile regs;
  DoorbellWindow w3(&regs, 3), w4(&regs, 4);
  ASSERT_TRUE(w3.Write(kRegTxHead, 100).ok());
  ASSERT_TRUE(w4.Write(kRegTxHead, 200).ok());
  EXPECT_EQ(*w3.Read(kRegTxHead), 100u);
  EXPECT_EQ(*w4.Read(kRegTxHead), 200u);
}

TEST(MmioTest, UnmappedWindowFaults) {
  DoorbellWindow win;
  EXPECT_FALSE(win.valid());
  EXPECT_EQ(win.Write(kRegTxHead, 1).code(), StatusCode::kPermissionDenied);
}

TEST(MmioTest, AccessCountersTrackTraffic) {
  RegisterFile regs;
  PrivilegedMmio priv(&regs);
  priv.Write(1, 1);
  priv.Write(2, 2);
  priv.Read(1);
  EXPECT_EQ(regs.write_count(), 2u);
  EXPECT_EQ(regs.read_count(), 1u);
}

// --- Notification queues ---

TEST(NotificationTest, PostAndPoll) {
  NotificationQueue q(8);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.Post({NotificationKind::kRxData, 5, 100}));
  EXPECT_TRUE(q.Post({NotificationKind::kTxDrained, 6, 200}));
  auto n1 = q.Poll();
  ASSERT_TRUE(n1.has_value());
  EXPECT_EQ(n1->kind, NotificationKind::kRxData);
  EXPECT_EQ(n1->conn_id, 5u);
  EXPECT_EQ(n1->timestamp, 100);
  auto n2 = q.Poll();
  ASSERT_TRUE(n2.has_value());
  EXPECT_EQ(n2->conn_id, 6u);
  EXPECT_FALSE(q.Poll().has_value());
}

TEST(NotificationTest, OverflowCountsAndDrops) {
  NotificationQueue q(2);
  EXPECT_TRUE(q.Post({NotificationKind::kRxData, 1, 0}));
  EXPECT_TRUE(q.Post({NotificationKind::kRxData, 2, 0}));
  EXPECT_FALSE(q.Post({NotificationKind::kRxData, 3, 0}));
  EXPECT_EQ(q.overflows(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(NotificationTest, InterruptFiresOnceThenDisarms) {
  NotificationQueue q(8);
  int fired = 0;
  q.ArmInterrupt([&fired] { ++fired; });
  EXPECT_TRUE(q.interrupts_armed());
  q.Post({NotificationKind::kRxData, 1, 0});
  q.Post({NotificationKind::kRxData, 2, 0});
  EXPECT_EQ(fired, 1);  // one-shot
  EXPECT_FALSE(q.interrupts_armed());
  q.ArmInterrupt([&fired] { ++fired; });
  q.Post({NotificationKind::kRxData, 3, 0});
  EXPECT_EQ(fired, 2);
}

TEST(NotificationTest, DisarmSuppressesInterrupt) {
  NotificationQueue q(8);
  int fired = 0;
  q.ArmInterrupt([&fired] { ++fired; });
  q.DisarmInterrupt();
  q.Post({NotificationKind::kRxData, 1, 0});
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace norman::nic
