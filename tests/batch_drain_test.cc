// Batched drains must be invisible to accounting and delivery semantics.
//
// Three layers get their semantics pinned here:
//  * drop accounting — the owner-annotated ledger accounts for every drop
//    exactly once, under a reason;
//  * the kernel's bulk notification drain (NotificationQueue::PollN) — FIFO
//    order, lossy-overflow semantics, and interrupt re-arm unchanged;
//  * the socket bulk receive lane (Socket::RecvFrames) — same frames, same
//    order, same stats as draining one RecvFrame at a time.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/nic/notification.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// ---- Drop-ledger exactness ------------------------------------------------

struct DropSnapshot {
  std::vector<nic::NicStats::DropRecord> ledger;
  uint64_t total = 0;
};

// A world built to drop from several reasons at once: a TX filter deny,
// unmatched RX traffic, and normal accepted traffic interleaved.
DropSnapshot RunDroppyWorld() {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  EXPECT_TRUE(tools::IptablesAppend(&k, kernel::kRootUid,
                                    "-A OUTPUT -p udp --dport 9 -j DROP")
                  .ok());

  auto good = Socket::Connect(&k, pid, kPeerIp, 6000, {});
  auto bad = Socket::Connect(&k, pid, kPeerIp, 9, {});
  EXPECT_TRUE(good.ok());
  EXPECT_TRUE(bad.ok());
  const std::vector<uint8_t> payload(96, 0x5a);
  // Burst several sends back-to-back before running so the NIC's TX fetch
  // loop actually processes multi-packet bursts (the case under test).
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(good->Send(payload).ok());
      EXPECT_TRUE(bad->Send(payload).ok());
    }
    bed.sim().Run();
  }
  // Unmatched RX frames (no registered connection → host slow path, some
  // dropped as unparseable).
  Nanos t = bed.sim().Now();
  for (int i = 0; i < 5; ++i) {
    bed.InjectUdpFromPeer(1234, 4321, 64, t += kMicrosecond);
  }
  bed.InjectFromNetwork(net::MakePacket(std::vector<uint8_t>(6, 0xee)),
                        t += kMicrosecond);
  bed.sim().Run();

  DropSnapshot snap;
  const auto& s = bed.nic().stats();
  snap.ledger = s.DropLedger();
  snap.total = s.total_drops();
  return snap;
}

// Per-burst accumulation covers *volume* counters only; RecordDrop writes
// the reason counters and the owner ledger immediately, so drop totals are
// exact — never sampled, never burst-granular — and every ledger row
// carries a reason.
TEST(BatchDrainTest, DropLedgerExactlyEqualBatchOnVsOff) {
  const DropSnapshot snap = RunDroppyWorld();
  EXPECT_GT(snap.total, 0u) << "scenario stopped generating drops";
  uint64_t sum = 0;
  for (const auto& rec : snap.ledger) {
    EXPECT_NE(rec.reason, DropReason::kNone);
    sum += rec.count;
  }
  EXPECT_EQ(sum, snap.total);
}

// ---- Bulk notification drain ----------------------------------------------

TEST(BatchDrainTest, NotificationPollNPreservesFifoAndShortCount) {
  nic::NotificationQueue q(8);
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Post({nic::NotificationKind::kRxData,
                        static_cast<net::ConnectionId>(i + 1),
                        static_cast<Nanos>(i * 10)}));
  }
  std::array<nic::Notification, 3> burst;
  EXPECT_EQ(q.PollN(std::span<nic::Notification>(burst)), 3u);
  EXPECT_EQ(burst[0].conn_id, 1u);
  EXPECT_EQ(burst[2].conn_id, 3u);
  EXPECT_EQ(q.size(), 2u);
  // Short count == queue drained; a follow-up PollN sees nothing.
  EXPECT_EQ(q.PollN(std::span<nic::Notification>(burst)), 2u);
  EXPECT_EQ(burst[0].conn_id, 4u);
  EXPECT_EQ(burst[1].conn_id, 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.PollN(std::span<nic::Notification>(burst)), 0u);
}

TEST(BatchDrainTest, NotificationPollNInteroperatesWithScalarPoll) {
  nic::NotificationQueue q(8);
  for (uint32_t i = 0; i < 4; ++i) {
    q.Post({nic::NotificationKind::kTxDrained,
            static_cast<net::ConnectionId>(i + 10), 0});
  }
  EXPECT_EQ(q.Poll()->conn_id, 10u);
  std::array<nic::Notification, 8> burst;
  EXPECT_EQ(q.PollN(std::span<nic::Notification>(burst)), 3u);
  EXPECT_EQ(burst[0].conn_id, 11u);
  EXPECT_EQ(burst[2].conn_id, 13u);
}

// Blocking receives ride the notification queue; the kernel drains it in
// PollN bursts. End-to-end: every blocked reader wakes.
TEST(BatchDrainTest, BlockingRecvWakesUnderBatchedNotifyDrain) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::ConnectOptions copts;
  copts.notify_rx = true;
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7000, copts);
  ASSERT_TRUE(sock.ok());

  int delivered = 0;
  ASSERT_TRUE(sock->RecvBlocking([&](std::vector<uint8_t> data) {
                  ++delivered;
                  EXPECT_EQ(data.size(), 48u);
                }).ok());
  ASSERT_TRUE(sock->Send(std::vector<uint8_t>(48, 0xaa)).ok());
  bed.sim().Run();
  EXPECT_EQ(delivered, 1);
}

// ---- Socket bulk receive ---------------------------------------------------

TEST(BatchDrainTest, RecvFramesMatchesScalarRecvFrame) {
  // Two identical worlds, same traffic; one drains with RecvFrame, the
  // other with one RecvFrames burst. Same frames, same order, same stats.
  auto run = [](bool bulk) {
    workload::TestBedOptions opts;
    opts.echo = true;
    workload::TestBed bed(opts);
    auto& k = bed.kernel();
    k.processes().AddUser(1, "u");
    const auto pid = *k.processes().Spawn(1, "app");
    auto sock = Socket::Connect(&k, pid, kPeerIp, 7000, {});
    EXPECT_TRUE(sock.ok());
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(sock->Send(std::vector<uint8_t>(32 + i, 0xbb)).ok());
    }
    bed.sim().Run();

    std::vector<size_t> sizes;
    if (bulk) {
      std::array<net::PacketPtr, 16> burst;
      const size_t n = sock->RecvFrames(std::span<net::PacketPtr>(burst));
      for (size_t i = 0; i < n; ++i) {
        sizes.push_back(burst[i]->size());
      }
      // Short count means empty: nothing more to receive.
      EXPECT_LT(n, burst.size());
      EXPECT_EQ(sock->RecvFrames(std::span<net::PacketPtr>(burst)), 0u);
    } else {
      while (net::PacketPtr p = sock->RecvFrame()) {
        sizes.push_back(p->size());
      }
    }
    return std::make_tuple(sizes, sock->stats().rx_packets,
                           sock->stats().rx_bytes);
  };
  const auto scalar = run(false);
  const auto bulk = run(true);
  EXPECT_EQ(std::get<0>(scalar).size(), 6u);
  EXPECT_EQ(bulk, scalar);
}

TEST(BatchDrainTest, RecvFramesRespectsSpanCapacity) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7000, {});
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sock->Send(std::vector<uint8_t>(64, 0xcc)).ok());
  }
  bed.sim().Run();

  std::array<net::PacketPtr, 2> burst;
  EXPECT_EQ(sock->RecvFrames(std::span<net::PacketPtr>(burst)), 2u);
  EXPECT_EQ(sock->RecvFrames(std::span<net::PacketPtr>(burst)), 2u);
  EXPECT_EQ(sock->RecvFrames(std::span<net::PacketPtr>(burst)), 1u);
  EXPECT_EQ(sock->RecvFrames(std::span<net::PacketPtr>(burst)), 0u);
  EXPECT_EQ(sock->stats().rx_packets, 5u);
}

}  // namespace
}  // namespace norman
