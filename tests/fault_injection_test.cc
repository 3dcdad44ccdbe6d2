// Chaos suite: the deterministic wire fault plane end to end.
//
// ReliableChannel runs over a DuplexTestBed whose wire is a seeded
// FaultInjector; each single fault mode and a combined chaos profile must
// still yield exactly-once, in-order delivery, with every injected fault
// itemized in FaultStats / fault.* metrics. Fixed seeds replay
// byte-identically. A link that stays dark past max_retries fails the
// channel with a clean Status (no hang), and Resync() recovers it once the
// link returns. NIC-side faults (SRAM pressure, notification stall) are
// driven through the control plane.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/norman/listener.h"
#include "src/norman/reliable.h"
#include "src/sim/fault.h"
#include "src/workload/duplex.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using workload::DuplexTestBed;

// FaultStats as a comparable tuple (field order matches the struct).
std::array<uint64_t, 8> Ledger(const sim::FaultStats& s) {
  return {s.transmitted, s.delivered,   s.lost,     s.duplicated,
          s.corrupted,   s.reordered,   s.jittered, s.dropped_link_down};
}

std::array<uint64_t, 10> Ledger(const ReliableStats& s) {
  return {s.messages_sent,       s.segments_transmitted,
          s.retransmissions,     s.acks_sent,
          s.duplicates_discarded, s.out_of_order_buffered,
          s.messages_delivered,  s.rto_expirations,
          s.rto_backoffs,        s.resyncs};
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  // Connects client/server over a clean wire, then installs `profile`
  // symmetrically on both directions — faults never hit connection setup.
  void BuildWorld(const sim::FaultProfile& profile, uint64_t seed = 0x5eed) {
    workload::DuplexOptions opts;
    opts.fault_seed = seed;
    bed_ = std::make_unique<DuplexTestBed>(opts);
    bed_->a().kernel->processes().AddUser(1, "a");
    bed_->b().kernel->processes().AddUser(2, "b");
    const auto pid_a = *bed_->a().kernel->processes().Spawn(1, "client");
    const auto pid_b = *bed_->b().kernel->processes().Spawn(2, "server");

    kernel::ConnectOptions copts;
    copts.notify_rx = true;
    auto listener = Listener::Create(bed_->b().kernel.get(), pid_b, 4500,
                                     net::IpProto::kUdp, copts);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::make_unique<Listener>(std::move(listener).value());
    auto client = Socket::Connect(bed_->a().kernel.get(), pid_a, bed_->ip_b(),
                                  4500, copts);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Send(std::vector<uint8_t>{0xff, 0, 0, 0, 0}).ok());
    bed_->sim().Run();
    auto server = listener_->Accept();
    ASSERT_TRUE(server.ok()) << server.status();
    while (server->RecvFrame() != nullptr) {
    }
    client_ = std::make_unique<Socket>(std::move(*client));
    server_ = std::make_unique<Socket>(std::move(*server));

    bed_->fault().SetProfile(DuplexTestBed::kLinkAtoB, profile);
    bed_->fault().SetProfile(DuplexTestBed::kLinkBtoA, profile);
  }

  // Pushes `count` numbered messages through a fresh channel pair and
  // asserts exactly-once, in-order delivery against the transmit log.
  void RunExactlyOnce(int count, Nanos deadline = 10'000 * kMillisecond) {
    ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(), client_.get());
    ReliableChannel rx(&bed_->sim(), bed_->b().kernel.get(), server_.get());
    std::vector<int> delivered;
    rx.SetMessageHandler([&](std::vector<uint8_t> m) {
      delivered.push_back(std::stoi(std::string(m.begin(), m.end())));
    });
    ASSERT_TRUE(tx.Start().ok());
    ASSERT_TRUE(rx.Start().ok());
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(tx.Send(std::to_string(i)).ok());
    }
    bed_->sim().RunUntil(deadline);

    ASSERT_EQ(delivered.size(), static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(delivered[i], i) << "order violated at " << i;
    }
    // The transmit log accounts for every wire transmission: nothing
    // delivered that was not sent, nothing sent more often than logged.
    EXPECT_EQ(tx.stats().messages_sent, static_cast<uint64_t>(count));
    EXPECT_EQ(rx.stats().messages_delivered, static_cast<uint64_t>(count));
    EXPECT_EQ(tx.stats().segments_transmitted,
              tx.stats().messages_sent + tx.stats().retransmissions);
    EXPECT_FALSE(tx.failed());
    tx_stats_ = tx.stats();
    rx_stats_ = rx.stats();
  }

  uint64_t FaultCounter(const char* name) {
    return bed_->sim().metrics().GetCounter(name)->value();
  }

  std::unique_ptr<DuplexTestBed> bed_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Socket> client_;
  std::unique_ptr<Socket> server_;
  ReliableStats tx_stats_;
  ReliableStats rx_stats_;
};

TEST_F(FaultInjectionTest, LossOnly) {
  sim::FaultProfile p;
  p.loss = 0.10;
  BuildWorld(p);
  RunExactlyOnce(150);
  EXPECT_GT(bed_->frames_lost(), 0u);
  EXPECT_GT(tx_stats_.retransmissions, 0u);
  EXPECT_EQ(FaultCounter("fault.injected.loss"), bed_->frames_lost());
}

TEST_F(FaultInjectionTest, DuplicationOnly) {
  sim::FaultProfile p;
  p.duplication = 0.25;
  BuildWorld(p);
  RunExactlyOnce(150);
  const uint64_t dups = bed_->fault().stats(DuplexTestBed::kLinkAtoB).duplicated +
                        bed_->fault().stats(DuplexTestBed::kLinkBtoA).duplicated;
  EXPECT_GT(dups, 0u);
  EXPECT_EQ(FaultCounter("fault.injected.duplicate"), dups);
  // Duplicated DATA segments must be discarded, never re-delivered.
  EXPECT_GT(rx_stats_.duplicates_discarded, 0u);
}

TEST_F(FaultInjectionTest, CorruptionOnly) {
  sim::FaultProfile p;
  p.corruption = 0.15;
  BuildWorld(p);
  RunExactlyOnce(150);
  const uint64_t corrupted =
      bed_->fault().stats(DuplexTestBed::kLinkAtoB).corrupted +
      bed_->fault().stats(DuplexTestBed::kLinkBtoA).corrupted;
  EXPECT_GT(corrupted, 0u);
  EXPECT_EQ(FaultCounter("fault.injected.corrupt"), corrupted);
  // Graceful degradation: RX checksum verification catches damaged frames
  // and drops them under kCorrupt; ARQ repairs the gap. (Both hosts share
  // the simulator's registry, so one NIC's accessor reads the world total;
  // a flip that breaks parsing entirely is dropped as malformed/unmatched
  // instead, so <=.)
  const uint64_t corrupt_drops =
      bed_->a().nic->stats().rx_drops(DropReason::kCorrupt);
  EXPECT_GT(corrupt_drops, 0u);
  EXPECT_LE(corrupt_drops, corrupted);
  EXPECT_GT(tx_stats_.retransmissions, 0u);
}

TEST_F(FaultInjectionTest, ReorderOnly) {
  sim::FaultProfile p;
  p.reorder = 0.30;
  p.reorder_delay = 300 * kMicrosecond;  // > frame spacing: real reordering
  BuildWorld(p);
  RunExactlyOnce(150);
  const uint64_t reordered =
      bed_->fault().stats(DuplexTestBed::kLinkAtoB).reordered +
      bed_->fault().stats(DuplexTestBed::kLinkBtoA).reordered;
  EXPECT_GT(reordered, 0u);
  EXPECT_EQ(FaultCounter("fault.injected.reorder"), reordered);
  EXPECT_GT(rx_stats_.out_of_order_buffered, 0u);
}

TEST_F(FaultInjectionTest, JitterOnly) {
  sim::FaultProfile p;
  p.jitter = 250 * kMicrosecond;
  BuildWorld(p);
  RunExactlyOnce(150);
  const uint64_t jittered =
      bed_->fault().stats(DuplexTestBed::kLinkAtoB).jittered +
      bed_->fault().stats(DuplexTestBed::kLinkBtoA).jittered;
  EXPECT_GT(jittered, 0u);
  EXPECT_EQ(FaultCounter("fault.injected.jitter"), jittered);
}

// The headline chaos case: 5% loss + reordering + corruption at once.
TEST_F(FaultInjectionTest, CombinedChaosExactlyOnce) {
  sim::FaultProfile p;
  p.loss = 0.05;
  p.corruption = 0.05;
  p.reorder = 0.10;
  p.reorder_delay = 250 * kMicrosecond;
  BuildWorld(p, /*seed=*/99);
  RunExactlyOnce(200, /*deadline=*/20'000 * kMillisecond);
  // Every fault mode actually fired.
  EXPECT_GT(FaultCounter("fault.injected.loss"), 0u);
  EXPECT_GT(FaultCounter("fault.injected.corrupt"), 0u);
  EXPECT_GT(FaultCounter("fault.injected.reorder"), 0u);
  EXPECT_GT(tx_stats_.retransmissions, 0u);
  EXPECT_GT(tx_stats_.rto_expirations, 0u);
}

// One complete chaos run, reduced to its comparable statistics.
struct ChaosLedgers {
  std::array<uint64_t, 8> wire_a{};
  std::array<uint64_t, 10> arq_tx{};
  std::array<uint64_t, 10> arq_rx{};
  size_t delivered = 0;
};

ChaosLedgers ChaosRun(uint64_t seed) {
  ChaosLedgers out;
  workload::DuplexOptions opts;
  opts.fault_seed = seed;
  DuplexTestBed bed(opts);
  bed.a().kernel->processes().AddUser(1, "a");
  bed.b().kernel->processes().AddUser(2, "b");
  const auto pid_a = *bed.a().kernel->processes().Spawn(1, "client");
  const auto pid_b = *bed.b().kernel->processes().Spawn(2, "server");
  kernel::ConnectOptions copts;
  copts.notify_rx = true;
  auto listener = Listener::Create(bed.b().kernel.get(), pid_b, 4500,
                                   net::IpProto::kUdp, copts);
  auto client = Socket::Connect(bed.a().kernel.get(), pid_a, bed.ip_b(),
                                4500, copts);
  EXPECT_TRUE(listener.ok() && client.ok());
  if (!listener.ok() || !client.ok()) {
    return out;
  }
  EXPECT_TRUE(client->Send(std::vector<uint8_t>{0xff, 0, 0, 0, 0}).ok());
  bed.sim().Run();
  auto server = listener->Accept();
  EXPECT_TRUE(server.ok());
  if (!server.ok()) {
    return out;
  }
  while (server->RecvFrame() != nullptr) {
  }

  sim::FaultProfile p;
  p.loss = 0.05;
  p.corruption = 0.05;
  p.reorder = 0.10;
  p.reorder_delay = 250 * kMicrosecond;
  bed.fault().SetProfile(DuplexTestBed::kLinkAtoB, p);
  bed.fault().SetProfile(DuplexTestBed::kLinkBtoA, p);

  ReliableChannel tx(&bed.sim(), bed.a().kernel.get(), &*client);
  ReliableChannel rx(&bed.sim(), bed.b().kernel.get(), &*server);
  rx.SetMessageHandler([&](std::vector<uint8_t>) { ++out.delivered; });
  EXPECT_TRUE(tx.Start().ok());
  EXPECT_TRUE(rx.Start().ok());
  for (int i = 0; i < 120; ++i) {
    EXPECT_TRUE(tx.Send(std::to_string(i)).ok());
  }
  bed.sim().RunUntil(10'000 * kMillisecond);

  out.wire_a = Ledger(bed.fault().stats(DuplexTestBed::kLinkAtoB));
  out.arq_tx = Ledger(tx.stats());
  out.arq_rx = Ledger(rx.stats());
  return out;
}

// Fixed seed => byte-identical fault and channel statistics across runs.
TEST(FaultDeterminismTest, SameSeedSameStats) {
  for (const uint64_t seed : {7ull, 1234ull}) {
    const ChaosLedgers first = ChaosRun(seed);
    const ChaosLedgers second = ChaosRun(seed);
    EXPECT_EQ(first.delivered, 120u) << "seed " << seed;
    EXPECT_EQ(first.wire_a, second.wire_a) << "seed " << seed;
    EXPECT_EQ(first.arq_tx, second.arq_tx) << "seed " << seed;
    EXPECT_EQ(first.arq_rx, second.arq_rx) << "seed " << seed;
  }
}

// Different seeds draw different fault sequences (the chaos dice are real).
TEST(FaultDeterminismTest, DistinctSeedsDiverge) {
  EXPECT_NE(ChaosRun(7).wire_a, ChaosRun(1234).wire_a);
}

// A link that stays dark past max_retries fails the channel with a clean
// Status (no hang, no exception); Resync() recovers once the link is back,
// and nothing is lost or duplicated across the outage.
TEST_F(FaultInjectionTest, LinkDownFailsCleanlyThenResyncs) {
  BuildWorld(sim::FaultProfile{});  // clean wire
  ReliableOptions ropts;
  ropts.max_retries = 4;
  ropts.initial_rto = 100 * kMicrosecond;
  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(), client_.get(),
                     ropts);
  ReliableChannel rx(&bed_->sim(), bed_->b().kernel.get(), server_.get());
  std::vector<std::string> delivered;
  rx.SetMessageHandler([&](std::vector<uint8_t> m) {
    delivered.emplace_back(m.begin(), m.end());
  });
  Status failure = OkStatus();
  tx.SetFailureHandler([&](Status s) { failure = s; });
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(rx.Start().ok());

  bed_->fault().SetLinkDown(DuplexTestBed::kLinkAtoB, true);
  bed_->fault().SetLinkDown(DuplexTestBed::kLinkBtoA, true);
  ASSERT_TRUE(tx.Send("across the outage").ok());
  bed_->sim().RunUntil(5000 * kMillisecond);

  EXPECT_TRUE(tx.failed());
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(tx.last_error().code(), StatusCode::kUnavailable);
  // Send after failure surfaces the root cause, not a generic error.
  EXPECT_EQ(tx.Send("more").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(delivered.empty());
  const uint64_t eaten =
      bed_->fault().stats(DuplexTestBed::kLinkAtoB).dropped_link_down;
  EXPECT_GE(eaten, static_cast<uint64_t>(ropts.max_retries));

  // The operator brings the link back and resynchronizes the channel.
  bed_->fault().SetLinkDown(DuplexTestBed::kLinkAtoB, false);
  bed_->fault().SetLinkDown(DuplexTestBed::kLinkBtoA, false);
  ASSERT_TRUE(tx.Resync().ok());
  ASSERT_TRUE(tx.Send("after the outage").ok());
  bed_->sim().RunUntil(bed_->sim().Now() + 5000 * kMillisecond);

  EXPECT_FALSE(tx.failed());
  EXPECT_EQ(tx.stats().resyncs, 1u);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], "across the outage");
  EXPECT_EQ(delivered[1], "after the outage");
  // Resync of an un-failed channel is a precondition error.
  EXPECT_EQ(tx.Resync().code(), StatusCode::kFailedPrecondition);
}

// A scheduled down window recovers by itself — no operator involved — and
// drives the fault.link.down gauge both ways.
TEST_F(FaultInjectionTest, DownWindowRecoversAutomatically) {
  BuildWorld(sim::FaultProfile{});
  bed_->fault().AddDownWindow(DuplexTestBed::kLinkAtoB, 1 * kMillisecond,
                              3 * kMillisecond);
  EXPECT_TRUE(bed_->fault().link_up(DuplexTestBed::kLinkAtoB, 0));
  EXPECT_FALSE(
      bed_->fault().link_up(DuplexTestBed::kLinkAtoB, 2 * kMillisecond));
  EXPECT_TRUE(
      bed_->fault().link_up(DuplexTestBed::kLinkAtoB, 3 * kMillisecond));

  ReliableChannel tx(&bed_->sim(), bed_->a().kernel.get(), client_.get());
  ReliableChannel rx(&bed_->sim(), bed_->b().kernel.get(), server_.get());
  int got = 0;
  rx.SetMessageHandler([&](std::vector<uint8_t>) { ++got; });
  ASSERT_TRUE(tx.Start().ok());
  ASSERT_TRUE(rx.Start().ok());
  // Send mid-window so the first transmissions hit the dark link and only
  // retransmission carries them across.
  bed_->sim().ScheduleAt(2 * kMillisecond, [&] {
    for (int i = 0; i < 20; ++i) {
      // Appending, not "m" + std::to_string(i): GCC 12 flags the latter
      // with a false-positive -Wrestrict.
      std::string msg = "m";
      msg += std::to_string(i);
      EXPECT_TRUE(tx.Send(msg).ok());
    }
  });
  bed_->sim().RunUntil(10'000 * kMillisecond);
  EXPECT_EQ(got, 20);  // retransmission rides out the window
  EXPECT_FALSE(tx.failed());
  EXPECT_GT(bed_->fault()
                .stats(DuplexTestBed::kLinkAtoB)
                .dropped_link_down,
            0u);
}

// ---- NIC-side faults (control-plane driven) --------------------------------

TEST(NicFaultTest, SramPressureForcesFallbackUntilReleased) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  auto& cp = k.nic_control();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  constexpr auto kPeer = net::Ipv4Address::FromOctets(10, 0, 0, 2);

  auto before = Socket::Connect(&k, pid, kPeer, 1000, {});
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->software_fallback());

  // Hold every remaining SRAM byte hostage: flow installs now see the same
  // transient ResourceExhausted a real SRAM squeeze would produce.
  const uint64_t hostage = cp.sram().available();
  ASSERT_TRUE(cp.InjectSramPressure(hostage).ok());
  EXPECT_EQ(cp.sram_pressure_bytes(), hostage);

  kernel::ConnectOptions fallback_ok;
  fallback_ok.allow_software_fallback = true;
  auto squeezed = Socket::Connect(&k, pid, kPeer, 1001, fallback_ok);
  ASSERT_TRUE(squeezed.ok());
  EXPECT_TRUE(squeezed->software_fallback());
  // Without the opt-in, the squeeze is a clean ResourceExhausted.
  EXPECT_EQ(Socket::Connect(&k, pid, kPeer, 1003, {}).status().code(),
            StatusCode::kResourceExhausted);

  cp.ReleaseSramPressure();
  EXPECT_EQ(cp.sram_pressure_bytes(), 0u);
  auto after = Socket::Connect(&k, pid, kPeer, 1002, {});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->software_fallback());
}

TEST(NicFaultTest, NotificationStallDefersWakeupsThenFlushes) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  auto& cp = k.nic_control();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "srv");

  kernel::ConnectOptions copts;
  copts.notify_rx = true;
  auto listener =
      Listener::Create(&k, pid, 8080, net::IpProto::kUdp, copts);
  ASSERT_TRUE(listener.ok());
  bed.InjectUdpFromPeer(5555, 8080, 8, 100);
  bed.sim().Run();
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  while (conn->RecvFrame() != nullptr) {
  }

  int woke = 0;
  ASSERT_TRUE(conn->RecvBlocking([&](std::vector<uint8_t>) { ++woke; }).ok());

  cp.StallNotifications(true);
  EXPECT_TRUE(cp.notifications_stalled());
  bed.InjectUdpFromPeer(5555, 8080, 16, bed.sim().Now() + 1000);
  bed.sim().Run();
  // The frame reached the ring, but the completion sits in the holding pen.
  EXPECT_EQ(woke, 0);
  EXPECT_EQ(bed.sim().metrics().GetCounter("fault.nic.notify_deferred")
                ->value(),
            1u);

  cp.StallNotifications(false);  // flush the pen in arrival order
  bed.sim().Run();
  EXPECT_FALSE(cp.notifications_stalled());
  EXPECT_EQ(woke, 1);
}

// TestBed's synthetic-peer wire runs through the same fault plane.
TEST(TestBedFaultTest, CorruptedIngressDroppedByChecksumVerification) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "srv");
  auto listener = Listener::Create(&k, pid, 8080);
  ASSERT_TRUE(listener.ok());

  sim::FaultProfile p;
  p.corruption = 1.0;  // every ingress frame damaged
  bed.fault().SetProfile(workload::TestBed::kNetworkToHostLink, p);
  bed.InjectUdpFromPeer(5555, 8080, 32, 100);
  bed.sim().Run();

  EXPECT_EQ(bed.nic().stats().rx_drops(DropReason::kCorrupt), 1u);
  EXPECT_EQ(bed.sim().metrics().GetCounter("fault.injected.corrupt")->value(),
            1u);
  // The damaged trigger frame never became a connection.
  EXPECT_EQ(listener->Accept().status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(k.ListConnections().empty());
}

}  // namespace
}  // namespace norman
