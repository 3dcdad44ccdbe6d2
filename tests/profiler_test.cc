// Dataplane profiler (src/common/profiler.h): conservation, owner
// attribution, export stability, and an end-of-run counter check.
//
// The conservation invariant is the profiler's contract: for every
// registered core, summed attributed ns + the explicit unaccounted bucket
// equals the resource's busy ns — in plain forwarding, under a hit-dominated
// fast path and under chaos. The instrumented paths charge exactly what they
// serve, so unaccounted must be exactly zero.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/profiler.h"
#include "src/norman/socket.h"
#include "src/sim/fault.h"
#include "src/tools/tools.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using telemetry::Profiler;

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

void ExpectConservation(const Profiler& prof) {
  const auto cores = prof.CoreReports();
  ASSERT_GE(cores.size(), 5u);  // nic.{dma,pipeline,stages,wire} + kernel
  for (const auto& c : cores) {
    EXPECT_EQ(c.attributed_ns + c.unaccounted_ns, c.busy_ns) << c.name;
    EXPECT_EQ(c.unaccounted_ns, 0u) << c.name << ": busy time escaped "
                                    << "the instrumented charge points";
  }
}

TEST(ProfilerConservationTest, ForwardingAtEveryBatchSize) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  const std::vector<uint8_t> payload(300, 0xcd);
  for (int i = 0; i < 33; ++i) {  // odd count: a partial final TX burst
    ASSERT_TRUE(sock->Send(payload).ok());
  }
  bed.sim().Run();
  ExpectConservation(bed.sim().profiler());
}

TEST(ProfilerConservationTest, ChaosRunStaysExact) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  // Echo replies cross a corrupting wire that also goes dark mid-run:
  // damaged frames die at the RX checksum check, parked frames die on
  // the down link — all after their pipeline time was charged.
  sim::FaultProfile profile;
  profile.corruption = 0.25;
  bed.fault().SetProfile(workload::TestBed::kNetworkToHostLink, profile);
  bed.fault().AddDownWindow(workload::TestBed::kNetworkToHostLink,
                            50 * kMicrosecond, 150 * kMicrosecond);
  const std::vector<uint8_t> payload(600, 0xee);
  uint8_t scratch[2048];
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(sock->Send(payload).ok());
    }
    bed.sim().Run();
    while (sock->RecvInto(scratch).ok()) {
    }
  }
  ExpectConservation(bed.sim().profiler());
}

TEST(ProfilerConservationTest, FlowCacheHitDominatedRun) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  kernel::NicConfig cfg;
  cfg.flow_cache = true;
  ASSERT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  const std::vector<uint8_t> payload(200, 0x5a);
  for (int i = 0; i < 64; ++i) {  // one flow: hit replay dominates
    ASSERT_TRUE(sock->Send(payload).ok());
  }
  bed.sim().Run();
  EXPECT_GT(k.nic_control().flow_cache().hits(), 0u);
  ExpectConservation(bed.sim().profiler());
}

// Folded flamegraph stacks must tile each core's busy time exactly: the
// per-(path,core) rows plus the explicit "[unaccounted]" row sum to
// busy_ns, and the export is sorted (byte-stable).
TEST(ProfilerExportTest, FoldedStacksTileToBusyNs) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  const std::vector<uint8_t> payload(400, 0x11);
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(sock->Send(payload).ok());
  }
  bed.sim().Run();

  const Profiler& prof = bed.sim().profiler();
  std::map<std::string, uint64_t> busy;
  for (const auto& c : prof.CoreReports()) {
    busy[c.name] = c.busy_ns;
  }
  std::map<std::string, uint64_t> folded_sum;
  std::istringstream folded(prof.FoldedStacks());
  std::string prev;
  for (std::string line; std::getline(folded, line);) {
    EXPECT_LT(prev, line) << "folded stacks must be sorted";
    prev = line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    const uint64_t ns = std::stoull(line.substr(space + 1));
    folded_sum[stack.substr(0, stack.find(';'))] += ns;
  }
  for (const auto& [core, total] : busy) {
    EXPECT_EQ(folded_sum[core], total) << core;
  }
}

TEST(ProfilerOwnerTest, LedgerSplitsByPidAndBillsSram) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");
  // batch's second connection hits an OUTPUT DROP rule: those packets land
  // in batch's drop ledger, not a global bucket.
  ASSERT_TRUE(tools::IptablesAppend(
                  &k, kernel::kRootUid,
                  "-A OUTPUT -p udp --dport 9999 -j DROP")
                  .ok());
  auto web = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto batch = Socket::Connect(&k, batch_pid, kPeerIp, 8888, {});
  auto denied = Socket::Connect(&k, batch_pid, kPeerIp, 9999, {});
  ASSERT_TRUE(web.ok() && batch.ok() && denied.ok());

  const std::vector<uint8_t> big(1000, 0xaa);
  const std::vector<uint8_t> small(100, 0xbb);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(web->Send(big).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batch->Send(small).ok());
    ASSERT_TRUE(denied->Send(small).ok());
  }
  bed.sim().Run();

  auto find_owner = [&](uint32_t pid) {
    for (const auto& o : bed.sim().profiler().OwnerReports()) {
      if (o.pid == pid) {
        return o;
      }
    }
    return Profiler::OwnerReport{};
  };
  const auto web_row = find_owner(web_pid);
  const auto batch_row = find_owner(batch_pid);
  EXPECT_GT(web_row.pkts, batch_row.pkts);
  EXPECT_GT(web_row.bytes, batch_row.bytes);
  EXPECT_GT(web_row.nic_ns, batch_row.nic_ns);
  EXPECT_EQ(web_row.drops, 0u);
  EXPECT_GE(batch_row.drops, 3u);  // the denied connection's sends
  // SRAM ledger: flow entry (384B) + ring state (64B) per installed flow.
  EXPECT_EQ(web_row.sram_bytes, 448);
  EXPECT_EQ(batch_row.sram_bytes, 2 * 448);
  // Close releases the footprint back out of the owner's ledger.
  ASSERT_TRUE(web->Close().ok());
  bed.sim().Run();
  EXPECT_EQ(find_owner(web_pid).sram_bytes, 0);
}

TEST(ProfilerOwnerTest, UnmatchedWireTrafficStaysUnowned) {
  workload::TestBedOptions opts;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  Nanos t = kMicrosecond;
  for (int i = 0; i < 5; ++i) {
    bed.InjectUdpFromPeer(4444, 5555, 64, t += kMicrosecond);
  }
  bed.sim().Run();
  const auto owners = bed.sim().profiler().OwnerReports();
  ASSERT_FALSE(owners.empty());
  EXPECT_EQ(owners[0].pid, 0u);
  EXPECT_GE(owners[0].pkts, 5u);
  ExpectConservation(bed.sim().profiler());
}

// Scope entry counts keep zero-cost contexts (the maintenance tick) visible
// in the attribution tree even though they charge no nanoseconds.
TEST(ProfilerExportTest, MaintenanceTickVisibleByEntries) {
  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 50 * kMicrosecond;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.maintenance = true;
  ASSERT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  // A 1 ms traffic horizon guarantees the 50 us tick fires many times
  // before the lazy re-arm parks it.
  workload::PoissonSender sender(&bed.sim(), &*sock, 500, 20 * kMicrosecond,
                                 7);
  sender.Start(0, 1 * kMillisecond);
  bed.sim().Run();
  ASSERT_GT(k.maintenance_ticks(), 0u);
  uint64_t tick_entries = 0;
  for (const auto& s : bed.sim().profiler().StackReports()) {
    if (s.stack.find("kernel.maintenance") != std::string::npos) {
      tick_entries += s.entries;
    }
  }
  EXPECT_EQ(tick_entries, k.maintenance_ticks());
}

TEST(ProfilerExportTest, DisabledProfilerAttributesNothing) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);  // profiler stays off
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->Send(std::vector<uint8_t>(100, 0x3c)).ok());
  bed.sim().Run();
  for (const auto& c : bed.sim().profiler().CoreReports()) {
    EXPECT_EQ(c.attributed_ns, 0u) << c.name;
    EXPECT_EQ(c.unaccounted_ns, c.busy_ns) << c.name;
  }
  for (const auto& o : bed.sim().profiler().OwnerReports()) {
    EXPECT_EQ(o.pkts, 0u);
    EXPECT_EQ(o.nic_ns, 0u);
  }
}

// The norman-top --by-pid view renders the ledger with process names.
TEST(ProfilerExportTest, TopByPidRendersOwnerRows) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  bed.sim().profiler().set_enabled(true);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");
  auto web = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto batch = Socket::Connect(&k, batch_pid, kPeerIp, 8888, {});
  ASSERT_TRUE(web.ok() && batch.ok());
  ASSERT_TRUE(web->Send(std::vector<uint8_t>(400, 0x01)).ok());
  ASSERT_TRUE(batch->Send(std::vector<uint8_t>(100, 0x02)).ok());
  bed.sim().Run();
  const std::string view = tools::TopByPid(bed.kernel());
  EXPECT_NE(view.find("norman-top --by-pid"), std::string::npos);
  EXPECT_NE(view.find("(webapp)"), std::string::npos);
  EXPECT_NE(view.find("(batch)"), std::string::npos);
  // Byte-stable: rendering twice gives the identical string.
  EXPECT_EQ(view, tools::TopByPid(bed.kernel()));
}

// ---- Exact counters at end of run ------------------------------------------

TEST(ExactCounterTest, OddFinalBurstVisibleInEndOfRunReport) {
  workload::TestBedOptions opts;
  opts.echo = false;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 7777, {});
  ASSERT_TRUE(sock.ok());
  // 33 sends with a TX fetch batch of 16: the final burst is odd-sized
  // (one descriptor), and it still counts every descriptor it served.
  const std::vector<uint8_t> payload(120, 0x42);
  for (int i = 0; i < 33; ++i) {
    ASSERT_TRUE(sock->Send(payload).ok());
  }
  bed.sim().Run();
  EXPECT_EQ(bed.nic().stats().tx_seen(), 33u);
}

}  // namespace
}  // namespace norman
