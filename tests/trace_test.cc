// Lifecycle tracing end to end: a traced packet's spans are contiguous and
// sum exactly to its end-to-end latency, on one lane and on four. Plus the
// drop-attribution invariant: every drop lands in exactly one reason
// counter, and the per-reason counters reproduce the legacy aggregates.
// (Span sampling, retention and export are unit-tested in
// tracepoint_test.cc.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/common/metrics.h"
#include "src/common/tracepoint.h"
#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"
#include "tests/test_util.h"

namespace norman {
namespace {

using telemetry::Tracepoints;
using telemetry::TraceSpan;

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// ---- End-to-end tiling invariant -----------------------------------------

// Runs echo traffic with every packet sampled and checks, per trace id,
// that the recorded spans are contiguous (no gaps, no overlaps) and that
// for frames that reached the wire the last span ends exactly at
// meta().completed_at — i.e. span durations sum to end-to-end latency.
// On a multi-lane NIC the lane work lands on the lane rings and the wire's
// on the NIC ring, so the check also covers the merged journal.
void ExpectSpansTile(uint16_t shard_queues) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  Tracepoints& tp = bed.sim().tracepoints();
  tp.set_span_sample_interval(1);

  auto& k = bed.kernel();
  if (shard_queues != 0) {
    // Sharding is one-shot and must precede the connect.
    kernel::NicConfig config;
    config.shard_queues = shard_queues;
    ASSERT_TRUE(k.Configure(kernel::kRootUid, config).ok());
  }
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  auto sock = Socket::Connect(&k, pid, kPeerIp, 6000, {});
  ASSERT_TRUE(sock.ok());

  // trace_id -> (arrival-side start, completed_at) for egressed frames.
  std::map<uint32_t, Nanos> completed;
  bed.SetEgressHook([&completed](const net::Packet& p) {
    if (p.meta().trace_id != 0) {
      completed[p.meta().trace_id] = p.meta().completed_at;
    }
  });

  const std::vector<uint8_t> payload(400, 0x33);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sock->Send(payload).ok());
    bed.sim().Run();
  }
  EXPECT_FALSE(completed.empty());

  if (shard_queues != 0) {
    size_t on_lane_rings = 0;
    for (const telemetry::TraceRecord& rec : tp.Journal()) {
      if (rec.probe == telemetry::kSpanRecord &&
          rec.core >= Tracepoints::kCoreLaneBase) {
        ++on_lane_rings;
      }
    }
    EXPECT_GT(on_lane_rings, 0u);
  }

  std::map<uint32_t, std::vector<TraceSpan>> by_id;
  for (const auto& span : tp.Spans()) {
    by_id[span.trace_id].push_back(span);
  }
  ASSERT_GE(by_id.size(), 20u);  // 10 TX frames + 10 RX echoes

  for (auto& [id, spans] : by_id) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    Nanos sum = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      ASSERT_LE(spans[i].start, spans[i].end) << "id " << id;
      if (i > 0) {
        ASSERT_EQ(spans[i].start, spans[i - 1].end)
            << "gap/overlap in trace " << id << " before stage "
            << spans[i].stage;
      }
      sum += spans[i].end - spans[i].start;
    }
    // Contiguity means the durations tile the packet's whole lifetime.
    EXPECT_EQ(sum, spans.back().end - spans.front().start) << "id " << id;
    auto it = completed.find(id);
    if (it != completed.end()) {
      EXPECT_EQ(spans.back().end, it->second)
          << "trace " << id << " does not end at wire completion";
      EXPECT_EQ(sum, it->second - spans.front().start)
          << "trace " << id << " span sum != end-to-end latency";
    }
  }
}

TEST(TraceIntegrationTest, SpansTileToEndToEndLatency) {
  for (const uint16_t queues : {uint16_t{0}, uint16_t{4}}) {
    SCOPED_TRACE("shard_queues=" + std::to_string(queues));
    ExpectSpansTile(queues);
  }
}

// ---- Drop attribution -----------------------------------------------------

// Every drop must land in exactly one reason counter: the per-reason
// counters reproduce the aggregate accessors, the conservation equation
// still balances, and the owner ledger sums to the same total.
TEST(DropAccountingTest, EveryDropHasExactlyOneReason) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "alice");
  const auto pid = *k.processes().Spawn(1001, "app");

  ASSERT_TRUE(tools::IptablesAppend(&k, kernel::kRootUid,
                                    "-A OUTPUT -p udp --dport 9 -j DROP")
                  .ok());

  auto good = Socket::Connect(&k, pid, kPeerIp, 6000, {});
  auto bad = Socket::Connect(&k, pid, kPeerIp, 9, {});
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  const std::vector<uint8_t> payload(128, 0x11);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(good->Send(payload).ok());
    ASSERT_TRUE(bad->Send(payload).ok());
    bed.sim().Run();
  }
  // Unmatched + unparseable RX traffic, and an on-NIC ICMP echo response.
  Nanos t = bed.sim().Now();
  bed.InjectUdpFromPeer(1234, 4321, 64, t += kMicrosecond);
  bed.InjectFromNetwork(net::MakePacket(std::vector<uint8_t>(6, 0xee)),
                        t += kMicrosecond);
  const net::FrameEndpoints peer_ep{net::MacAddress::ForHost(2),
                                    k.options().host_mac, kPeerIp,
                                    k.options().host_ip};
  bed.InjectFromNetwork(
      net::BuildIcmpEchoPacket(peer_ep, net::IcmpType::kEchoRequest, 7, 1,
                               payload),
      t += kMicrosecond);
  bed.sim().Run();

  const auto& s = bed.nic().stats();
  // The scenario hit the reasons it was built to hit.
  EXPECT_EQ(s.tx_drops(DropReason::kFilterDeny), 6u);
  EXPECT_EQ(s.rx_drops(DropReason::kNicConsumed), 1u);
  EXPECT_GE(s.rx_unmatched(), 2u);

  // Per-reason counters reproduce the aggregates...
  uint64_t tx_sum = 0;
  uint64_t rx_sum = 0;
  for (size_t r = 1; r < kNumDropReasons; ++r) {
    tx_sum += s.tx_drops(static_cast<DropReason>(r));
    rx_sum += s.rx_drops(static_cast<DropReason>(r));
  }
  EXPECT_EQ(tx_sum + rx_sum, s.total_drops());
  EXPECT_EQ(s.tx_dropped() + s.tx_sched_dropped(), tx_sum);
  EXPECT_EQ(s.rx_dropped() + s.rx_ring_overflow(), rx_sum);

  // ...the conservation equations still balance...
  test::ExpectNicConservation(s);

  // ...and the owner ledger accounts for every drop exactly once.
  uint64_t ledger_sum = 0;
  for (const auto& rec : s.DropLedger()) {
    EXPECT_NE(rec.reason, DropReason::kNone);
    EXPECT_GT(rec.count, 0u);
    ledger_sum += rec.count;
  }
  EXPECT_EQ(ledger_sum, s.total_drops());
  // The filter drops are attributed to the owning process.
  bool found_owner = false;
  for (const auto& rec : s.DropLedger()) {
    if (rec.direction == net::Direction::kTx &&
        rec.reason == DropReason::kFilterDeny && rec.owner_pid == pid) {
      found_owner = true;
      EXPECT_EQ(rec.count, 6u);
    }
  }
  EXPECT_TRUE(found_owner);
}

}  // namespace
}  // namespace norman
