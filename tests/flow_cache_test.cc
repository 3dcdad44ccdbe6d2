// Fast-path correctness: the flow verdict cache must change packet *latency*
// and nothing else. Epoch invalidation keeps cached verdicts from outliving
// the configuration that produced them; observer stages (conntrack, sniffer,
// top-talkers) see byte-identical traffic with the cache on or off; and
// eviction under SRAM pressure is a deterministic function of the packet
// sequence. Plus the TopTalkers hot-pointer regression test.
#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/net/packet_builder.h"
#include "src/net/pcap_writer.h"
#include "src/nic/flow_cache.h"
#include "src/nic/pipeline.h"
#include "src/nic/sram.h"
#include "src/nic/top_talkers.h"
#include "src/norman/socket.h"
#include "src/workload/testbed.h"
#include "tests/test_util.h"

namespace norman {
namespace {

using kernel::Chain;
using kernel::kRootUid;
using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class FlowCacheTest : public ::testing::Test {
 protected:
  FlowCacheTest() {
    bed_.kernel().processes().AddUser(1, "u");
    pid_ = *bed_.kernel().processes().Spawn(1, "app");
  }

  nic::FlowCache& cache() { return bed_.kernel().nic_control().flow_cache(); }

  void EnableFlowCache() {
    kernel::NicConfig cfg;
    cfg.flow_cache = true;
    cfg.flow_cache_entries = 64;
    ASSERT_TRUE(bed_.kernel().Configure(kRootUid, cfg).ok());
  }

  workload::TestBed bed_;
  kernel::Pid pid_ = 0;
};

TEST_F(FlowCacheTest, TxFlowHitsAfterFirstPacket) {
  EnableFlowCache();
  auto s = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 4000, {});
  ASSERT_TRUE(s.ok()) << s.status();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(s->Send(std::string(64, 'x')).ok());
  }
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 4u);
  // One miss mints the entry; the rest of the flow rides the fast path.
  EXPECT_EQ(cache().misses(), 1u);
  EXPECT_EQ(cache().hits(), 3u);
  EXPECT_EQ(cache().size(), 1u);
  EXPECT_EQ(cache().sram_bytes(), nic::kFlowCacheEntryBytes);
}

TEST_F(FlowCacheTest, EpochInvalidationMidFlow) {
  EnableFlowCache();
  auto s = Socket::Connect(&bed_.kernel(), pid_, kPeerIp, 4000, {});
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(s->Send(std::string(64, 'x')).ok());
  ASSERT_TRUE(s->Send(std::string(64, 'x')).ok());
  bed_.sim().Run();
  ASSERT_EQ(bed_.egress_frames(), 2u);
  ASSERT_EQ(cache().hits(), 1u);
  const uint64_t epoch_before = cache().epoch();

  // Install a drop rule matching this flow. The cached kAccept entry was
  // minted under the old chain; serving it now would leak the packet out.
  dataplane::FilterRule rule;
  rule.label = "drop-to-4000";
  rule.dst_port = dataplane::PortRange{4000, 4000};
  rule.action = dataplane::FilterAction::kDrop;
  auto idx = bed_.kernel().AppendFilterRule(kRootUid, Chain::kOutput, rule);
  ASSERT_TRUE(idx.ok()) << idx.status();
  EXPECT_GT(cache().epoch(), epoch_before);
  EXPECT_GE(cache().invalidations(), 1u);

  ASSERT_TRUE(s->Send(std::string(64, 'x')).ok());
  bed_.sim().Run();
  // The stale entry was discarded: the packet re-ran the chain and the new
  // rule dropped it. Nothing new left the host.
  EXPECT_EQ(bed_.egress_frames(), 2u);
  EXPECT_EQ(cache().misses(), 2u);

  // The re-minted entry caches the *drop*: further packets hit and are
  // dropped without walking the chain again.
  ASSERT_TRUE(s->Send(std::string(64, 'x')).ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 2u);
  EXPECT_EQ(cache().hits(), 2u);

  // Deleting the rule bumps the epoch again and restores delivery.
  ASSERT_TRUE(bed_.kernel().DeleteFilterRule(kRootUid, Chain::kOutput, *idx)
                  .ok());
  ASSERT_TRUE(s->Send(std::string(64, 'x')).ok());
  bed_.sim().Run();
  EXPECT_EQ(bed_.egress_frames(), 3u);
}

// Everything an observer can see, collected from one scenario run.
struct ObserverView {
  std::vector<uint8_t> pcap;
  std::vector<std::pair<uint64_t, uint64_t>> conntrack;  // packets, bytes
  uint64_t talker_packets = 0;
  uint64_t talker_bytes = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  std::map<std::string, int64_t> drop_counters;
  uint64_t fastpath_hits = 0;
};

// RX-driven scenario: injection times are fixed by the test, so every
// observable byte — including pcap timestamps — must be identical with the
// fast path on or off. Two flows: one accepted and delivered, one dropped
// by a filter rule (so drop accounting parity is exercised too).
ObserverView RunObserverScenario(bool fastpath) {
  net::ResetIpIdCounterForTest();  // identical frames across both runs
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.top_talkers = true;
  cfg.top_talker_entries = 16;
  EXPECT_TRUE(k.Configure(kRootUid, cfg).ok());
  EXPECT_TRUE(k.StartCapture(kRootUid).ok());

  auto ok_sock = Socket::Connect(&k, pid, kPeerIp, 5000, {});
  auto drop_sock = Socket::Connect(&k, pid, kPeerIp, 6000, {});
  EXPECT_TRUE(ok_sock.ok() && drop_sock.ok());
  dataplane::FilterRule rule;
  rule.label = "drop-from-6000";
  rule.src_port = dataplane::PortRange{6000, 6000};
  rule.action = dataplane::FilterAction::kDrop;
  EXPECT_TRUE(k.AppendFilterRule(kRootUid, Chain::kInput, rule).ok());

  if (fastpath) {
    cfg.flow_cache = true;
    cfg.flow_cache_entries = 64;
    EXPECT_TRUE(k.Configure(kRootUid, cfg).ok());
  }

  for (int i = 0; i < 12; ++i) {
    const Nanos when = 1000 + i * 5000;
    bed.InjectUdpFromPeer(5000, ok_sock->tuple().src_port, 100 + i, when);
    bed.InjectUdpFromPeer(6000, drop_sock->tuple().src_port, 50, when + 2000);
  }
  bed.sim().Run();
  test::ExpectNicConservation(bed.nic().stats());

  ObserverView v;
  v.pcap = k.sniffer().pcap().buffer();
  k.conntrack().ForEach([&v](const dataplane::ConntrackEntry& e) {
    v.conntrack.emplace_back(e.packets, e.bytes);
  });
  for (const auto& t : k.nic_control().top_talkers()->Top(16)) {
    v.talker_packets += t.packets;
    v.talker_bytes += t.bytes;
  }
  while (true) {
    auto data = ok_sock->Recv();
    if (!data.ok() || data->empty()) break;
    ++v.delivered;
  }
  const auto snap = bed.sim().metrics().Snapshot();
  for (const auto& [name, value] : snap.values) {
    if (name.rfind("drop.", 0) == 0) v.drop_counters[name] = value;
  }
  v.fastpath_hits = k.nic_control().flow_cache().hits();
  return v;
}

TEST(FlowCacheParityTest, ObserversSeeIdenticalTrafficCacheOnOrOff) {
  const ObserverView off = RunObserverScenario(/*fastpath=*/false);
  const ObserverView on = RunObserverScenario(/*fastpath=*/true);

  // The fast path actually engaged...
  EXPECT_EQ(off.fastpath_hits, 0u);
  EXPECT_GT(on.fastpath_hits, 0u);

  // ...and no observer can tell. The pcap comparison is byte-for-byte:
  // same frames, same order, same virtual timestamps.
  EXPECT_EQ(off.pcap, on.pcap);
  EXPECT_EQ(off.conntrack, on.conntrack);
  EXPECT_EQ(off.talker_packets, on.talker_packets);
  EXPECT_EQ(off.talker_bytes, on.talker_bytes);
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_GT(off.delivered, 0u);
  EXPECT_EQ(off.drop_counters, on.drop_counters);
}

TEST(FlowCacheLruTest, EvictionIsDeterministicUnderPressure) {
  telemetry::MetricsRegistry reg;
  // Room for exactly three entries: the fourth insert must evict.
  nic::SramAllocator sram(3 * nic::kFlowCacheEntryBytes);
  nic::FlowCache fc(&sram, &reg);
  fc.Enable(/*max_entries=*/64);  // bound comes from SRAM, not the table

  auto key = [](uint16_t port) {
    nic::FlowCacheKey k;
    k.direction = net::Direction::kTx;
    k.tuple = net::FiveTuple{Ipv4Address::FromOctets(10, 0, 0, 1), kPeerIp,
                             port, 9999, net::IpProto::kUdp};
    k.conn = 7;
    return k;
  };
  for (uint16_t p = 1; p <= 4; ++p) {
    fc.Insert(key(p), nic::FlowCacheEntry{});
  }
  // LRU: key(1) is the oldest and the one evicted.
  EXPECT_EQ(fc.size(), 3u);
  EXPECT_EQ(fc.evictions(), 1u);
  EXPECT_EQ(fc.Lookup(key(1)), nullptr);
  EXPECT_NE(fc.Lookup(key(4)), nullptr);
  EXPECT_EQ(sram.used(), 3 * nic::kFlowCacheEntryBytes);

  // Touch key(2) so key(3) becomes LRU; the next insert evicts key(3).
  EXPECT_NE(fc.Lookup(key(2)), nullptr);
  fc.Insert(key(5), nic::FlowCacheEntry{});
  EXPECT_EQ(fc.Lookup(key(3)), nullptr);
  EXPECT_NE(fc.Lookup(key(2)), nullptr);
  EXPECT_EQ(fc.evictions(), 2u);

  // Disabling refunds every byte.
  fc.Disable();
  EXPECT_EQ(fc.size(), 0u);
  EXPECT_EQ(sram.used(), 0u);
}

TEST(FlowCacheLruTest, StaleEpochEntriesAreLazilyDiscarded) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(16 * nic::kFlowCacheEntryBytes);
  nic::FlowCache fc(&sram, &reg);
  fc.Enable(16);
  nic::FlowCacheKey k;
  k.tuple = net::FiveTuple{kPeerIp, kPeerIp, 1, 2, net::IpProto::kUdp};
  fc.Insert(k, nic::FlowCacheEntry{});
  ASSERT_NE(fc.Lookup(k), nullptr);
  fc.Invalidate();
  EXPECT_EQ(fc.Lookup(k), nullptr);  // stale: miss, erased on the spot
  EXPECT_EQ(fc.size(), 0u);
  EXPECT_EQ(sram.used(), 0u);
  EXPECT_EQ(fc.invalidations(), 1u);
}

TEST(TopTalkersTest, HotPointerSurvivesUnrelatedEviction) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(1 * kKiB);
  nic::TopTalkers tt(&sram, &reg, /*max_entries=*/3);
  auto tuple = [](uint16_t port) {
    return net::FiveTuple{Ipv4Address::FromOctets(10, 0, 0, 1), kPeerIp, port,
                          9999, net::IpProto::kUdp};
  };
  tt.Record(tuple(1), 0, 10, 100);   // smallest: the eviction victim
  tt.Record(tuple(2), 0, 500, 110);
  tt.Record(tuple(3), 0, 900, 120);  // hot_ now points at flow 3
  tt.Record(tuple(4), 0, 700, 130);  // evicts flow 1, NOT the hot flow
  ASSERT_EQ(tt.size(), 3u);
  EXPECT_EQ(tt.evicted(), 1u);
  EXPECT_EQ(tt.Lookup(tuple(1)), nullptr);

  // Regression: the eviction of an unrelated node must not have cleared (or
  // worse, dangled) the hot pointer — back-to-back packets of flow 3 still
  // take the fast lookup and account correctly.
  tt.Record(tuple(3), 0, 900, 140);
  ASSERT_NE(tt.Lookup(tuple(3)), nullptr);
  EXPECT_EQ(tt.Lookup(tuple(3))->packets, 2u);
  EXPECT_EQ(tt.Lookup(tuple(3))->bytes, 1800u);
}

TEST(TopTalkersTest, HotPointerClearedWhenHotEntryEvicted) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(1 * kKiB);
  nic::TopTalkers tt(&sram, &reg, /*max_entries=*/2);
  auto tuple = [](uint16_t port) {
    return net::FiveTuple{Ipv4Address::FromOctets(10, 0, 0, 1), kPeerIp, port,
                          9999, net::IpProto::kUdp};
  };
  tt.Record(tuple(1), 0, 10, 100);   // hot_ -> flow 1, also the smallest
  tt.Record(tuple(2), 0, 500, 110);  // hot_ -> flow 2
  tt.Record(tuple(1), 0, 10, 120);   // hot_ -> flow 1 again (via tree walk)
  tt.Record(tuple(3), 0, 900, 130);  // evicts flow 1 == the hot entry
  EXPECT_EQ(tt.Lookup(tuple(1)), nullptr);
  // A fresh record of the evicted tuple must build a new entry from zero,
  // not resurrect counts through a dangling hot pointer (ASan guards this).
  tt.Record(tuple(1), 0, 25, 140);
  ASSERT_NE(tt.Lookup(tuple(1)), nullptr);
  EXPECT_EQ(tt.Lookup(tuple(1))->packets, 1u);
  EXPECT_EQ(tt.Lookup(tuple(1))->bytes, 25u);
}

}  // namespace
}  // namespace norman
