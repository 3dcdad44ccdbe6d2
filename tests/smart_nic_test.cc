// End-to-end tests of the SmartNic device: TX path through doorbell ->
// DMA -> pipeline -> scheduler -> wire, RX path wire -> flow match -> ring,
// control-plane privilege, overlay slots, and notification delivery.
#include "src/nic/smart_nic.h"

#include <gtest/gtest.h>

#include "src/net/packet_builder.h"
#include "src/nic/fifo_scheduler.h"

namespace norman::nic {
namespace {

using net::ConnectionId;
using net::Direction;
using net::FiveTuple;
using net::FrameEndpoints;
using net::IpProto;
using net::Ipv4Address;
using net::MacAddress;
using net::Packet;
using net::PacketPtr;

constexpr auto kLocalIp = Ipv4Address::FromOctets(10, 0, 0, 1);
constexpr auto kRemoteIp = Ipv4Address::FromOctets(10, 0, 0, 2);

class SmartNicTest : public ::testing::Test {
 protected:
  SmartNicTest() : nic_(&sim_, SmartNic::Options{}) {
    cp_ = nic_.TakeControlPlane();
    nic_.SetWireSink([this](PacketPtr p) { wire_out_.push_back(std::move(p)); });
    cp_->SetFallbackSink([this](PacketPtr p, Direction d) {
      fallback_.emplace_back(std::move(p), d);
    });
  }

  FlowEntry MakeFlow(ConnectionId conn, uint16_t src_port,
                     uint32_t pid = 100) {
    FlowEntry e;
    e.conn_id = conn;
    e.tuple = FiveTuple{kLocalIp, kRemoteIp, src_port, 80, IpProto::kUdp};
    e.owner = overlay::ConnMetadata{conn, 1000, pid, 1};
    return e;
  }

  PacketPtr MakeTxPacket(uint16_t src_port, size_t payload = 64) {
    FrameEndpoints ep{MacAddress::ForHost(1), MacAddress::ForHost(2),
                      kLocalIp, kRemoteIp};
    return BuildUdpPacket(ep, src_port, 80,
                          std::vector<uint8_t>(payload, 0xaa));
  }

  PacketPtr MakeRxPacket(uint16_t dst_port, size_t payload = 64) {
    FrameEndpoints ep{MacAddress::ForHost(2), MacAddress::ForHost(1),
                      kRemoteIp, kLocalIp};
    return BuildUdpPacket(ep, 80, dst_port,
                          std::vector<uint8_t>(payload, 0xbb));
  }

  // Pushes a packet into the connection's TX ring and rings the doorbell.
  void SendOne(ConnectionId conn, uint16_t src_port) {
    RingPair* rings = cp_->GetRings(conn);
    ASSERT_NE(rings, nullptr);
    ASSERT_TRUE(rings->tx().TryPush(MakeTxPacket(src_port)));
    ASSERT_TRUE(nic_.Doorbell(conn, sim_.Now()).ok());
  }

  sim::Simulator sim_;
  SmartNic nic_;
  std::unique_ptr<SmartNic::ControlPlane> cp_;
  std::vector<PacketPtr> wire_out_;
  std::vector<std::pair<PacketPtr, Direction>> fallback_;
};

TEST_F(SmartNicTest, ControlPlaneIsSingleton) {
  EXPECT_EQ(nic_.TakeControlPlane(), nullptr);
}

TEST_F(SmartNicTest, TxPathReachesWire) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  ASSERT_EQ(wire_out_.size(), 1u);
  EXPECT_EQ(nic_.stats().tx_seen(), 1u);
  EXPECT_EQ(nic_.stats().tx_accepted(), 1u);
  EXPECT_GT(wire_out_[0]->meta().completed_at, 0);
  EXPECT_EQ(wire_out_[0]->meta().connection, 1u);
}

TEST_F(SmartNicTest, DoorbellForUnknownConnectionFails) {
  EXPECT_EQ(nic_.Doorbell(99, 0).code(), StatusCode::kNotFound);
}

TEST_F(SmartNicTest, TxLatencyIncludesDmaPipelineWire) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  ASSERT_EQ(wire_out_.size(), 1u);
  const auto& cm = nic_.cost();
  const auto& m = wire_out_[0]->meta();
  // First packet: cold DDIO miss.
  const Nanos expected = cm.DmaCost(wire_out_[0]->size(), false) +
                         cm.NicPipelineOccupancy() +
                         cm.WireCost(wire_out_[0]->size());
  EXPECT_EQ(m.completed_at - m.nic_arrival, expected);
}

TEST_F(SmartNicTest, SecondPacketHitsDdio) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  const uint64_t misses_after_first = nic_.ddio().misses();
  SendOne(1, 1234);
  sim_.Run();
  EXPECT_EQ(nic_.ddio().misses(), misses_after_first);
  EXPECT_GE(nic_.ddio().hits(), 1u);
}

TEST_F(SmartNicTest, MultiplePacketsSerializeOnWire) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  RingPair* rings = cp_->GetRings(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rings->tx().TryPush(MakeTxPacket(1234)));
  }
  ASSERT_TRUE(nic_.Doorbell(1, 0).ok());
  sim_.Run();
  ASSERT_EQ(wire_out_.size(), 10u);
  // Wire completions are strictly increasing and at least wire-time apart.
  for (size_t i = 1; i < wire_out_.size(); ++i) {
    const Nanos gap = wire_out_[i]->meta().completed_at -
                      wire_out_[i - 1]->meta().completed_at;
    EXPECT_GE(gap, nic_.cost().WireCost(wire_out_[i]->size()));
  }
}

TEST_F(SmartNicTest, RxPathDeliversToRing) {
  FlowEntry flow = MakeFlow(1, 5555);
  flow.notify_rx = false;
  ASSERT_TRUE(cp_->InstallFlow(std::move(flow)).ok());
  nic_.DeliverFromWire(MakeRxPacket(5555), 0);
  sim_.Run();
  RingPair* rings = cp_->GetRings(1);
  EXPECT_EQ(rings->rx().size(), 1u);
  auto pkt = rings->rx().TryPop();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ((*pkt)->meta().connection, 1u);
  EXPECT_EQ(nic_.stats().rx_accepted(), 1u);
}

TEST_F(SmartNicTest, RxUnmatchedGoesToFallback) {
  nic_.DeliverFromWire(MakeRxPacket(4444), 0);  // no flow installed
  sim_.Run();
  EXPECT_EQ(nic_.stats().rx_unmatched(), 1u);
  ASSERT_EQ(fallback_.size(), 1u);
  EXPECT_EQ(fallback_[0].second, Direction::kRx);
}

TEST_F(SmartNicTest, RxRingOverflowDropsAndCounts) {
  SmartNic::Options opts;
  opts.ring_entries = 4;
  sim::Simulator sim;
  SmartNic nic(&sim, opts);
  auto cp = nic.TakeControlPlane();
  ASSERT_TRUE(cp->InstallFlow(MakeFlow(1, 5555)).ok());
  for (int i = 0; i < 6; ++i) {
    nic.DeliverFromWire(MakeRxPacket(5555), sim.Now());
    sim.Run();
  }
  EXPECT_EQ(cp->GetRings(1)->rx().size(), 4u);
  EXPECT_EQ(nic.stats().rx_ring_overflow(), 2u);
}

TEST_F(SmartNicTest, RxNotificationPosted) {
  FlowEntry flow = MakeFlow(1, 5555, /*pid=*/777);
  flow.notify_rx = true;
  ASSERT_TRUE(cp_->InstallFlow(std::move(flow)).ok());
  NotificationQueue* q = cp_->RegisterNotificationQueue(777);
  nic_.DeliverFromWire(MakeRxPacket(5555), 0);
  sim_.Run();
  auto n = q->Poll();
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->kind, NotificationKind::kRxData);
  EXPECT_EQ(n->conn_id, 1u);
}

TEST_F(SmartNicTest, TxDrainNotificationPosted) {
  FlowEntry flow = MakeFlow(1, 1234, /*pid=*/888);
  flow.notify_tx_drain = true;
  ASSERT_TRUE(cp_->InstallFlow(std::move(flow)).ok());
  NotificationQueue* q = cp_->RegisterNotificationQueue(888);
  SendOne(1, 1234);
  sim_.Run();
  auto n = q->Poll();
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->kind, NotificationKind::kTxDrained);
}

TEST_F(SmartNicTest, DropStageDropsTx) {
  class DropAll : public PipelineStage {
   public:
    std::string_view name() const override { return "drop_all"; }
    StageResult Process(Packet&, const overlay::PacketContext&) override {
      return StageResult{Verdict::kDrop, 0};
    }
  };
  DropAll stage;
  cp_->AddTxStage(&stage);
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  EXPECT_TRUE(wire_out_.empty());
  EXPECT_EQ(nic_.stats().tx_dropped(), 1u);
  EXPECT_EQ(nic_.stats().tx_accepted(), 0u);
}

TEST_F(SmartNicTest, StagesSeeOwnerMetadataOnTx) {
  // The crux of KOPI: a stage matching on owner_uid, which only works
  // because the kernel stamped the flow table.
  class CaptureUid : public PipelineStage {
   public:
    std::string_view name() const override { return "capture"; }
    StageResult Process(Packet&, const overlay::PacketContext& ctx) override {
      seen_uid = ctx.conn.owner_uid;
      seen_pid = ctx.conn.owner_pid;
      return {};
    }
    uint32_t seen_uid = 0;
    uint32_t seen_pid = 0;
  };
  CaptureUid stage;
  cp_->AddTxStage(&stage);
  FlowEntry flow = MakeFlow(1, 1234, /*pid=*/4242);
  ASSERT_TRUE(cp_->InstallFlow(std::move(flow)).ok());
  SendOne(1, 1234);
  sim_.Run();
  EXPECT_EQ(stage.seen_uid, 1000u);
  EXPECT_EQ(stage.seen_pid, 4242u);
}

TEST_F(SmartNicTest, FallbackVerdictDivertsTx) {
  class DivertAll : public PipelineStage {
   public:
    std::string_view name() const override { return "divert"; }
    StageResult Process(Packet&, const overlay::PacketContext&) override {
      return StageResult{Verdict::kSoftwareFallback, 0};
    }
  };
  DivertAll stage;
  cp_->AddTxStage(&stage);
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  EXPECT_TRUE(wire_out_.empty());
  ASSERT_EQ(fallback_.size(), 1u);
  EXPECT_TRUE(fallback_[0].first->meta().software_fallback);
  EXPECT_EQ(nic_.stats().tx_fallback(), 1u);
}

TEST_F(SmartNicTest, ReinjectedFallbackFrameIsNotDivertedAgain) {
  // Diverts everything; declared pure so the walk of a frame that may use
  // the flow cache could be summarized into an entry.
  class DivertAll : public PipelineStage {
   public:
    std::string_view name() const override { return "divert"; }
    StageCacheClass cache_class() const override {
      return StageCacheClass::kPure;
    }
    StageResult Process(Packet&, const overlay::PacketContext&) override {
      return StageResult{Verdict::kSoftwareFallback, 0};
    }
  };
  DivertAll stage;
  cp_->AddTxStage(&stage);
  FlowCache* cache = cp_->EnableFlowCache();
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  ASSERT_EQ(fallback_.size(), 1u);
  EXPECT_EQ(nic_.stats().tx_fallback(), 1u);
  EXPECT_EQ(cache->size(), 0u);  // fallback verdicts are never cached

  // The host slow path sends the diverted frame back out: the repeat
  // FALLBACK passes to the wire instead of looping back to the host.
  PacketPtr diverted = std::move(fallback_[0].first);
  fallback_.clear();
  ASSERT_TRUE(diverted->meta().software_fallback);
  const uint64_t lookups = cache->hits() + cache->misses();
  nic_.InjectHostPacket(std::move(diverted), sim_.Now());
  sim_.Run();
  ASSERT_EQ(wire_out_.size(), 1u);
  EXPECT_TRUE(fallback_.empty());
  EXPECT_EQ(nic_.stats().tx_seen(), 2u);
  EXPECT_EQ(nic_.stats().tx_accepted(), 1u);
  EXPECT_EQ(nic_.stats().tx_fallback(), 1u);  // the first pass only
  // The re-injected frame bypasses the cache: no lookup, no entry.
  EXPECT_EQ(cache->hits() + cache->misses(), lookups);
  EXPECT_EQ(cache->size(), 0u);
}

TEST_F(SmartNicTest, OverlaySlotLoadAndGenerations) {
  overlay::Program prog{overlay::Instruction::RetImm(1)};
  auto t = cp_->LoadOverlay(0, prog);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(*t, 0);
  EXPECT_EQ(cp_->overlay_generation(0), 1u);
  ASSERT_NE(cp_->OverlaySlot(0), nullptr);
  EXPECT_EQ(cp_->OverlaySlot(0)->source().size(), 1u);

  // Larger program costs more to load.
  overlay::Program big(100, overlay::Instruction::Ldi(1, 0));
  big.push_back(overlay::Instruction::RetImm(0));
  auto t2 = cp_->LoadOverlay(1, big);
  ASSERT_TRUE(t2.ok());
  EXPECT_GT(*t2, *t);
}

TEST_F(SmartNicTest, OverlayLoadRejectsInvalidProgram) {
  overlay::Program bad{overlay::Instruction::Ldi(1, 0)};  // falls off end
  EXPECT_FALSE(cp_->LoadOverlay(0, bad).ok());
  EXPECT_EQ(cp_->OverlaySlot(0), nullptr);
}

TEST_F(SmartNicTest, OverlayLoadRejectsBadSlot) {
  overlay::Program prog{overlay::Instruction::RetImm(1)};
  EXPECT_FALSE(cp_->LoadOverlay(kNumOverlaySlots, prog).ok());
}

TEST_F(SmartNicTest, BitstreamReloadWipesOverlaysAndIsSlow) {
  overlay::Program prog{overlay::Instruction::RetImm(1)};
  ASSERT_TRUE(cp_->LoadOverlay(0, prog).ok());
  const Nanos reload = cp_->ReloadBitstream();
  EXPECT_GE(reload, 1 * kSecond);
  EXPECT_EQ(cp_->OverlaySlot(0), nullptr);
}

TEST_F(SmartNicTest, FlowInstallChargesSramAndRemoveRefunds) {
  const uint64_t before = cp_->sram().used();
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  EXPECT_GT(cp_->sram().used(), before);
  ASSERT_TRUE(cp_->RemoveFlow(1).ok());
  EXPECT_EQ(cp_->sram().used(), before);
}

TEST_F(SmartNicTest, SchedulerSwapRequiresEmptyBacklog) {
  EXPECT_TRUE(cp_->SetScheduler(std::make_unique<FifoScheduler>()).ok());
  EXPECT_FALSE(cp_->SetScheduler(nullptr).ok());
}

TEST_F(SmartNicTest, RemoveFlowInvalidatesDdio) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  SendOne(1, 1234);
  sim_.Run();
  ASSERT_TRUE(cp_->RemoveFlow(1).ok());
  // Reinstall and send: must miss again (residency was invalidated).
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 1234)).ok());
  const uint64_t misses_before = nic_.ddio().misses();
  SendOne(1, 1234);
  sim_.Run();
  EXPECT_EQ(nic_.ddio().misses(), misses_before + 1);
}

TEST_F(SmartNicTest, RxQueueOverrideBeatsRss) {
  // Flow-table rx_queue pins a connection to a lane ("virtual interface"
  // partitioning); flows without a pin spread via RSS. Ingress steers the
  // frame to that lane, and the lane is the queue the frame reports.
  ASSERT_TRUE(cp_->EnableSharding(8).ok());
  FlowEntry pinned = MakeFlow(1, 5555);
  pinned.rx_queue = 5;
  ASSERT_TRUE(cp_->InstallFlow(std::move(pinned)).ok());
  nic_.DeliverFromWire(MakeRxPacket(5555), 0);
  sim_.Run();
  auto pkt = cp_->GetRings(1)->rx().TryPop();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ((*pkt)->meta().rx_queue, 5);
  // The frame crossed lane 5's ingress ring, not another lane's.
  for (int q = 0; q < 8; ++q) {
    const std::string gauge =
        "queue.nic.rx_ring.q" + std::to_string(q) + ".high_water";
    EXPECT_EQ(sim_.metrics().GetGauge(gauge)->value(), q == 5 ? 1 : 0)
        << gauge;
  }

  FlowEntry spread = MakeFlow(2, 6666);
  spread.rx_queue = 0;  // RSS decides
  ASSERT_TRUE(cp_->InstallFlow(std::move(spread)).ok());
  nic_.DeliverFromWire(MakeRxPacket(6666), sim_.Now());
  sim_.Run();
  auto pkt2 = cp_->GetRings(2)->rx().TryPop();
  ASSERT_TRUE(pkt2.has_value());
  const net::FiveTuple inbound{kRemoteIp, kLocalIp, 80, 6666,
                               net::IpProto::kUdp};
  EXPECT_EQ((*pkt2)->meta().rx_queue, cp_->rss().Steer(inbound));
}

TEST_F(SmartNicTest, MmioDoorbellWindowMapsToConnection) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(5, 1234)).ok());
  DoorbellWindow win = cp_->MapDoorbell(5);
  ASSERT_TRUE(win.Write(kRegTxHead, 42).ok());
  EXPECT_EQ(cp_->mmio().Read(DoorbellAddr(5, kRegTxHead)), 42u);
}

TEST_F(SmartNicTest, RemoveFlowFreesDoorbellRegisters) {
  // Connect/close cycles must not grow the register file: a flow's
  // doorbell block goes with the flow, and the next connection reuses it.
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(100, 999)).ok());
  ASSERT_TRUE(cp_->MapDoorbell(100).Write(kRegTxHead, 42).ok());
  const size_t before = cp_->mmio().register_count();
  for (ConnectionId conn = 1; conn <= 50; ++conn) {
    ASSERT_TRUE(
        cp_->InstallFlow(MakeFlow(conn, static_cast<uint16_t>(1000 + conn)))
            .ok());
    DoorbellWindow win = cp_->MapDoorbell(conn);
    ASSERT_TRUE(win.Write(kRegTxHead, 7).ok());
    ASSERT_TRUE(win.Write(kRegRxTail, 9).ok());
    EXPECT_EQ(cp_->mmio().register_count(), before + 2);
    ASSERT_TRUE(cp_->RemoveFlow(conn).ok());
    EXPECT_EQ(cp_->mmio().register_count(), before);
    for (MmioAddr reg = kRegTxHead; reg <= kRegRxTail; ++reg) {
      EXPECT_EQ(cp_->mmio().Read(DoorbellAddr(conn, reg)), 0u);
    }
  }
  // The live connection's block is untouched.
  EXPECT_EQ(cp_->mmio().Read(DoorbellAddr(100, kRegTxHead)), 42u);
}

TEST_F(SmartNicTest, RingsStayPutWhileTheFlowTableGrows) {
  // The flow table's slab moves its entries as it grows several times; the
  // ring pair an application holds must stay where it was handed out.
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 5555)).ok());
  RingPair* first = cp_->GetRings(1);
  ASSERT_NE(first, nullptr);
  for (ConnectionId conn = 2; conn <= 1000; ++conn) {
    ASSERT_TRUE(
        cp_->InstallFlow(MakeFlow(conn, static_cast<uint16_t>(10000 + conn)))
            .ok());
  }
  ASSERT_EQ(cp_->GetRings(1), first);
  nic_.DeliverFromWire(MakeRxPacket(5555), 0);
  sim_.Run();
  ASSERT_EQ(first->rx().size(), 1u);
  EXPECT_EQ((*first->rx().Peek())->meta().connection, 1u);
}

TEST_F(SmartNicTest, RemovingAFlowReleasesItsQueuedFramesAndSram) {
  ASSERT_TRUE(cp_->InstallFlow(MakeFlow(1, 5555)).ok());
  nic_.DeliverFromWire(MakeRxPacket(5555), 0);
  sim_.Run();
  const telemetry::Gauge* depth =
      sim_.metrics().GetGauge("queue.nic.rx_ring.depth");
  ASSERT_EQ(depth->value(), 1);
  EXPECT_EQ(cp_->sram().UsedBy("flow_table"), kFlowEntryBytes);
  EXPECT_EQ(cp_->sram().UsedBy("ring_state"), kRingStateBytes);

  ASSERT_TRUE(cp_->RemoveFlow(1).ok());
  EXPECT_EQ(depth->value(), 0);
  EXPECT_EQ(cp_->sram().UsedBy("flow_table"), 0u);
  EXPECT_EQ(cp_->sram().UsedBy("ring_state"), 0u);
  EXPECT_EQ(cp_->GetRings(1), nullptr);
}

}  // namespace
}  // namespace norman::nic
