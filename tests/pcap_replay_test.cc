// Pcap replay: capture-with-norman-tcpdump, replay-against-a-host loop.
#include "src/workload/pcap_replay.h"

#include <gtest/gtest.h>

#include "src/norman/listener.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman::workload {
namespace {

using net::Ipv4Address;

// Builds a small pcap in memory: three UDP frames at t=1ms,2ms,4ms.
net::PcapWriter MakeTrace(uint16_t dst_port) {
  net::PcapWriter pcap;
  net::FrameEndpoints ep{net::MacAddress::ForHost(2),
                         net::MacAddress::ForHost(1),
                         Ipv4Address::FromOctets(10, 0, 0, 2),
                         Ipv4Address::FromOctets(10, 0, 0, 1)};
  for (int i = 0; i < 3; ++i) {
    const Nanos t = (i == 2 ? 4 : i + 1) * kMillisecond;
    pcap.AddRecord(t, net::BuildUdpPacket(
                          ep, static_cast<uint16_t>(7000 + i), dst_port,
                          std::vector<uint8_t>(32, static_cast<uint8_t>(i)))
                          ->bytes());
  }
  return pcap;
}

TEST(PcapReplayTest, FramesArriveWithOriginalSpacing) {
  TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "srv");
  auto listener = Listener::Create(&k, pid, 8080);
  ASSERT_TRUE(listener.ok());

  const auto pcap = MakeTrace(8080);
  auto report = ReplayPcap(&bed.sim(), &bed.nic(), pcap.buffer(), {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_injected, 3u);
  EXPECT_EQ(report->last_at - report->first_at, 3 * kMillisecond);
  bed.sim().Run();
  // Three peers -> three auto-accepted connections.
  int accepted = 0;
  while (listener->Accept().ok()) {
    ++accepted;
  }
  EXPECT_EQ(accepted, 3);
}

TEST(PcapReplayTest, TimeScaleCompresses) {
  TestBed bed;
  const auto pcap = MakeTrace(9);
  ReplayOptions opts;
  opts.time_scale = 0.0;  // back-to-back
  opts.start_at = 500;
  auto report = ReplayPcap(&bed.sim(), &bed.nic(), pcap.buffer(), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->first_at, 500);
  EXPECT_EQ(report->last_at, 500);
  bed.sim().Run();
  EXPECT_EQ(bed.nic().stats().rx_seen(), 3u);
}

TEST(PcapReplayTest, FilterSkipsFrames) {
  TestBed bed;
  const auto pcap = MakeTrace(9);
  ReplayOptions opts;
  opts.frame_filter = [](const net::PcapRecord& rec) {
    auto parsed = net::ParseFrame(rec.bytes);
    return parsed && parsed->flow() && parsed->flow()->src_port != 7001;
  };
  auto report = ReplayPcap(&bed.sim(), &bed.nic(), pcap.buffer(), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->frames_injected, 2u);
  EXPECT_EQ(report->frames_skipped, 1u);
}

TEST(PcapReplayTest, RejectsGarbageFile) {
  TestBed bed;
  const std::vector<uint8_t> junk(100, 0xab);
  EXPECT_FALSE(ReplayPcap(&bed.sim(), &bed.nic(), junk, {}).ok());
}

TEST(PcapReplayTest, EmptyTraceIsNoop) {
  TestBed bed;
  net::PcapWriter empty;
  auto report = ReplayPcap(&bed.sim(), &bed.nic(), empty.buffer(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->frames_injected, 0u);
}

TEST(PcapReplayTest, CaptureThenReplayRoundTrip) {
  // Capture host A's egress with the sniffer, then replay that capture
  // into a fresh host and verify the same frames arrive.
  TestBed source;
  auto& ks = source.kernel();
  ks.processes().AddUser(1, "u");
  const auto pid = *ks.processes().Spawn(1, "app");
  ASSERT_TRUE(ks.StartCapture(kernel::kRootUid).ok());
  auto sock = Socket::Connect(&ks, pid,
                              Ipv4Address::FromOctets(10, 0, 0, 2), 8088,
                              {});
  ASSERT_TRUE(sock.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sock->Send("replayable " + std::to_string(i)).ok());
  }
  source.sim().Run();
  ASSERT_EQ(ks.sniffer().captured(), 5u);

  TestBed target;
  auto report = ReplayPcap(&target.sim(), &target.nic(),
                           ks.sniffer().pcap().buffer(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->frames_injected, 5u);
  target.sim().Run();
  EXPECT_EQ(target.nic().stats().rx_seen(), 5u);
}

}  // namespace
}  // namespace norman::workload
