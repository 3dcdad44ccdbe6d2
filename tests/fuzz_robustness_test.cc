// Robustness: random and malformed input must never crash or corrupt the
// system — fuzzed frame parsing, garbage through the full NIC RX path,
// packet-conservation invariants under randomized workloads, and random
// socket operation sequences.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/parsed_packet.h"
#include "src/norman/socket.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/verifier.h"
#include "src/workload/testbed.h"
#include "src/net/packet_pool.h"
#include "tests/test_util.h"

namespace norman {
namespace {

using net::Ipv4Address;

constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);

std::vector<uint8_t> RandomBytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> bytes(rng.NextBounded(max_len + 1));
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return bytes;
}

// Random bytes with a plausible Ethernet+IPv4 prelude so parsing goes deep.
std::vector<uint8_t> SemiValidFrame(Rng& rng) {
  auto bytes = RandomBytes(rng, 200);
  if (bytes.size() >= 14 && rng.NextBool(0.7)) {
    bytes[12] = 0x08;
    bytes[13] = rng.NextBool(0.5) ? 0x00 : 0x06;  // IPv4 or ARP
    if (bytes.size() >= 34 && bytes[13] == 0x00 && rng.NextBool(0.7)) {
      bytes[14] = 0x45;  // version/IHL
      bytes[23] = rng.NextBool(0.5) ? 17 : 6;  // proto
    }
  }
  return bytes;
}

TEST(FuzzTest, ParseFrameNeverCrashesOrOverreads) {
  Rng rng(0xfeed);
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = SemiValidFrame(rng);
    auto parsed = net::ParseFrame(bytes);
    if (!parsed.has_value()) {
      continue;
    }
    // Offsets must stay inside the frame.
    EXPECT_LE(parsed->l3_offset, bytes.size());
    EXPECT_LE(parsed->l4_offset, bytes.size());
    EXPECT_LE(parsed->payload_offset, bytes.size());
    EXPECT_EQ(parsed->frame_size, bytes.size());
    if (parsed->flow()) {
      EXPECT_TRUE(parsed->is_ipv4());
    }
  }
}

TEST(FuzzTest, GarbageThroughNicRxPathIsSafe) {
  workload::TestBed bed;
  bed.kernel().processes().AddUser(1, "u");
  const auto pid = *bed.kernel().processes().Spawn(1, "app");
  auto sock = Socket::Connect(&bed.kernel(), pid, kPeerIp, 5000, {});
  ASSERT_TRUE(sock.ok());
  (void)bed.kernel().StartCapture(kernel::kRootUid);  // sniffer on, too

  Rng rng(0xbeef);
  Nanos t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.NextBounded(1000) + 1;
    bed.InjectFromNetwork(
        net::MakePacket(SemiValidFrame(rng)), t);
  }
  bed.sim().Run();
  // Everything was either dropped, unmatched, or (rarely) delivered —
  // but accounted for.
  const auto& stats = bed.nic().stats();
  EXPECT_EQ(stats.rx_seen(), 2000u);
  test::ExpectNicConservation(stats);
}

TEST(FuzzTest, OverlayInterpreterSafeOnRandomVerifiedPrograms) {
  // Random instruction streams that pass the verifier must execute without
  // error on arbitrary contexts.
  Rng rng(0xabcd);
  const std::vector<uint8_t> frame = SemiValidFrame(rng);
  auto parsed = net::ParseFrame(frame);
  overlay::PacketContext ctx;
  ctx.frame = frame;
  ctx.parsed = parsed ? &*parsed : nullptr;

  int verified = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    overlay::Program prog;
    const size_t len = 1 + rng.NextBounded(20);
    for (size_t i = 0; i + 1 < len; ++i) {
      overlay::Instruction ins;
      switch (rng.NextBounded(6)) {
        case 0:
          ins = overlay::Instruction::Ldi(
              static_cast<uint8_t>(rng.NextBounded(16)),
              static_cast<int64_t>(rng.NextBounded(1000)));
          break;
        case 1:
          ins = overlay::Instruction::Ldf(
              static_cast<uint8_t>(rng.NextBounded(16)),
              static_cast<overlay::Field>(rng.NextBounded(20)));
          break;
        case 2:
          ins = overlay::Instruction::Ldb(
              static_cast<uint8_t>(rng.NextBounded(16)),
              static_cast<int64_t>(rng.NextBounded(256)));
          break;
        case 3:
          ins = overlay::Instruction::AluImm(
              overlay::Opcode::kAdd,
              static_cast<uint8_t>(rng.NextBounded(16)),
              static_cast<int64_t>(rng.NextBounded(100)));
          break;
        case 4:
          ins = overlay::Instruction::AluImm(
              overlay::Opcode::kShr,
              static_cast<uint8_t>(rng.NextBounded(16)),
              static_cast<int64_t>(rng.NextBounded(64)));
          break;
        default:
          ins = overlay::Instruction::JmpCmpImm(
              overlay::Opcode::kJeq,
              static_cast<uint8_t>(rng.NextBounded(16)),
              static_cast<int64_t>(rng.NextBounded(10)),
              static_cast<int64_t>(i + 1 + rng.NextBounded(len - i - 1)));
          break;
      }
      prog.push_back(ins);
    }
    prog.push_back(overlay::Instruction::RetReg(
        static_cast<uint8_t>(rng.NextBounded(16))));
    if (!overlay::VerifyProgram(prog).ok()) {
      continue;
    }
    ++verified;
    auto result = overlay::Execute(prog, ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LE(result->instructions_executed, prog.size());
  }
  EXPECT_GT(verified, 1000);  // the generator mostly emits valid programs
}

TEST(InvariantTest, TxPacketConservationUnderRandomWorkload) {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");

  // A drop rule for some traffic, a fallback rule for other traffic.
  dataplane::FilterRule drop;
  drop.dst_port = dataplane::PortRange{100, 199};
  drop.action = dataplane::FilterAction::kDrop;
  dataplane::FilterRule fallback;
  fallback.dst_port = dataplane::PortRange{200, 299};
  fallback.action = dataplane::FilterAction::kSoftwareFallback;
  ASSERT_TRUE(k.AppendFilterRule(kernel::kRootUid, kernel::Chain::kOutput,
                                 drop)
                  .ok());
  ASSERT_TRUE(k.AppendFilterRule(kernel::kRootUid, kernel::Chain::kOutput,
                                 fallback)
                  .ok());

  Rng rng(0x1234);
  std::vector<Socket> socks;
  for (int i = 0; i < 20; ++i) {
    const auto port = static_cast<uint16_t>(50 + rng.NextBounded(300));
    auto s = Socket::Connect(&k, pid, kPeerIp, port, {});
    ASSERT_TRUE(s.ok());
    socks.push_back(std::move(*s));
  }
  int sent = 0;
  for (int round = 0; round < 50; ++round) {
    for (auto& s : socks) {
      if (rng.NextBool(0.7)) {
        if (s.Send(std::vector<uint8_t>(rng.NextBounded(800), 1)).ok()) {
          ++sent;
        }
      }
    }
    bed.sim().Run();
  }
  const auto& stats = bed.nic().stats();
  // Fallback TX packets re-enter the pipeline once (marked), so tx_seen
  // counts them twice.
  EXPECT_EQ(stats.tx_seen(),
            static_cast<uint64_t>(sent) + stats.tx_fallback());
  test::ExpectNicConservation(stats);
  // Everything accepted eventually hit the wire (sim ran to quiescence).
  EXPECT_EQ(bed.egress_frames(), stats.tx_accepted());
  EXPECT_GT(stats.tx_fallback(), 0u);
  EXPECT_GT(stats.tx_dropped(), 0u);
}

TEST(InvariantTest, RandomSocketOpSequenceNeverWedges) {
  workload::TestBedOptions opts;
  opts.echo = true;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "fuzz");

  Rng rng(0x777);
  std::vector<Socket> socks;
  uint16_t next_port = 1000;
  for (int op = 0; op < 3000; ++op) {
    const auto choice = rng.NextBounded(10);
    if (choice < 2 && socks.size() < 30) {
      auto s = Socket::Connect(&k, pid, kPeerIp, next_port++, {});
      if (s.ok()) {
        socks.push_back(std::move(*s));
      }
    } else if (choice < 6 && !socks.empty()) {
      auto& s = socks[rng.NextBounded(socks.size())];
      (void)s.Send(std::vector<uint8_t>(rng.NextBounded(500), 2));
    } else if (choice < 8 && !socks.empty()) {
      auto& s = socks[rng.NextBounded(socks.size())];
      (void)s.Recv();
    } else if (choice == 8 && !socks.empty()) {
      const size_t victim = rng.NextBounded(socks.size());
      (void)socks[victim].Close();
      socks.erase(socks.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      bed.sim().RunUntil(bed.sim().Now() + rng.NextBounded(10000));
    }
  }
  bed.sim().Run();
  // Terminal sanity: remaining sockets still function.
  for (auto& s : socks) {
    EXPECT_TRUE(s.valid());
  }
  SUCCEED();
}

}  // namespace
}  // namespace norman
