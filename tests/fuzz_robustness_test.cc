// Robustness: random and malformed input must never crash or corrupt the
// system — fuzzed frame parsing, garbage through the full NIC RX path,
// packet-conservation invariants under randomized workloads, and random
// socket operation sequences.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/parsed_packet.h"
#include "src/norman/socket.h"
#include "src/overlay/decoded_program.h"
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

// A random program over every opcode: nop, ldi/ldf/ldb, the eight ALU ops
// with register and immediate operands, jmp, the six compares against a
// register and an immediate, and ret. About a quarter of the draws are an
// ldf followed by a compare, mostly on the loaded register (a pair the
// decoder fuses), otherwise on another one (a pair it must not). Jump
// targets are drawn once the body is laid out; half of them land on the
// compare half of an ldf/compare pair ahead when there is one. A few shift
// immediates are out of range, so some programs fail verification.
overlay::Program RandomOverlayProgram(Rng& rng) {
  using overlay::Instruction;
  using overlay::Opcode;
  const auto reg = [&] {
    return static_cast<uint8_t>(rng.NextBounded(overlay::kNumRegisters));
  };
  const auto offset = [](Opcode first, uint64_t i) {
    return static_cast<Opcode>(static_cast<uint64_t>(first) + i);
  };
  // Comparands that field values actually take, and now and then any value.
  const auto comparand = [&]() -> int64_t {
    constexpr int64_t kValues[] = {0, 1, 2, 6, 17, 80, 443, 1000, 4242, 0x0800};
    return rng.NextBool(0.8) ? kValues[rng.NextBounded(std::size(kValues))]
                             : static_cast<int64_t>(rng.NextU64());
  };
  const auto compare = [&](uint8_t lhs) {
    const Opcode op = offset(Opcode::kJeq, rng.NextBounded(6));
    return rng.NextBool(0.5) ? Instruction::JmpCmpImm(op, lhs, comparand(), 0)
                             : Instruction::JmpCmpReg(op, lhs, reg(), 0);
  };
  const auto field = [&] {
    return static_cast<overlay::Field>(rng.NextBounded(20));
  };
  const auto ret = [&] {
    return rng.NextBool(0.5) ? Instruction::RetImm(comparand())
                             : Instruction::RetReg(reg());
  };

  overlay::Program prog;
  const size_t body = rng.NextBounded(24);
  while (prog.size() < body) {
    const uint8_t rd = reg();
    switch (rng.NextBounded(9)) {
      case 0:
      case 1:
        prog.push_back(Instruction::Ldf(rd, field()));
        prog.push_back(compare(rng.NextBool(0.7) ? rd : reg()));
        break;
      case 2:
        prog.push_back(compare(rd));
        break;
      case 3: {
        const Opcode op = offset(Opcode::kAdd, rng.NextBounded(8));
        const bool shift = op == Opcode::kShl || op == Opcode::kShr;
        const int64_t imm =
            shift ? static_cast<int64_t>(rng.NextBounded(66))
                  : (rng.NextBool(0.8)
                         ? static_cast<int64_t>(rng.NextInRange(0, 2000)) - 1000
                         : static_cast<int64_t>(rng.NextU64()));
        prog.push_back(Instruction::AluImm(op, rd, imm));
        break;
      }
      case 4:
        prog.push_back(Instruction::AluReg(
            offset(Opcode::kAdd, rng.NextBounded(8)), rd, reg()));
        break;
      case 5:
        prog.push_back(rng.NextBool(0.5)
                           ? Instruction::Ldi(rd, comparand())
                           : Instruction::Ldf(rd, field()));
        break;
      case 6:
        prog.push_back(rng.NextBool(0.5)
                           ? Instruction::Ldb(rd, static_cast<int64_t>(
                                                      rng.NextBounded(256)))
                           : Instruction{});  // nop
        break;
      case 7:
        prog.push_back(Instruction::Jmp(0));
        break;
      default:
        prog.push_back(ret());
        break;
    }
  }
  prog.push_back(ret());

  const auto is_compare_half = [&](size_t i) {
    return i > 0 && prog[i - 1].op == Opcode::kLdf &&
           overlay::IsJump(prog[i].op) && prog[i].op != Opcode::kJmp;
  };
  for (size_t pc = 0; pc + 1 < prog.size(); ++pc) {
    if (!overlay::IsJump(prog[pc].op)) {
      continue;
    }
    std::vector<size_t> halves;
    for (size_t t = pc + 1; t < prog.size(); ++t) {
      if (is_compare_half(t)) {
        halves.push_back(t);
      }
    }
    prog[pc].jump_target = static_cast<int64_t>(
        !halves.empty() && rng.NextBool(0.5)
            ? halves[rng.NextBounded(halves.size())]
            : rng.NextInRange(pc + 1, prog.size() - 1));
  }
  return prog;
}

TEST(FuzzTest, OverlayInterpreterSafeOnRandomVerifiedPrograms) {
  // Random programs that pass the verifier must execute without error, and
  // their decoded form must agree with Execute on the verdict and the
  // instruction count, on UDP, TCP, ARP and unparsed frames in both
  // directions, with owner metadata attached.
  Rng rng(0xabcd);
  const overlay::ConnMetadata owner{42, 1000, 4242, 3, 7, 2};
  std::vector<std::unique_ptr<test::ContextBundle>> contexts;
  for (const auto dir : {net::Direction::kTx, net::Direction::kRx}) {
    contexts.push_back(test::MakeUdpContext(5555, 80, dir, owner));
    contexts.push_back(test::MakeTcpContext(
        443, 6000, net::TcpFlags::kSyn | net::TcpFlags::kAck, dir, owner, 20));
    contexts.push_back(test::MakeArpContext(dir, owner));
    contexts.push_back(
        test::MakeUnparsedContext(RandomBytes(rng, 200), dir, owner));
  }

  int verified = 0;
  int onto_compare_half = 0;  // a jump lands on the compare after an ldf
  int other_register = 0;     // an ldf followed by a compare on another reg
  for (int trial = 0; trial < 5000; ++trial) {
    const overlay::Program prog = RandomOverlayProgram(rng);
    const Status status = overlay::VerifyProgram(prog);
    auto decoded = overlay::DecodedProgram::Decode(prog);
    ASSERT_EQ(decoded.ok(), status.ok()) << status;
    if (!status.ok()) {
      continue;
    }
    ++verified;
    for (size_t pc = 0; pc + 1 < prog.size(); ++pc) {
      const overlay::Instruction& next = prog[pc + 1];
      if (prog[pc].op != overlay::Opcode::kLdf || !overlay::IsJump(next.op) ||
          next.op == overlay::Opcode::kJmp) {
        continue;
      }
      other_register += next.dst != prog[pc].dst;
      for (const overlay::Instruction& ins : prog) {
        if (overlay::IsJump(ins.op) &&
            ins.jump_target == static_cast<int64_t>(pc + 1)) {
          ++onto_compare_half;
          break;
        }
      }
    }
    for (const auto& bundle : contexts) {
      const auto result = overlay::Execute(prog, bundle->ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_LE(result->instructions_executed, prog.size());
      const overlay::ExecResult fast = decoded->Run(bundle->ctx);
      ASSERT_EQ(fast.verdict, result->verdict) << "trial " << trial;
      ASSERT_EQ(fast.instructions_executed, result->instructions_executed)
          << "trial " << trial;
    }
  }
  EXPECT_GT(verified, 1000);  // the generator mostly emits valid programs
  EXPECT_GT(onto_compare_half, 500);
  EXPECT_GT(other_register, 500);
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
