#include <gtest/gtest.h>

#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"
#include "src/overlay/assembler.h"
#include "src/overlay/decoded_program.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/verifier.h"

namespace norman::overlay {
namespace {

using net::FrameEndpoints;
using net::Ipv4Address;
using net::MacAddress;

// A UDP frame plus parse + context, bundled for test convenience.
struct TestPacket {
  std::vector<uint8_t> frame;
  net::ParsedPacket parsed;
  PacketContext ctx;
};

TestPacket MakeUdpPacket(uint16_t src_port, uint16_t dst_port,
                         uint32_t owner_uid = 1000,
                         uint32_t owner_pid = 4242) {
  TestPacket tp;
  FrameEndpoints ep{MacAddress::ForHost(1), MacAddress::ForHost(2),
                    Ipv4Address::FromOctets(10, 0, 0, 1),
                    Ipv4Address::FromOctets(10, 0, 0, 2)};
  const std::vector<uint8_t> payload(32, 0xee);
  const net::PacketPtr built = BuildUdpPacket(ep, src_port, dst_port, payload);
  tp.frame.assign(built->bytes().begin(), built->bytes().end());
  tp.parsed = *net::ParseFrame(tp.frame);
  tp.ctx.frame = tp.frame;
  tp.ctx.parsed = &tp.parsed;
  tp.ctx.conn = ConnMetadata{7, owner_uid, owner_pid, 3};
  tp.ctx.direction = net::Direction::kTx;
  return tp;
}

// Runs `prog` on the reference interpreter and on its decoded form, which
// must agree on the verdict and the instruction count.
int64_t MustRun(const Program& prog, const PacketContext& ctx) {
  EXPECT_TRUE(VerifyProgram(prog).ok()) << VerifyProgram(prog);
  auto r = Execute(prog, ctx);
  EXPECT_TRUE(r.ok()) << r.status();
  auto decoded = DecodedProgram::Decode(prog);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  const ExecResult d = decoded->Run(ctx);
  EXPECT_EQ(d.verdict, r->verdict);
  EXPECT_EQ(d.instructions_executed, r->instructions_executed);
  return r->verdict;
}

// The decoded form's result, checked against Execute like MustRun.
ExecResult MustRunDecoded(const DecodedProgram& prog,
                          const PacketContext& ctx) {
  const ExecResult d = prog.Run(ctx);
  auto r = Execute(prog.source(), ctx);
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(d.verdict, r->verdict);
  EXPECT_EQ(d.instructions_executed, r->instructions_executed);
  return d;
}

DecodedProgram MustDecode(std::string_view source) {
  auto prog = Assemble(source);
  EXPECT_TRUE(prog.ok()) << prog.status();
  auto decoded = DecodedProgram::Decode(*prog);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return std::move(*decoded);
}

TEST(InterpreterTest, RetImmediate) {
  Program p{Instruction::RetImm(42)};
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), 42);
}

TEST(InterpreterTest, RegistersStartAtZero) {
  Program p{Instruction::RetReg(5)};
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), 0);
}

TEST(InterpreterTest, AluOperations) {
  // r1 = 10; r1 += 5; r1 *= 3; r1 ^= 1; r1 <<= 2; ret r1 -> ((45^1)<<2)
  Program p{
      Instruction::Ldi(1, 10),
      Instruction::AluImm(Opcode::kAdd, 1, 5),
      Instruction::AluImm(Opcode::kMul, 1, 3),
      Instruction::AluImm(Opcode::kXor, 1, 1),
      Instruction::AluImm(Opcode::kShl, 1, 2),
      Instruction::RetReg(1),
  };
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), ((45 ^ 1) << 2));
}

TEST(InterpreterTest, RegisterToRegisterAlu) {
  Program p{
      Instruction::Ldi(1, 100),
      Instruction::Ldi(2, 33),
      Instruction::AluReg(Opcode::kSub, 1, 2),
      Instruction::RetReg(1),
  };
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), 67);
}

TEST(InterpreterTest, FieldLoads) {
  const auto tp = MakeUdpPacket(5432, 3306, /*uid=*/1001, /*pid=*/777);
  struct Case {
    Field field;
    uint64_t expected;
  };
  const Case cases[] = {
      {Field::kEthType, 0x0800},
      {Field::kIsIpv4, 1},
      {Field::kIsArp, 0},
      {Field::kIpProto, 17},
      {Field::kSrcPort, 5432},
      {Field::kDstPort, 3306},
      {Field::kOwnerUid, 1001},
      {Field::kOwnerPid, 777},
      {Field::kConnId, 7},
      {Field::kOwnerCgroup, 3},
      {Field::kDirection, 0},
      {Field::kPayloadLen, 32},
      {Field::kIpSrc, Ipv4Address::FromOctets(10, 0, 0, 1).addr},
      {Field::kIpDst, Ipv4Address::FromOctets(10, 0, 0, 2).addr},
      {Field::kTcpFlags, 0},
  };
  for (const auto& c : cases) {
    Program p{Instruction::Ldf(1, c.field), Instruction::RetReg(1)};
    EXPECT_EQ(static_cast<uint64_t>(MustRun(p, tp.ctx)), c.expected)
        << FieldName(c.field);
  }
}

TEST(InterpreterTest, ByteProbeInAndOutOfBounds) {
  const auto tp = MakeUdpPacket(1, 2);
  {
    Program p{Instruction::Ldb(1, 0), Instruction::RetReg(1)};
    EXPECT_EQ(MustRun(p, tp.ctx), tp.frame[0]);
  }
  {
    Program p{Instruction::Ldb(1, 200), Instruction::RetReg(1)};
    EXPECT_EQ(MustRun(p, tp.ctx), 0);  // past end reads 0
  }
}

TEST(InterpreterTest, ConditionalBranchTakenAndNot) {
  const auto tp = MakeUdpPacket(100, 200);
  // if dst_port == 200 ret 1 else ret 0
  Program p{
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 200, 3),
      Instruction::RetImm(0),
      Instruction::RetImm(1),
  };
  EXPECT_EQ(MustRun(p, tp.ctx), 1);
  const auto tp2 = MakeUdpPacket(100, 999);
  EXPECT_EQ(MustRun(p, tp2.ctx), 0);
}

TEST(InterpreterTest, AllComparisonOps) {
  struct Case {
    Opcode op;
    int64_t cmp;
    int64_t expected;  // 1 if branch taken
  };
  // r1 holds 50.
  const Case cases[] = {
      {Opcode::kJeq, 50, 1}, {Opcode::kJeq, 51, 0}, {Opcode::kJne, 51, 1},
      {Opcode::kJne, 50, 0}, {Opcode::kJgt, 49, 1}, {Opcode::kJgt, 50, 0},
      {Opcode::kJlt, 51, 1}, {Opcode::kJlt, 50, 0}, {Opcode::kJge, 50, 1},
      {Opcode::kJge, 51, 0}, {Opcode::kJle, 50, 1}, {Opcode::kJle, 49, 0},
  };
  const auto tp = MakeUdpPacket(1, 2);
  for (const auto& c : cases) {
    Program p{
        Instruction::Ldi(1, 50),
        Instruction::JmpCmpImm(c.op, 1, c.cmp, 3),
        Instruction::RetImm(0),
        Instruction::RetImm(1),
    };
    EXPECT_EQ(MustRun(p, tp.ctx), c.expected)
        << OpcodeName(c.op) << " vs " << c.cmp;
  }
}

TEST(InterpreterTest, InstructionCountReported) {
  Program p{
      Instruction::Ldi(1, 1),
      Instruction::Ldi(2, 2),
      Instruction::RetImm(0),
  };
  const auto tp = MakeUdpPacket(1, 2);
  auto r = Execute(p, tp.ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->instructions_executed, 3u);
}

TEST(InterpreterTest, UnverifiedFallOffEndFails) {
  Program p{Instruction::Ldi(1, 1)};
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_FALSE(Execute(p, tp.ctx).ok());
}

TEST(InterpreterTest, UnverifiedRegisterOutOfRangeFails) {
  const auto tp = MakeUdpPacket(1, 2);
  // Out-of-range destination: a write past the 16-entry register file.
  const Program bad_dst{Instruction::Ldi(40, 7), Instruction::RetReg(40)};
  // Out-of-range source: a register-operand read past it.
  const Program bad_src{Instruction::AluReg(Opcode::kAdd, 1, 40),
                        Instruction::RetReg(1)};
  const Program bad_cmp{
      Instruction::JmpCmpReg(Opcode::kJeq, 1, 16, 2),
      Instruction::RetImm(0),
      Instruction::RetImm(1),
  };
  for (const Program& p : {bad_dst, bad_src, bad_cmp}) {
    EXPECT_FALSE(VerifyProgram(p).ok());
    const auto r = Execute(p, tp.ctx);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
}

// --- Decoded programs ---

TEST(DecodedProgramTest, DecodeRunsTheVerifier) {
  const Program bad{Instruction::Ldi(1, 0)};  // falls off the end
  const auto decoded = DecodedProgram::Decode(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status(), VerifyProgram(bad));
}

TEST(DecodedProgramTest, FusedLoadAndCompareCountsTwoInstructions) {
  const DecodedProgram prog = MustDecode(R"(
      ldf r1, dst_port
      jeq r1, 80, hit
      ret 0
  hit:
      ret 1
  )");
  EXPECT_EQ(prog.source().size(), 4u);
  EXPECT_EQ(prog.op_count(), 3u);  // ldf+jeq fused
  const auto hit = MakeUdpPacket(5, 80);
  const auto miss = MakeUdpPacket(5, 81);
  EXPECT_EQ(MustRunDecoded(prog, hit.ctx).verdict, 1);
  EXPECT_EQ(MustRunDecoded(prog, hit.ctx).instructions_executed, 3u);
  EXPECT_EQ(MustRunDecoded(prog, miss.ctx).verdict, 0);
  EXPECT_EQ(MustRunDecoded(prog, miss.ctx).instructions_executed, 3u);
}

TEST(DecodedProgramTest, JumpOntoACompareKeepsItsLoadSeparate) {
  // The first jump lands on the compare of the second ldf/jeq pair, so a
  // path can reach that compare without the load: the pair is not fused.
  const DecodedProgram prog = MustDecode(R"(
      ldf r2, src_port
      jeq r2, 7, cmp
      ldf r1, dst_port
  cmp:
      jeq r1, 80, hit
      ret 0
  hit:
      ret 1
  )");
  EXPECT_EQ(prog.op_count(), 5u);  // only the first pair fused
  const auto skip_load = MakeUdpPacket(7, 80);
  const auto via_load = MakeUdpPacket(8, 80);
  EXPECT_EQ(MustRunDecoded(prog, skip_load.ctx).verdict, 0);  // r1 still 0
  EXPECT_EQ(MustRunDecoded(prog, skip_load.ctx).instructions_executed, 4u);
  EXPECT_EQ(MustRunDecoded(prog, via_load.ctx).verdict, 1);
  EXPECT_EQ(MustRunDecoded(prog, via_load.ctx).instructions_executed, 5u);
}

TEST(DecodedProgramTest, CompareOnAnotherRegisterIsNotFused) {
  const DecodedProgram prog = MustDecode(R"(
      ldi r2, 5
      ldf r1, dst_port
      jeq r2, 5, hit
      ret 0
  hit:
      ret r1
  )");
  EXPECT_EQ(prog.op_count(), 5u);
  const auto pkt = MakeUdpPacket(1, 80);
  EXPECT_EQ(MustRunDecoded(prog, pkt.ctx).verdict, 80);
  EXPECT_EQ(MustRunDecoded(prog, pkt.ctx).instructions_executed, 4u);
}

TEST(DecodedProgramTest, FusedRegisterCompareReadsTheLoadedValue) {
  // The comparand is the loaded register itself, or one set before.
  const DecodedProgram self = MustDecode(R"(
      ldf r1, dst_port
      jeq r1, r1, hit
      ret 0
  hit:
      ret r1
  )");
  const DecodedProgram other = MustDecode(R"(
      ldi r2, 80
      ldf r1, dst_port
      jge r1, r2, hit
      ret 0
  hit:
      ret 1
  )");
  EXPECT_EQ(self.op_count(), 3u);
  EXPECT_EQ(other.op_count(), 4u);
  const auto pkt = MakeUdpPacket(1, 443);
  EXPECT_EQ(MustRunDecoded(self, pkt.ctx).verdict, 443);
  EXPECT_EQ(MustRunDecoded(other, pkt.ctx).verdict, 1);
  const auto low = MakeUdpPacket(1, 79);
  EXPECT_EQ(MustRunDecoded(other, low.ctx).verdict, 0);
}

TEST(DecodedProgramTest, FieldLoadedTwiceReadsTheSameValue) {
  // One field-vector slot serves every ldf of a field, fused or not.
  const DecodedProgram prog = MustDecode(R"(
      ldf r1, owner_uid
      ldf r2, owner_uid
      jne r2, 1000, out
      add r1, r2
      ret r1
  out:
      ret 0
  )");
  const auto pkt = MakeUdpPacket(1, 2, /*owner_uid=*/1000);
  EXPECT_EQ(MustRunDecoded(prog, pkt.ctx).verdict, 2000);
  const auto other = MakeUdpPacket(1, 2, /*owner_uid=*/1001);
  EXPECT_EQ(MustRunDecoded(prog, other.ctx).verdict, 0);
}

// --- Verifier ---

TEST(VerifierTest, AcceptsMinimalProgram) {
  EXPECT_TRUE(VerifyProgram({Instruction::RetImm(1)}).ok());
}

TEST(VerifierTest, RejectsEmpty) {
  EXPECT_FALSE(VerifyProgram({}).ok());
}

TEST(VerifierTest, RejectsOverlongProgram) {
  Program p(kMaxProgramLength + 1, Instruction::RetImm(0));
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsBackwardJump) {
  Program p{
      Instruction::Ldi(1, 0),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 0, 0),  // backward
      Instruction::RetImm(0),
  };
  auto s = VerifyProgram(p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("backward"), std::string::npos);
}

TEST(VerifierTest, RejectsSelfJump) {
  Program p{
      Instruction::Jmp(0),
      Instruction::RetImm(0),
  };
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsOutOfBoundsJump) {
  Program p{
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 0, 99),
      Instruction::RetImm(0),
  };
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsFallOffEnd) {
  Program p{Instruction::Ldi(1, 5)};
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsTrailingUnconditionalJump) {
  Program p{Instruction::RetImm(0), Instruction::Jmp(1)};
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsBadRegister) {
  Instruction bad = Instruction::Ldi(99, 0);
  EXPECT_FALSE(VerifyProgram({bad, Instruction::RetImm(0)}).ok());
}

TEST(VerifierTest, RejectsBadFieldId) {
  Instruction bad = Instruction::Ldf(1, static_cast<Field>(200));
  EXPECT_FALSE(VerifyProgram({bad, Instruction::RetImm(0)}).ok());
}

TEST(VerifierTest, RejectsBadByteOffset) {
  EXPECT_FALSE(
      VerifyProgram({Instruction::Ldb(1, 9999), Instruction::RetImm(0)})
          .ok());
  EXPECT_FALSE(
      VerifyProgram({Instruction::Ldb(1, -1), Instruction::RetImm(0)}).ok());
}

TEST(VerifierTest, RejectsHugeShiftImmediate) {
  EXPECT_FALSE(VerifyProgram({Instruction::AluImm(Opcode::kShl, 1, 64),
                              Instruction::RetImm(0)})
                   .ok());
  EXPECT_TRUE(VerifyProgram({Instruction::AluImm(Opcode::kShl, 1, 63),
                             Instruction::RetImm(0)})
                  .ok());
}

// --- Assembler ---

TEST(AssemblerTest, AssemblesAndRunsFilter) {
  constexpr std::string_view kSource = R"(
      ; accept only UDP to port 53
      ldf r1, ip_proto
      jne r1, 17, drop
      ldf r2, dst_port
      jeq r2, 53, accept
  drop:
      ret 0
  accept:
      ret 1
  )";
  auto prog = Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_TRUE(VerifyProgram(*prog).ok()) << VerifyProgram(*prog);

  const auto dns = MakeUdpPacket(1234, 53);
  const auto web = MakeUdpPacket(1234, 80);
  EXPECT_EQ(Execute(*prog, dns.ctx)->verdict, 1);
  EXPECT_EQ(Execute(*prog, web.ctx)->verdict, 0);
}

TEST(AssemblerTest, LabelOnSameLineAsInstruction) {
  auto prog = Assemble("start: ret 7");
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_EQ(prog->size(), 1u);
  EXPECT_EQ((*prog)[0], Instruction::RetImm(7));
}

TEST(AssemblerTest, HexImmediates) {
  auto prog = Assemble("ldi r1, 0x0800\nret r1");
  ASSERT_TRUE(prog.ok()) << prog.status();
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(*prog, tp.ctx), 0x0800);
}

TEST(AssemblerTest, NegativeImmediates) {
  auto prog = Assemble("ldi r1, -5\nret r1");
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_EQ((*prog)[0].imm, -5);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  auto prog = Assemble("# hash comment\n\n  ; semi comment\nret 1 ; tail\n");
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_EQ(prog->size(), 1u);
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  auto prog = Assemble("ret 1\nbogus r1, r2\n");
  ASSERT_FALSE(prog.ok());
  EXPECT_NE(prog.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, UnknownLabelFails) {
  auto prog = Assemble("jmp nowhere\nret 0");
  EXPECT_FALSE(prog.ok());
}

TEST(AssemblerTest, DuplicateLabelFails) {
  auto prog = Assemble("a: ret 0\na: ret 1");
  EXPECT_FALSE(prog.ok());
}

TEST(AssemblerTest, WrongOperandCountFails) {
  EXPECT_FALSE(Assemble("ldi r1\nret 0").ok());
  EXPECT_FALSE(Assemble("ret 0, 1").ok());
  EXPECT_FALSE(Assemble("jeq r1, 2\nret 0").ok());
}

TEST(AssemblerTest, BadRegisterFails) {
  EXPECT_FALSE(Assemble("ldi r16, 0\nret 0").ok());
  EXPECT_FALSE(Assemble("ldi rx, 0\nret 0").ok());
}

TEST(AssemblerTest, UnknownFieldFails) {
  EXPECT_FALSE(Assemble("ldf r1, not_a_field\nret 0").ok());
}

TEST(AssemblerTest, DisassembleRoundTrip) {
  constexpr std::string_view kSource = R"(
      ldf r1, owner_uid
      jeq r1, 1000, yes
      ldb r2, 14
      add r2, r1
      shr r2, 3
      ret r2
  yes:
      ret 1
  )";
  auto prog = Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const std::string text = Disassemble(*prog);
  // Disassembly mentions each mnemonic and resolves fields symbolically.
  EXPECT_NE(text.find("ldf r1, owner_uid"), std::string::npos);
  EXPECT_NE(text.find("jeq r1, 1000, 6"), std::string::npos);
  EXPECT_NE(text.find("ret 1"), std::string::npos);
}

TEST(AssemblerTest, RegisterComparandJump) {
  constexpr std::string_view kSource = R"(
      ldf r1, src_port
      ldf r2, dst_port
      jeq r1, r2, same
      ret 0
  same:
      ret 1
  )";
  auto prog = Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const auto same = MakeUdpPacket(77, 77);
  const auto diff = MakeUdpPacket(77, 78);
  EXPECT_EQ(MustRun(*prog, same.ctx), 1);
  EXPECT_EQ(MustRun(*prog, diff.ctx), 0);
}

}  // namespace
}  // namespace norman::overlay
