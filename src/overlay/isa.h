// Instruction set of the Norman overlay.
//
// §4.4 of the paper proposes loading policies into an FPGA *overlay* — "a
// custom, potentially non-Turing complete processor with a domain-specific
// instruction set" — so that filters and queueing policies change without
// reprogramming the FPGA. This module defines that ISA.
//
// The machine is deliberately restricted, like eBPF on a diet:
//  * 16 general-purpose 64-bit registers, all zero at program start;
//  * abstract *packet field* loads (the parser frontend extracts fields, so
//    programs are independent of header offsets) plus raw byte probes;
//  * forward-only branches — no loops, so worst-case execution time is the
//    program length, which is what lets the hardware schedule it at line
//    rate;
//  * one exit: kRet with a verdict value.
//
// Programs are verified (see verifier.h) before the kernel loads them into
// the NIC; the dataplane refuses unverified programs.
#ifndef NORMAN_OVERLAY_ISA_H_
#define NORMAN_OVERLAY_ISA_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace norman::overlay {

inline constexpr int kNumRegisters = 16;
// Hardware instruction memory per overlay slot (models limited FPGA BRAM).
inline constexpr size_t kMaxProgramLength = 512;

enum class Opcode : uint8_t {
  kNop = 0,
  // rd <- imm
  kLdi,
  // rd <- packet field (see Field)
  kLdf,
  // rd <- packet byte at absolute offset imm (0 if out of bounds)
  kLdb,
  // rd <- rs1 OP rs2  /  rd <- rs1 OP imm (use_imm)
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kMul,
  // Conditional relative forward jumps: if (rs1 OP operand) pc += imm-encoded
  // target delta. Encoded as absolute target index for simplicity; verifier
  // enforces target > current pc.
  kJmp,
  kJeq,
  kJne,
  kJgt,
  kJlt,
  kJge,
  kJle,
  // Return verdict: imm if use_imm else rs1.
  kRet,
};

// Abstract packet/metadata fields the load-field unit can extract. The
// *owner* fields are the crux of KOPI: the kernel wrote them into the NIC
// flow table at connection setup, so the dataplane has the process view that
// hypervisor- or switch-level interposition lacks (§2, §3 of the paper).
enum class Field : uint8_t {
  kPktLen = 0,
  kEthType,
  kIsIpv4,    // 1/0
  kIsArp,     // 1/0
  kArpOp,
  kIpProto,
  kIpSrc,
  kIpDst,
  kIpDscp,
  kIpTtl,
  kSrcPort,   // 0 unless TCP/UDP
  kDstPort,
  kTcpFlags,  // 0 unless TCP
  kPayloadLen,
  // Kernel-attached connection metadata (0 / kUnknownConnection when the
  // packet did not come from a registered connection).
  kConnId,
  kOwnerUid,
  kOwnerPid,
  kOwnerCgroup,
  kOwnerComm,  // interned process-name id assigned by the kernel
  kDirection,  // 0 = TX, 1 = RX
};

struct Instruction {
  Opcode op = Opcode::kNop;
  uint8_t dst = 0;   // destination register (also rs1 for jumps/ret)
  uint8_t src = 0;   // second source register
  bool use_imm = false;
  int64_t imm = 0;   // immediate / field id / byte offset / jump target

  static Instruction Ldi(uint8_t rd, int64_t imm) {
    return {Opcode::kLdi, rd, 0, true, imm};
  }
  static Instruction Ldf(uint8_t rd, Field f) {
    return {Opcode::kLdf, rd, 0, true, static_cast<int64_t>(f)};
  }
  static Instruction Ldb(uint8_t rd, int64_t offset) {
    return {Opcode::kLdb, rd, 0, true, offset};
  }
  static Instruction AluReg(Opcode op, uint8_t rd, uint8_t rs) {
    return {op, rd, rs, false, 0};
  }
  static Instruction AluImm(Opcode op, uint8_t rd, int64_t imm) {
    return {op, rd, 0, true, imm};
  }
  static Instruction Jmp(int64_t target) {
    Instruction ins{Opcode::kJmp, 0, 0, true, 0};
    ins.jump_target = target;
    return ins;
  }
  static Instruction JmpCmpImm(Opcode op, uint8_t rs1, int64_t cmp,
                               int64_t target) {
    // Comparison immediate packs into src-free imm; target in dst-free spot.
    Instruction ins{op, rs1, 0, true, cmp};
    ins.jump_target = target;
    return ins;
  }
  static Instruction JmpCmpReg(Opcode op, uint8_t rs1, uint8_t rs2,
                               int64_t target) {
    Instruction ins{op, rs1, rs2, false, 0};
    ins.jump_target = target;
    return ins;
  }
  static Instruction RetImm(int64_t verdict) {
    return {Opcode::kRet, 0, 0, true, verdict};
  }
  static Instruction RetReg(uint8_t rs) {
    return {Opcode::kRet, rs, 0, false, 0};
  }

  // Absolute instruction index for branches (kJmp..kJle).
  int64_t jump_target = 0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

using Program = std::vector<Instruction>;

bool IsJump(Opcode op);
std::string_view OpcodeName(Opcode op);
std::string_view FieldName(Field f);

// Inverse of FieldName; returns false if unknown.
bool FieldFromName(std::string_view name, Field* out);

}  // namespace norman::overlay

#endif  // NORMAN_OVERLAY_ISA_H_
