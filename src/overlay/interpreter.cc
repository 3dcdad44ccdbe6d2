#include "src/overlay/interpreter.h"

#include <array>

namespace norman::overlay {

StatusOr<ExecResult> Execute(const Program& program,
                             const PacketContext& ctx) {
  std::array<uint64_t, kNumRegisters> regs{};
  ExecResult result;
  size_t pc = 0;

  // Verified programs cannot loop, so the trip count is bounded by size;
  // the guard below protects against unverified programs slipping through.
  const size_t max_steps = program.size() + 1;
  while (pc < program.size()) {
    if (result.instructions_executed++ > max_steps) {
      return InternalError("overlay: step budget exceeded (unverified loop?)");
    }
    const Instruction& ins = program[pc];
    if (ins.dst >= kNumRegisters ||
        (!ins.use_imm && ins.src >= kNumRegisters)) {
      return InternalError("overlay: register out of range (unverified "
                           "program?)");
    }
    const uint64_t rhs =
        ins.use_imm ? static_cast<uint64_t>(ins.imm) : regs[ins.src];
    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kLdi:
        regs[ins.dst] = static_cast<uint64_t>(ins.imm);
        break;
      case Opcode::kLdf:
        regs[ins.dst] = ctx.ReadField(static_cast<Field>(ins.imm));
        break;
      case Opcode::kLdb:
        regs[ins.dst] = ctx.ReadByte(ins.imm);
        break;
      case Opcode::kAdd:
        regs[ins.dst] += rhs;
        break;
      case Opcode::kSub:
        regs[ins.dst] -= rhs;
        break;
      case Opcode::kAnd:
        regs[ins.dst] &= rhs;
        break;
      case Opcode::kOr:
        regs[ins.dst] |= rhs;
        break;
      case Opcode::kXor:
        regs[ins.dst] ^= rhs;
        break;
      case Opcode::kShl:
        regs[ins.dst] <<= (rhs & 63);
        break;
      case Opcode::kShr:
        regs[ins.dst] >>= (rhs & 63);
        break;
      case Opcode::kMul:
        regs[ins.dst] *= rhs;
        break;
      case Opcode::kJmp:
        pc = static_cast<size_t>(ins.jump_target);
        continue;
      case Opcode::kJeq:
      case Opcode::kJne:
      case Opcode::kJgt:
      case Opcode::kJlt:
      case Opcode::kJge:
      case Opcode::kJle: {
        const uint64_t lhs = regs[ins.dst];
        bool taken = false;
        switch (ins.op) {
          case Opcode::kJeq:
            taken = lhs == rhs;
            break;
          case Opcode::kJne:
            taken = lhs != rhs;
            break;
          case Opcode::kJgt:
            taken = lhs > rhs;
            break;
          case Opcode::kJlt:
            taken = lhs < rhs;
            break;
          case Opcode::kJge:
            taken = lhs >= rhs;
            break;
          case Opcode::kJle:
            taken = lhs <= rhs;
            break;
          default:
            break;
        }
        if (taken) {
          pc = static_cast<size_t>(ins.jump_target);
          continue;
        }
        break;
      }
      case Opcode::kRet:
        result.verdict = ins.use_imm ? ins.imm
                                     : static_cast<int64_t>(regs[ins.dst]);
        return result;
    }
    ++pc;
  }
  return InternalError("overlay: fell off program end (unverified program?)");
}

}  // namespace norman::overlay
