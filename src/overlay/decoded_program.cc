#include "src/overlay/decoded_program.h"

#include <array>
#include <utility>

#include "src/common/logging.h"
#include "src/overlay/verifier.h"

namespace norman::overlay {

// Each ALU and compare family lists its immediate and register forms in
// pairs, in Opcode order, so Decode maps an instruction to its kind by
// offset.
enum class DecodedProgram::Kind : uint8_t {
  kNop,
  kLdi,
  kLdf,
  kLdb,
  kAddImm, kAddReg,
  kSubImm, kSubReg,
  kAndImm, kAndReg,
  kOrImm, kOrReg,
  kXorImm, kXorReg,
  kShlImm, kShlReg,
  kShrImm, kShrReg,
  kMulImm, kMulReg,
  kJmp,
  kJeqImm, kJeqReg,
  kJneImm, kJneReg,
  kJgtImm, kJgtReg,
  kJltImm, kJltReg,
  kJgeImm, kJgeReg,
  kJleImm, kJleReg,
  // ldf rX, F fused with the conditional jump on rX that follows it.
  kLdfJeqImm, kLdfJeqReg,
  kLdfJneImm, kLdfJneReg,
  kLdfJgtImm, kLdfJgtReg,
  kLdfJltImm, kLdfJltReg,
  kLdfJgeImm, kLdfJgeReg,
  kLdfJleImm, kLdfJleReg,
  kRetImm,
  kRetReg,
};

namespace {

static_assert(static_cast<int>(Opcode::kMul) - static_cast<int>(Opcode::kAdd) ==
                  7,
              "the eight ALU opcodes are contiguous");
static_assert(static_cast<int>(Opcode::kJle) - static_cast<int>(Opcode::kJeq) ==
                  5,
              "the six compare opcodes are contiguous");
static_assert(kMaxProgramLength <= UINT16_MAX, "jump targets are 16-bit");

bool IsConditionalJump(Opcode op) { return IsJump(op) && op != Opcode::kJmp; }

}  // namespace

StatusOr<DecodedProgram> DecodedProgram::Decode(Program program) {
  NORMAN_RETURN_IF_ERROR(VerifyProgram(program));
  DecodedProgram out(std::move(program));
  const Program& isa = out.source_;

  std::array<bool, kMaxProgramLength> is_target{};
  for (const Instruction& ins : isa) {
    if (IsJump(ins.op)) {
      is_target[static_cast<size_t>(ins.jump_target)] = true;
    }
  }
  // fuse[pc]: the ldf at pc and the jump after it become one op. The
  // second half of a pair is a jump, never an ldf, so pairs cannot overlap.
  std::array<bool, kMaxProgramLength> fuse{};
  size_t num_ops = isa.size();
  for (size_t pc = 0; pc + 1 < isa.size(); ++pc) {
    const Instruction& jump = isa[pc + 1];
    fuse[pc] = isa[pc].op == Opcode::kLdf && IsConditionalJump(jump.op) &&
               jump.dst == isa[pc].dst && !is_target[pc + 1];
    num_ops -= fuse[pc] ? 1 : 0;
  }
  out.ops_.reserve(num_ops);

  std::array<int, kNumFields> slot_of;
  slot_of.fill(-1);
  const auto slot = [&](int64_t field) {
    int& s = slot_of[static_cast<size_t>(field)];
    if (s < 0) {
      s = static_cast<int>(out.num_fields_);
      out.fields_[out.num_fields_++] = static_cast<Field>(field);
    }
    return static_cast<uint8_t>(s);
  };
  // The kind of `ins` in the family whose first opcode `first` decodes to
  // `base` (its immediate form).
  const auto family = [](Kind base, Opcode first, const Instruction& ins) {
    return static_cast<Kind>(static_cast<int>(base) +
                             2 * (static_cast<int>(ins.op) -
                                  static_cast<int>(first)) +
                             (ins.use_imm ? 0 : 1));
  };

  // ISA index -> decoded index; defined for every jump target, since the
  // compare half of a fused pair is never one.
  std::array<uint16_t, kMaxProgramLength> op_at{};
  for (size_t pc = 0; pc < isa.size();) {
    const Instruction& ins = isa[pc];
    op_at[pc] = static_cast<uint16_t>(out.ops_.size());
    Op op{Kind::kNop, ins.dst, ins.src, 0, 1, 0,
          static_cast<uint64_t>(ins.imm)};
    if (fuse[pc]) {
      const Instruction& jump = isa[pc + 1];
      op.kind = family(Kind::kLdfJeqImm, Opcode::kJeq, jump);
      op.src = jump.src;
      op.slot = slot(ins.imm);
      op.isa_count = 2;
      op.target = static_cast<uint16_t>(jump.jump_target);
      op.imm = static_cast<uint64_t>(jump.imm);
      out.ops_.push_back(op);
      pc += 2;
      continue;
    }
    switch (ins.op) {
      case Opcode::kNop:
        op.kind = Kind::kNop;
        break;
      case Opcode::kLdi:
        op.kind = Kind::kLdi;
        break;
      case Opcode::kLdf:
        op.kind = Kind::kLdf;
        op.slot = slot(ins.imm);
        break;
      case Opcode::kLdb:
        op.kind = Kind::kLdb;
        break;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kMul:
        op.kind = family(Kind::kAddImm, Opcode::kAdd, ins);
        break;
      case Opcode::kJmp:
        op.kind = Kind::kJmp;
        op.target = static_cast<uint16_t>(ins.jump_target);
        break;
      case Opcode::kJeq:
      case Opcode::kJne:
      case Opcode::kJgt:
      case Opcode::kJlt:
      case Opcode::kJge:
      case Opcode::kJle:
        op.kind = family(Kind::kJeqImm, Opcode::kJeq, ins);
        op.target = static_cast<uint16_t>(ins.jump_target);
        break;
      case Opcode::kRet:
        op.kind = ins.use_imm ? Kind::kRetImm : Kind::kRetReg;
        break;
    }
    out.ops_.push_back(op);
    ++pc;
  }
  // Run has no step budget: it relies on every decoded jump staying
  // strictly forward and in bounds, as the verifier proved for the source.
  for (size_t i = 0; i < out.ops_.size(); ++i) {
    Op& op = out.ops_[i];
    if (op.kind >= Kind::kJmp && op.kind <= Kind::kLdfJleReg) {
      op.target = op_at[op.target];
      NORMAN_CHECK(op.target > i && op.target < out.ops_.size())
          << "overlay decoder: op " << i << " jumps to " << op.target;
    }
  }
  return out;
}

ExecResult DecodedProgram::Run(const PacketContext& ctx) const {
  std::array<uint64_t, kNumFields> f{};
  for (size_t i = 0; i < num_fields_; ++i) {
    f[i] = ctx.ReadField(fields_[i]);
  }
  std::array<uint64_t, kNumRegisters> r{};
  uint32_t count = 0;
  const Op* const base = ops_.data();
  const auto next = [base](const Op* op, bool taken) {
    return taken ? base + op->target : op + 1;
  };
  for (const Op* op = base;;) {
    count += op->isa_count;
    switch (op->kind) {
      case Kind::kNop:
        break;
      case Kind::kLdi:
        r[op->dst] = op->imm;
        break;
      case Kind::kLdf:
        r[op->dst] = f[op->slot];
        break;
      case Kind::kLdb:
        r[op->dst] = ctx.ReadByte(static_cast<int64_t>(op->imm));
        break;
      case Kind::kAddImm: r[op->dst] += op->imm; break;
      case Kind::kAddReg: r[op->dst] += r[op->src]; break;
      case Kind::kSubImm: r[op->dst] -= op->imm; break;
      case Kind::kSubReg: r[op->dst] -= r[op->src]; break;
      case Kind::kAndImm: r[op->dst] &= op->imm; break;
      case Kind::kAndReg: r[op->dst] &= r[op->src]; break;
      case Kind::kOrImm: r[op->dst] |= op->imm; break;
      case Kind::kOrReg: r[op->dst] |= r[op->src]; break;
      case Kind::kXorImm: r[op->dst] ^= op->imm; break;
      case Kind::kXorReg: r[op->dst] ^= r[op->src]; break;
      case Kind::kShlImm: r[op->dst] <<= (op->imm & 63); break;
      case Kind::kShlReg: r[op->dst] <<= (r[op->src] & 63); break;
      case Kind::kShrImm: r[op->dst] >>= (op->imm & 63); break;
      case Kind::kShrReg: r[op->dst] >>= (r[op->src] & 63); break;
      case Kind::kMulImm: r[op->dst] *= op->imm; break;
      case Kind::kMulReg: r[op->dst] *= r[op->src]; break;
      case Kind::kJmp:
        op = base + op->target;
        continue;
      case Kind::kJeqImm: op = next(op, r[op->dst] == op->imm); continue;
      case Kind::kJeqReg: op = next(op, r[op->dst] == r[op->src]); continue;
      case Kind::kJneImm: op = next(op, r[op->dst] != op->imm); continue;
      case Kind::kJneReg: op = next(op, r[op->dst] != r[op->src]); continue;
      case Kind::kJgtImm: op = next(op, r[op->dst] > op->imm); continue;
      case Kind::kJgtReg: op = next(op, r[op->dst] > r[op->src]); continue;
      case Kind::kJltImm: op = next(op, r[op->dst] < op->imm); continue;
      case Kind::kJltReg: op = next(op, r[op->dst] < r[op->src]); continue;
      case Kind::kJgeImm: op = next(op, r[op->dst] >= op->imm); continue;
      case Kind::kJgeReg: op = next(op, r[op->dst] >= r[op->src]); continue;
      case Kind::kJleImm: op = next(op, r[op->dst] <= op->imm); continue;
      case Kind::kJleReg: op = next(op, r[op->dst] <= r[op->src]); continue;
      // Fused: the load lands in its register before the compare reads
      // either operand (the comparand register may be the same one).
      case Kind::kLdfJeqImm:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] == op->imm);
        continue;
      case Kind::kLdfJeqReg:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] == r[op->src]);
        continue;
      case Kind::kLdfJneImm:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] != op->imm);
        continue;
      case Kind::kLdfJneReg:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] != r[op->src]);
        continue;
      case Kind::kLdfJgtImm:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] > op->imm);
        continue;
      case Kind::kLdfJgtReg:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] > r[op->src]);
        continue;
      case Kind::kLdfJltImm:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] < op->imm);
        continue;
      case Kind::kLdfJltReg:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] < r[op->src]);
        continue;
      case Kind::kLdfJgeImm:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] >= op->imm);
        continue;
      case Kind::kLdfJgeReg:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] >= r[op->src]);
        continue;
      case Kind::kLdfJleImm:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] <= op->imm);
        continue;
      case Kind::kLdfJleReg:
        r[op->dst] = f[op->slot];
        op = next(op, r[op->dst] <= r[op->src]);
        continue;
      case Kind::kRetImm:
        return {static_cast<int64_t>(op->imm), count};
      case Kind::kRetReg:
        return {static_cast<int64_t>(r[op->dst]), count};
    }
    ++op;
  }
}

}  // namespace norman::overlay
