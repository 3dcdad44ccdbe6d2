// Decoded form of a verified overlay program — what the dataplane runs.
//
// Execute (interpreter.h) walks the ISA program one instruction at a time,
// re-checking registers and reading packet fields out of line at every
// `ldf`. Verification already proved those checks redundant, so a verified
// program is decoded once, at load or rebuild time, into a form that runs
// without them:
//   * each distinct `ldf` field gets one slot in a per-run field vector,
//     read once per execution;
//   * an `ldf rX, F` followed by a conditional jump on rX becomes one
//     compare-and-branch op, unless that jump is itself a jump target;
//   * jump targets are rewritten to decoded op indices;
//   * every op records how many ISA instructions it stands for (2 for a
//     fused pair, else 1), so the instruction count — and with it the
//     virtual time the NIC charges — is the ISA count on every path.
//
// DecodedProgram::Decode runs VerifyProgram first and is the only way to
// build one, so Run cannot fail. Run returns the same verdict and
// instructions_executed as Execute on the source program, for every
// context; the fuzz and differential suites check exactly that.
#ifndef NORMAN_OVERLAY_DECODED_PROGRAM_H_
#define NORMAN_OVERLAY_DECODED_PROGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/isa.h"
#include "src/overlay/packet_context.h"

namespace norman::overlay {

class DecodedProgram {
 public:
  // Verifies `program` and decodes it; fails with the verifier's status.
  static StatusOr<DecodedProgram> Decode(Program program);

  ExecResult Run(const PacketContext& ctx) const;

  // The verified ISA program this was decoded from.
  const Program& source() const { return source_; }
  // Decoded ops; fewer than source().size() when pairs were fused.
  size_t op_count() const { return ops_.size(); }

 private:
  enum class Kind : uint8_t;
  struct Op {
    Kind kind;
    uint8_t dst;        // destination register; compared register for jumps
    uint8_t src;        // source register of a register operand
    uint8_t slot;       // field-vector slot of an ldf or a fused op
    uint8_t isa_count;  // ISA instructions this op stands for
    uint16_t target;    // decoded index of the jump target
    uint64_t imm;       // immediate operand, byte offset or verdict
  };

  static constexpr size_t kNumFields =
      static_cast<size_t>(Field::kDirection) + 1;

  explicit DecodedProgram(Program source) : source_(std::move(source)) {}

  Program source_;
  std::vector<Op> ops_;
  std::array<Field, kNumFields> fields_{};  // field-vector slot -> field
  size_t num_fields_ = 0;
};

}  // namespace norman::overlay

#endif  // NORMAN_OVERLAY_DECODED_PROGRAM_H_
