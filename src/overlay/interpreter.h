// Overlay program interpreter — the reference model of the soft processor.
//
// Execute runs an ISA program one instruction at a time and carries runtime
// guards — register bounds, a step budget, falling off the end — that fail
// an unverified program with InternalError. The dataplane does not call it:
// every verified program it runs is a DecodedProgram (decoded_program.h),
// and Execute is the model the decoded form is checked against, verdict and
// instruction count alike. The count is what the NIC model charges
// overlay_instr_ns for.
#ifndef NORMAN_OVERLAY_INTERPRETER_H_
#define NORMAN_OVERLAY_INTERPRETER_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/overlay/isa.h"
#include "src/overlay/packet_context.h"

namespace norman::overlay {

struct ExecResult {
  int64_t verdict = 0;
  uint32_t instructions_executed = 0;
};

StatusOr<ExecResult> Execute(const Program& program, const PacketContext& ctx);

}  // namespace norman::overlay

#endif  // NORMAN_OVERLAY_INTERPRETER_H_
