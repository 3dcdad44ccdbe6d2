// Overlay program interpreter — the functional model of the soft processor.
//
// Programs must pass VerifyProgram before execution; the interpreter still
// carries cheap runtime guards — register bounds, a step budget, falling off
// the end — that fail an unverified program with InternalError (it is the
// reference model the hardware is checked against). Execution reports the
// instruction count so the NIC model can charge overlay_instr_ns per
// instruction.
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
