#include "src/dataplane/overlay_stage.h"

namespace norman::dataplane {

nic::StageResult OverlayStage::Process(net::Packet& /*packet*/,
                                       const overlay::PacketContext& ctx) {
  nic::StageResult result;
  const overlay::DecodedProgram* program = cp_->OverlaySlot(slot_);
  if (program == nullptr) {
    return result;  // empty slot: pass-through
  }
  const overlay::ExecResult exec = program->Run(ctx);
  ++executions_;
  result.overlay_instructions = exec.instructions_executed;
  switch (exec.verdict) {
    case 0:
      result.verdict = nic::Verdict::kDrop;
      result.drop_reason = DropReason::kPolicy;
      break;
    case 2:
      result.verdict = nic::Verdict::kSoftwareFallback;
      break;
    default:
      result.verdict = nic::Verdict::kAccept;
      break;
  }
  return result;
}

}  // namespace norman::dataplane
