#include "src/dataplane/filter_engine.h"

#include <utility>

#include "src/common/logging.h"

namespace norman::dataplane {
namespace {

using overlay::Field;
using overlay::Instruction;
using overlay::Opcode;

constexpr int64_t kNextPlaceholder = -1;

int64_t EncodeVerdict(uint32_t rule_index, FilterAction action) {
  return (static_cast<int64_t>(rule_index) << 2) |
         static_cast<int64_t>(action);
}

// Emits the match block for one rule. Instructions with jump_target ==
// kNextPlaceholder are patched to the next rule's block start afterwards.
// `ipv4_only` marks a block that only IPv4 frames run (a protocol bucket);
// elsewhere an address match is guarded by is_ipv4, because ARP and
// unparsed frames read 0 in the address fields and pass a short prefix.
void EmitRule(const FilterRule& r, uint32_t index, bool ipv4_only,
              overlay::Program* out) {
  auto mismatch_if = [out](Opcode cmp, uint8_t reg, int64_t value) {
    Instruction ins = Instruction::JmpCmpImm(cmp, reg, value,
                                             kNextPlaceholder);
    out->push_back(ins);
  };
  auto load_and_mismatch_ne = [&](Field f, int64_t expected) {
    out->push_back(Instruction::Ldf(1, f));
    mismatch_if(Opcode::kJne, 1, expected);
  };

  if (r.direction) {
    load_and_mismatch_ne(Field::kDirection,
                         *r.direction == net::Direction::kRx ? 1 : 0);
  }
  if (r.proto) {
    // Non-IPv4 frames (is_ipv4 == 0) can never match a proto rule.
    load_and_mismatch_ne(Field::kIsIpv4, 1);
    load_and_mismatch_ne(Field::kIpProto, static_cast<int64_t>(*r.proto));
  }
  auto emit_prefix_match = [&](Field f, net::Ipv4Address ip,
                               uint32_t prefix) {
    out->push_back(Instruction::Ldf(1, f));
    if (prefix < 32) {
      // 64-bit shift: /0 (any address) compiles to `shr 32; jne 0`, which
      // every 32-bit address passes.
      const uint64_t expected = uint64_t{ip.addr} >> (32 - prefix);
      out->push_back(Instruction::AluImm(Opcode::kShr, 1, 32 - prefix));
      mismatch_if(Opcode::kJne, 1, static_cast<int64_t>(expected));
    } else {
      mismatch_if(Opcode::kJne, 1, ip.addr);
    }
  };
  if (r.src_ip) {
    emit_prefix_match(Field::kIpSrc, *r.src_ip, r.src_ip_prefix.value_or(32));
  }
  if (r.dst_ip) {
    emit_prefix_match(Field::kIpDst, *r.dst_ip, r.dst_ip_prefix.value_or(32));
  }
  if ((r.src_ip || r.dst_ip) && !r.proto && !ipv4_only) {
    // Only IPv4 frames may match an address (a proto rule already starts
    // with this guard). It follows the prefix tests, which reject most
    // frames, so a frame the prefix rejects pays nothing for it.
    load_and_mismatch_ne(Field::kIsIpv4, 1);
  }
  auto emit_port_match = [&](Field f, const PortRange& range) {
    out->push_back(Instruction::Ldf(1, f));
    if (range.lo == range.hi) {
      mismatch_if(Opcode::kJne, 1, range.lo);
    } else {
      mismatch_if(Opcode::kJlt, 1, range.lo);
      mismatch_if(Opcode::kJgt, 1, range.hi);
    }
  };
  if (r.src_port) {
    emit_port_match(Field::kSrcPort, *r.src_port);
  }
  if (r.dst_port) {
    emit_port_match(Field::kDstPort, *r.dst_port);
  }
  if (r.owner_uid) {
    load_and_mismatch_ne(Field::kOwnerUid, *r.owner_uid);
  }
  if (r.owner_pid) {
    load_and_mismatch_ne(Field::kOwnerPid, *r.owner_pid);
  }
  if (r.owner_comm) {
    load_and_mismatch_ne(Field::kOwnerComm, *r.owner_comm);
  }
  if (r.owner_cgroup) {
    load_and_mismatch_ne(Field::kOwnerCgroup, *r.owner_cgroup);
  }
  // All predicates held: return this rule's encoded action.
  out->push_back(Instruction::RetImm(EncodeVerdict(index, r.action)));
}

// Instructions EmitRule produces for `r` in the full chain. The rule's
// chain index only changes the `ret` immediate, so the length is the same
// at every position.
size_t BlockLength(const FilterRule& r) {
  overlay::Program block;
  EmitRule(r, 0, /*ipv4_only=*/false, &block);
  return block.size();
}

}  // namespace

namespace {

// Compiles the subsequence of `rules` selected by `pred` into one
// first-match program, preserving each rule's original chain index in the
// encoded verdict (hit attribution stays index-aligned with rules()).
// `ipv4_only` as for EmitRule.
template <typename Pred>
overlay::Program CompileFilterSubset(const std::vector<FilterRule>& rules,
                                     FilterAction default_action,
                                     bool ipv4_only, Pred&& pred) {
  overlay::Program program;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!pred(rules[i])) {
      continue;
    }
    const size_t block_start = program.size();
    EmitRule(rules[i], static_cast<uint32_t>(i), ipv4_only, &program);
    // Patch this block's "mismatch -> next rule" placeholders to the index
    // just past the block (start of the next rule / default tail).
    const int64_t next = static_cast<int64_t>(program.size());
    for (size_t pc = block_start; pc < program.size(); ++pc) {
      if (overlay::IsJump(program[pc].op) &&
          program[pc].jump_target == kNextPlaceholder) {
        program[pc].jump_target = next;
      }
    }
  }
  program.push_back(Instruction::RetImm(
      EncodeVerdict(kDefaultRuleIndex, default_action)));
  return program;
}

}  // namespace

overlay::Program CompileFilterChain(const std::vector<FilterRule>& rules,
                                    FilterAction default_action) {
  return CompileFilterSubset(rules, default_action, /*ipv4_only=*/false,
                             [](const FilterRule&) { return true; });
}

FilterEngine::FilterEngine(FilterAction default_action)
    : default_action_(default_action) {}

StatusOr<size_t> FilterEngine::AdmitRule(const FilterRule& rule) const {
  if (rule.src_ip_prefix.value_or(32) > 32 ||
      rule.dst_ip_prefix.value_or(32) > 32) {
    return InvalidArgumentError("filter: address prefix longer than 32 bits");
  }
  const size_t length = BlockLength(rule);
  // The verifier's length bound, applied without compiling the chain.
  if (chain_length_ + length > overlay::kMaxProgramLength) {
    return ResourceExhaustedError(
        "filter: chain no longer fits overlay instruction memory (" +
        std::to_string(chain_length_ + length) + " > " +
        std::to_string(overlay::kMaxProgramLength) + " instructions)");
  }
  return length;
}

StatusOr<size_t> FilterEngine::AppendRule(const FilterRule& rule) {
  NORMAN_ASSIGN_OR_RETURN(const size_t length, AdmitRule(rule));
  rules_.push_back(rule);
  hits_.push_back(0);
  chain_length_ += length;
  stale_ = true;
  return rules_.size() - 1;
}

Status FilterEngine::InsertRule(size_t index, const FilterRule& rule) {
  if (index > rules_.size()) {
    return OutOfRangeError("filter: insert index past end of chain");
  }
  NORMAN_ASSIGN_OR_RETURN(const size_t length, AdmitRule(rule));
  rules_.insert(rules_.begin() + static_cast<ptrdiff_t>(index), rule);
  hits_.insert(hits_.begin() + static_cast<ptrdiff_t>(index), 0);
  chain_length_ += length;
  stale_ = true;
  return OkStatus();
}

Status FilterEngine::DeleteRule(size_t index) {
  if (index >= rules_.size()) {
    return OutOfRangeError("filter: no rule at index");
  }
  chain_length_ -= BlockLength(rules_[index]);
  rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(index));
  hits_.erase(hits_.begin() + static_cast<ptrdiff_t>(index));
  stale_ = true;
  return OkStatus();
}

void FilterEngine::Flush() {
  rules_.clear();
  hits_.clear();
  chain_length_ = 1;
  stale_ = true;
}

void FilterEngine::SetDefaultAction(FilterAction action) {
  default_action_ = action;
  stale_ = true;
}

void FilterEngine::Rebuild() const {
  // The chain and its per-protocol buckets (subsequences of the chain)
  // pass the verifier by construction, so decoding cannot fail.
  const auto decode = [](overlay::Program program) {
    auto decoded = overlay::DecodedProgram::Decode(std::move(program));
    NORMAN_CHECK(decoded.ok()) << decoded.status();
    return std::move(*decoded);
  };
  overlay::Program chain = CompileFilterChain(rules_, default_action_);
  NORMAN_CHECK(chain.size() == chain_length_)
      << chain.size() << " != " << chain_length_;
  chain_ = decode(std::move(chain));
  // A bucket only ever runs IPv4 frames of its protocol (see Process).
  const auto bucket = [&](net::IpProto proto) {
    return decode(CompileFilterSubset(
        rules_, default_action_, /*ipv4_only=*/true,
        [proto](const FilterRule& r) {
          return !r.proto || *r.proto == proto;
        }));
  };
  tcp_program_ = bucket(net::IpProto::kTcp);
  udp_program_ = bucket(net::IpProto::kUdp);
  icmp_program_ = bucket(net::IpProto::kIcmp);
  stale_ = false;
}

const overlay::Program& FilterEngine::compiled() const {
  if (stale_) {
    Rebuild();
  }
  return chain_->source();
}

const overlay::Program& FilterEngine::compiled_for(net::IpProto proto) const {
  if (stale_) {
    Rebuild();
  }
  return ProgramFor(proto).source();
}

const overlay::DecodedProgram& FilterEngine::ProgramFor(
    net::IpProto proto) const {
  switch (proto) {
    case net::IpProto::kTcp:
      return *tcp_program_;
    case net::IpProto::kUdp:
      return *udp_program_;
    case net::IpProto::kIcmp:
      return *icmp_program_;
  }
  return *chain_;
}

nic::StageResult FilterEngine::Process(net::Packet& /*packet*/,
                                       const overlay::PacketContext& ctx) {
  if (stale_) {
    Rebuild();
  }
  // Bucket dispatch: a parsed IPv4 frame runs only the rules its protocol
  // could match; everything else (ARP, unparsed, exotic protos) runs the
  // full chain, whose kIsIpv4/kIpProto guards keep semantics identical.
  const overlay::DecodedProgram& program =
      ctx.parsed != nullptr && ctx.parsed->is_ipv4()
          ? ProgramFor(ctx.parsed->ipv4->protocol)
          : *chain_;
  const overlay::ExecResult exec = program.Run(ctx);
  const auto rule_index = static_cast<uint32_t>(exec.verdict >> 2);
  const auto action = static_cast<FilterAction>(exec.verdict & 0x3);
  if (tp_ != nullptr && tp_->armed(telemetry::Probe::kFilterVerdict)) {
    telemetry::TraceFlow flow{};
    flow.dir = ctx.direction == net::Direction::kTx ? telemetry::kDirTx
                                                    : telemetry::kDirRx;
    // This runs once per packet per chain: walk the headers only if a
    // predicate actually matches on the tuple.
    if (tp_->wants_flow(telemetry::Probe::kFilterVerdict) &&
        ctx.parsed != nullptr) {
      if (const auto tuple = ctx.parsed->flow()) {
        flow.src_ip = tuple->src_ip.addr;
        flow.dst_ip = tuple->dst_ip.addr;
        flow.src_port = tuple->src_port;
        flow.dst_port = tuple->dst_port;
        flow.proto = static_cast<uint8_t>(tuple->proto);
      }
    }
    tp_->Emit(telemetry::Probe::kFilterVerdict, telemetry::Tracepoints::kCoreNic,
              ctx.conn.owner_pid, static_cast<uint64_t>(action), rule_index,
              exec.instructions_executed, &flow);
  }
  if (rule_index == kDefaultRuleIndex) {
    ++default_hits_;
  } else if (rule_index < hits_.size()) {
    ++hits_[rule_index];
  }
  nic::StageResult result;
  result.overlay_instructions = exec.instructions_executed;
  switch (action) {
    case FilterAction::kAccept:
      result.verdict = nic::Verdict::kAccept;
      break;
    case FilterAction::kDrop:
      result.verdict = nic::Verdict::kDrop;
      result.drop_reason = DropReason::kFilterDeny;
      break;
    case FilterAction::kSoftwareFallback:
      result.verdict = nic::Verdict::kSoftwareFallback;
      break;
  }
  return result;
}

}  // namespace norman::dataplane
