// The on-NIC packet filter (the iptables of Norman).
//
// Rules match on network fields (addresses, ports, protocol, direction) and
// — uniquely for an on-NIC interposition layer — on *process identity*
// (uid-owner, pid-owner, cmd-owner, cgroup), which works because the kernel
// stamps owner metadata into the NIC flow table at connection setup (§2
// "Partitioning Ports", §3 "integrated with the OS").
//
// First-match-wins semantics, like an iptables chain; a configurable default
// policy applies when nothing matches. The ruleset is *compiled to an
// overlay program* and executed by the overlay interpreter — the engine is
// literally running on the simulated soft processor, and its per-packet
// instruction count is charged by the NIC at overlay_instr_ns each.
//
// Rule changes do not compile anything: they edit the rule list and a
// running instruction count, and the chain plus its protocol buckets are
// compiled, verified and decoded once, on the first Process() or
// compiled*() call after a change. Installing N rules therefore costs one
// compile, not N. Process() runs the decoded programs; compiled*() expose
// their ISA source, which tests run through Execute, the reference model.
#ifndef NORMAN_DATAPLANE_FILTER_ENGINE_H_
#define NORMAN_DATAPLANE_FILTER_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tracepoint.h"
#include "src/net/types.h"
#include "src/nic/pipeline.h"
#include "src/overlay/decoded_program.h"
#include "src/overlay/isa.h"

namespace norman::dataplane {

enum class FilterAction : uint8_t {
  kAccept = 0,
  kDrop = 1,
  kSoftwareFallback = 2,
};

struct PortRange {
  uint16_t lo = 0;
  uint16_t hi = 65535;
  friend bool operator==(const PortRange&, const PortRange&) = default;
};

// All match fields are optional; an unset field matches everything.
struct FilterRule {
  std::string label;  // for tooling output
  std::optional<net::Direction> direction;
  std::optional<net::IpProto> proto;
  std::optional<net::Ipv4Address> src_ip;
  std::optional<uint32_t> src_ip_prefix;  // bits 0-32; 32 when unset
  std::optional<net::Ipv4Address> dst_ip;
  std::optional<uint32_t> dst_ip_prefix;
  std::optional<PortRange> src_port;
  std::optional<PortRange> dst_port;
  // Process view (owner matches).
  std::optional<uint32_t> owner_uid;
  std::optional<uint32_t> owner_pid;
  std::optional<uint32_t> owner_comm;    // interned comm id
  std::optional<uint32_t> owner_cgroup;
  FilterAction action = FilterAction::kAccept;
};

// Compiles a rule chain into a single overlay program implementing
// first-match-wins with `default_action` as the tail. The program's return
// value encodes (rule_index << 2) | action, so the engine can attribute hits
// to rules for counters; the sentinel rule index 0x3fffffff means "default".
overlay::Program CompileFilterChain(const std::vector<FilterRule>& rules,
                                    FilterAction default_action);

inline constexpr uint32_t kDefaultRuleIndex = 0x3fffffff;

class FilterEngine : public nic::PipelineStage {
 public:
  explicit FilterEngine(FilterAction default_action = FilterAction::kAccept);

  std::string_view name() const override { return "filter"; }
  // Rules match on headers and connection identity only — a pure function
  // of the flow key until the rule set changes (which bumps the fast-path
  // epoch through the kernel).
  nic::StageCacheClass cache_class() const override {
    return nic::StageCacheClass::kPure;
  }

  // Rule management (called by the kernel on behalf of iptables).
  // Appends at the end of the chain; returns the rule's index. Fails with
  // InvalidArgument when an address prefix is longer than 32 bits, and with
  // ResourceExhausted when the compiled chain would exceed overlay
  // instruction memory; the length is known without compiling, and a
  // refused rule leaves the engine untouched. InsertRule checks the same.
  StatusOr<size_t> AppendRule(const FilterRule& rule);
  Status InsertRule(size_t index, const FilterRule& rule);
  Status DeleteRule(size_t index);
  void Flush();
  void SetDefaultAction(FilterAction action);

  const std::vector<FilterRule>& rules() const { return rules_; }
  FilterAction default_action() const { return default_action_; }

  // Per-rule hit counters (index-aligned with rules()).
  const std::vector<uint64_t>& hit_counts() const { return hits_; }
  uint64_t default_hits() const { return default_hits_; }

  // The compiled overlay program for the full chain (the bucket used for
  // frames whose protocol has no dedicated bucket). Compiles the chain and
  // its buckets first if a rule change left them stale.
  const overlay::Program& compiled() const;

  // The program Process() would run for a frame of `proto` (introspection
  // for tests/tools; kNone-style fallthrough uses compiled()). Compiles
  // first if stale, like compiled().
  const overlay::Program& compiled_for(net::IpProto proto) const;

  nic::StageResult Process(net::Packet& packet,
                      const overlay::PacketContext& ctx) override;

  // "filter.verdict" probe hookup.
  void AttachTracepoints(telemetry::Tracepoints* tp) { tp_ = tp; }

 private:
  // Validates `rule` for AppendRule/InsertRule and returns the length of
  // its compiled block.
  StatusOr<size_t> AdmitRule(const FilterRule& rule) const;
  // The only place that compiles: the full chain and its three buckets,
  // each verified and decoded, then the cache is marked fresh.
  void Rebuild() const;
  // The bucket for `proto` (the full chain for unbucketed protocols); no
  // staleness check.
  const overlay::DecodedProgram& ProgramFor(net::IpProto proto) const;

  FilterAction default_action_;
  std::vector<FilterRule> rules_;
  std::vector<uint64_t> hits_;
  uint64_t default_hits_ = 0;
  // Length of the compiled full chain: the default tail plus every rule's
  // block. Kept on every mutation so capacity checks never compile.
  size_t chain_length_ = 1;
  // The decoded programs are a cache of rules_ and default_action_,
  // rebuilt behind const accessors (Kernel::filter() hands out const
  // engines). Empty until the first Rebuild().
  mutable bool stale_ = true;
  // Full chain; also serves frames outside the bucketed protocols (ARP,
  // unparseable, exotic IP protos), where proto-specific rules cannot match
  // anyway thanks to their kIsIpv4/kIpProto guards.
  mutable std::optional<overlay::DecodedProgram> chain_;
  // Protocol buckets: the chain restricted to rules that could match that
  // protocol (proto-unset rules plus proto == P), compiled with *original*
  // rule indices so first-match order and per-rule hit attribution are
  // untouched. TCP traffic never scans UDP-only rules.
  mutable std::optional<overlay::DecodedProgram> tcp_program_;
  mutable std::optional<overlay::DecodedProgram> udp_program_;
  mutable std::optional<overlay::DecodedProgram> icmp_program_;
  telemetry::Tracepoints* tp_ = nullptr;
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_FILTER_ENGINE_H_
