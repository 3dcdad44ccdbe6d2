// Dataplane profiler: scoped virtual-clock cycle attribution.
//
// The paper's argument is that interposing the kernel on the dataplane gives
// the OS a *process-level* view of NIC and host resources. The drop ledger
// (PR 2) answered "who lost packets"; this answers "who spent the cycles,
// and where". Every nanosecond the cost model charges to a sim::Resource
// (nic.dma, nic.pipeline, nic.stages, nic.wire, kernel.core) is also charged
// here against three axes at once:
//
//   * component/stage — an explicit attribution-context stack of ProfScope
//     RAII guards (event dispatch, NIC TX/RX, stage execution, flow-cache
//     replay, kernel slow path, maintenance tick) forms a calling-context
//     tree; charges land on the current node.
//   * core            — which serialized resource the time occupied.
//   * owner           — the pid that owns the traffic, resolved through the
//     kernel control plane's flow→pid map (the interposition layer is the
//     only place this mapping exists; a NIC-only profiler could not name
//     the process).
//
// Exactness invariant (same discipline as the drop ledger): for every
// registered core, summed attributed ns + an explicit unaccounted bucket
// equals the resource's busy_ns — time is never silently lost. Tests pin
// `sum(attr.*) + attr.unaccounted == busy_ns` per core in forwarding,
// fast-path and chaos runs.
//
// Hot-path budget: the profiler-on forwarding loop must stay within 5% of
// profiler-off (bench gate), which rules out hash lookups per charge. A
// charge is a branch, a per-call-site memo check (ProfSite caches the
// resolved node for its last parent), and one indexed add into a dense
// [core][owner] cell array. When the runtime flag is off, every charge is
// a single predictable branch.
//
// Determinism: the profiler observes, never schedules. No events, no RNG,
// no virtual-time cost. Node and owner-slot numbering follow first-touch
// order of a deterministic execution, and every export (folded flamegraph
// stacks, JSON, registry gauges) is sorted, so outputs are byte-stable and
// the pinned goldens hold with the profiler enabled.
#ifndef NORMAN_COMMON_PROFILER_H_
#define NORMAN_COMMON_PROFILER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/units.h"

namespace norman::telemetry {

class Profiler;

// Per-call-site memo. Instrumented code owns one ProfSite per static charge
// or scope point (a member, or a slot in a per-stage vector); the profiler
// caches the (parent node -> child node) resolution in it so the steady
// state never walks the tree. `name` must outlive the profiler's exports —
// string literals and pipeline-stage names (owned by live stages) qualify.
struct ProfSite {
  std::string_view name;
  uint32_t parent_plus1 = 0;  // memo key: parent node id + 1 (0 = unset)
  uint32_t node = 0;          // memoized resolution under that parent
};

class Profiler {
 public:
  enum class CoreKind : uint8_t { kNic, kHost };

  // Dense attribution-cell bounds. Cores are registered at construction
  // time (five per stack; a duplex world puts two full stacks — ten
  // cores — on one simulator, so the cap must clear that). Owners are
  // pids interned first-touch. Slot 0 is the unowned/system bucket
  // (pid 0); pids beyond the cap fold into one explicit overflow slot
  // rather than being dropped.
  // Sized for the sharded dataplane: up to 8 lanes × 3 resources per NIC
  // on top of the base cores, with headroom for duplex worlds.
  static constexpr uint32_t kMaxCores = 64;
  static constexpr uint32_t kMaxOwners = 32;
  static constexpr uint32_t kOverflowSlot = kMaxOwners - 1;
  static constexpr uint32_t kOverflowPid = UINT32_MAX;

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // ---- registration (cold; ungated so inventories never depend on the flag)

  // Register a serialized core whose busy time this profiler attributes.
  // `busy` is read only at export time and is the conservation ground truth.
  // Returns the dense core id used by Charge().
  uint32_t RegisterCore(std::string name, CoreKind kind,
                        std::function<Nanos()> busy);

  // Intern an owner pid into a dense slot. Called from cold control-plane
  // paths (flow install / connect) regardless of enablement so slot
  // numbering — and the exported attr.* inventory — does not depend on the
  // runtime flag.
  uint32_t RegisterOwner(uint32_t pid);

  // Runtime gate. Off by default: worlds that don't ask for attribution pay
  // one predicted branch per charge site and nothing else.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // ---- hot path ---------------------------------------------------------

  // pid -> dense owner slot with a single-entry memo (bursts repeat pids).
  uint32_t OwnerSlot(uint32_t pid) {
    if (pid == memo_pid_) {
      return memo_slot_;
    }
    return OwnerSlotSlow(pid);
  }

  // Charge `ns` on `core` to `site` resolved under the current context node.
  void Charge(ProfSite& site, uint32_t core, uint32_t owner_slot, Nanos ns) {
    if (!enabled_) {
      return;
    }
    CellsFor(Resolve(site))[core * kMaxOwners + owner_slot] +=
        static_cast<uint64_t>(ns);
  }

  // Charge to the current context node itself (the enclosing ProfScope
  // already resolved it — no site needed).
  void ChargeCurrent(uint32_t core, uint32_t owner_slot, Nanos ns) {
    if (!enabled_) {
      return;
    }
    CellsFor(top_)[core * kMaxOwners + owner_slot] += static_cast<uint64_t>(ns);
  }

  // Owner resource ledger (attr.<owner>.{pkts,bytes,drops,sram_bytes};
  // nic_ns/host_ns derive from the cells at export).
  void CountPacket(uint32_t owner_slot, uint64_t bytes) {
    if (!enabled_) {
      return;
    }
    owners_[owner_slot].pkts += 1;
    owners_[owner_slot].bytes += bytes;
  }
  void CountDrop(uint32_t owner_slot) {
    if (!enabled_) {
      return;
    }
    owners_[owner_slot].drops += 1;
  }
  void ChargeSram(uint32_t owner_slot, int64_t delta) {
    if (!enabled_) {
      return;
    }
    owners_[owner_slot].sram_bytes += delta;
  }

  // ---- exports (cold; all byte-stable) ----------------------------------

  struct CoreReport {
    std::string name;
    CoreKind kind;
    uint64_t busy_ns = 0;
    uint64_t attributed_ns = 0;
    uint64_t unaccounted_ns = 0;  // busy - attributed, floored at 0
  };
  struct OwnerReport {
    uint32_t pid = 0;  // kOverflowPid marks the fold-in bucket
    uint64_t nic_ns = 0;
    uint64_t host_ns = 0;
    uint64_t pkts = 0;
    uint64_t bytes = 0;
    uint64_t drops = 0;
    int64_t sram_bytes = 0;
  };
  // One row per (context path, core) with nonzero time, plus per-node scope
  // entry counts (so zero-cost scopes like the maintenance tick stay
  // visible).
  struct StackReport {
    std::string stack;  // "frame;frame;frame" root-to-leaf
    std::string core;   // empty for entries-only rows
    uint64_t ns = 0;
    uint64_t entries = 0;
  };

  std::vector<CoreReport> CoreReports() const;   // sorted by core name
  std::vector<OwnerReport> OwnerReports() const; // sorted by pid
  std::vector<StackReport> StackReports() const; // sorted by (stack, core)

  // inferno/speedscope-compatible folded stacks: one
  // "core;frame;...;frame <ns>" line per nonzero (path, core), duplicate
  // paths content-merged, lines sorted. Per-core unaccounted time appears
  // as "core;[unaccounted] <ns>" so flamegraphs tile to busy_ns exactly.
  std::string FoldedStacks() const;

  // Sorted JSON: {"cores":[...],"owners":[...],"stacks":[...]}.
  std::string JsonReport() const;

  // Publish prof.core.<name>.{busy_ns,attributed_ns,unaccounted_ns},
  // attr.unaccounted, and attr.{pid.<pid>|unowned|overflow}.* gauges.
  // Overwrites on re-publish (ImportPool semantics) — call at report time.
  void PublishToRegistry(MetricsRegistry* registry) const;

  // Zero all cells, ledgers and scope counts; registrations survive.
  void Reset();

  uint32_t owner_pid(uint32_t slot) const { return owners_[slot].pid; }

 private:
  friend class ProfScope;

  struct Node {
    std::string name;
    uint32_t parent = 0;  // root points at itself
    uint64_t entries = 0;
    std::vector<uint32_t> children;
    std::unique_ptr<uint64_t[]> cells;  // kMaxCores * kMaxOwners, lazy
  };
  struct Core {
    std::string name;
    CoreKind kind;
    std::function<Nanos()> busy;
  };
  struct Owner {
    uint32_t pid = 0;
    uint64_t pkts = 0;
    uint64_t bytes = 0;
    uint64_t drops = 0;
    int64_t sram_bytes = 0;
  };

  uint32_t Resolve(ProfSite& site) {
    if (site.parent_plus1 == top_ + 1) {
      return site.node;
    }
    return ResolveSlow(site);
  }
  uint32_t ResolveSlow(ProfSite& site);
  uint32_t OwnerSlotSlow(uint32_t pid);
  uint64_t* CellsFor(uint32_t node) {
    auto& cells = nodes_[node].cells;
    if (cells == nullptr) {
      AllocCells(node);
    }
    return cells.get();
  }
  void AllocCells(uint32_t node);
  std::string PathOf(uint32_t node) const;

  bool enabled_ = false;
  uint32_t top_ = 0;  // current attribution context (root = 0)
  uint32_t memo_pid_ = 0;
  uint32_t memo_slot_ = 0;
  std::vector<Node> nodes_;
  std::vector<Core> cores_;
  std::vector<Owner> owners_;
};

// RAII attribution-context guard. Opening pushes `site` (resolved under the
// current node) as the new context; destruction restores the previous one.
// Cheap enough for per-packet use: a memo check and two stores when the
// profiler is on, one branch when off.
class ProfScope {
 public:
  ProfScope(Profiler* prof, ProfSite& site) {
    if (prof == nullptr || !prof->enabled()) {
      return;
    }
    prof_ = prof;
    saved_ = prof->top_;
    const uint32_t node = prof->Resolve(site);
    prof->top_ = node;
    ++prof->nodes_[node].entries;
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
  ~ProfScope() {
    if (prof_ != nullptr) {
      prof_->top_ = saved_;
    }
  }

 private:
  Profiler* prof_ = nullptr;
  uint32_t saved_ = 0;
};

}  // namespace norman::telemetry

#endif  // NORMAN_COMMON_PROFILER_H_
