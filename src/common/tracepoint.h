// Kernel tracepoints: named, dynamically armable probe points at every
// interposition decision site (the kprobes of Norman).
//
// The paper's tooling argument — kernel interposition keeps tcpdump /
// netstat / top alive over a bypassed dataplane — extends to diagnosis:
// when the dataplane degrades, the question is "what *sequence* of
// decisions led here?", and only the interposition layer sees every
// decision. Each probe marks one such site — filter verdict, conntrack
// transition, flow-cache install/evict/invalidate, SRAM alloc/exhaustion,
// ring-full and notify-stall, fault-injector activation, qdisc drop,
// kernel slow-path entry, socket-surface calls, watchdog state change —
// and, when armed, emits one fixed-size structured record (virtual
// timestamp, probe id, core, owner pid via the flow→pid map, probe args)
// into a per-core ring buffer. Per-probe predicates (pid / 5-tuple /
// direction) are evaluated at emit so a probe can watch one flow without
// drowning in the rest.
//
// Cost discipline (same as the profiler's): a disarmed probe is a single
// predictable branch on a zero mask. Armed probes observe only — no
// events, no RNG, no virtual-time cost, no steady-state allocation (rings
// are carved once at arm time) — so the bit-exact determinism goldens hold
// with every probe armed.
//
// The same rings carry packet-lifecycle spans: a packet sampled 1-in-N at
// NIC arrival appends one [start, end) record per hop (DMA, pipeline, each
// stage, qdisc wait, wire, ring), and its spans tile exactly onto
// completed_at - nic_arrival. Spans are not an armable probe, so ArmAll()
// cannot flood the rings with them.
#ifndef NORMAN_COMMON_TRACEPOINT_H_
#define NORMAN_COMMON_TRACEPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/units.h"

namespace norman::telemetry {

class FlightRecorder;

// One identifier per interposition decision site. Arg meanings are fixed
// per probe and documented in docs/OBSERVABILITY.md §7.
enum class Probe : uint8_t {
  kFilterVerdict = 0,    // a0 = action, a1 = matched rule index
  kConntrackTransition,  // a0 = state after, a1 = state before
  kFlowCacheInstall,     // a0 = epoch, a1 = entries after
  kFlowCacheEvict,       // a0 = entries after
  kFlowCacheInvalidate,  // a0 = epoch after the bump
  kSramAlloc,            // a0 = bytes, a1 = used after, a2 = tenant
  kSramExhausted,        // a0 = bytes requested, a1 = available, a2 = tenant
                         // (pid = requesting owner; 0 = anonymous/wire)
  kRingFull,             // a0 = DropReason, a1 = direction tag
  kNotifyStall,          // a0 = notifications deferred so far
  kFaultInject,          // a0 = FaultActivation, a1 = link index
  kQdiscDrop,            // a0 = DropReason, a1 = direction tag
  kNicDrop,              // a0 = DropReason, a1 = direction tag
  kSlowPath,             // a0 = SlowPathOp, a1 = direction tag
  kSocketCall,           // a0 = SocketOp, a1 = port
  kWatchdogTransition,   // a0 = HealthState after, a1 = before
};
inline constexpr size_t kNumProbes = 15;

// Record id of a packet-lifecycle span ("pkt.span"), one past the probes:
// t = span start, a0 = trace id, a1 = interned stage id, a2 = span end.
inline constexpr uint16_t kSpanRecord = kNumProbes;

// Sorted-stable dotted names ("filter.verdict", "nic.drop", ...).
std::string_view ProbeName(Probe probe);
bool ProbeFromName(std::string_view name, Probe* out);

// Direction tags carried in records and matched by predicates. Numeric so
// common/ needs no net/ dependency; sites map net::Direction themselves.
inline constexpr uint8_t kDirNone = 0;
inline constexpr uint8_t kDirTx = 1;
inline constexpr uint8_t kDirRx = 2;

// a0 of kFaultInject: which fault the injector activated.
enum class FaultActivation : uint8_t {
  kLoss = 0,
  kDuplicate = 1,
  kCorrupt = 2,
  kJitter = 3,
  kReorder = 4,
  kLinkDown = 5,
};

// a0 of kSlowPath: which software path the packet entered.
enum class SlowPathOp : uint8_t {
  kHostDeliver = 0,   // NIC fallback/unmatched traffic entering the kernel
  kSoftTransmit = 1,  // software-fallback TX through the kernel core
};

// a0 of kSocketCall: which socket-surface syscall ran.
enum class SocketOp : uint8_t {
  kConnect = 0,
  kClose = 1,
  kListen = 2,
  kAccept = 3,
};

// Flow identity a site passes alongside an emit so predicates can match on
// the 5-tuple / direction. All zeros = unknown.
struct TraceFlow {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t proto = 0;
  uint8_t dir = kDirNone;
};

// The fixed-size emitted record (one ring slot).
struct TraceRecord {
  Nanos t = 0;        // virtual timestamp
  uint64_t seq = 0;   // global emit order (merge key across core rings)
  uint64_t a0 = 0;
  uint64_t a1 = 0;
  uint64_t a2 = 0;
  uint32_t pid = 0;   // owner pid via the flow→pid map; 0 = unowned
  uint16_t probe = 0;
  uint8_t core = 0;
  uint8_t dir = kDirNone;
};

// One lifecycle span decoded from a kSpanRecord record.
struct TraceSpan {
  uint32_t trace_id = 0;
  std::string_view stage;  // the static-storage name passed to Span()
  Nanos start = 0;
  Nanos end = 0;
};

// Per-probe emit filter. Zero fields match anything; a set field must
// match exactly. Canonical text form is comma-separated k=v pairs:
//   pid=3,dir=tx,src_ip=10.0.0.1,dst_port=443,proto=17
struct ProbePredicate {
  uint32_t pid = 0;
  uint8_t dir = kDirNone;
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t proto = 0;

  bool any() const {
    return pid == 0 && dir == kDirNone && src_ip == 0 && dst_ip == 0 &&
           src_port == 0 && dst_port == 0 && proto == 0;
  }
  bool Matches(uint32_t emit_pid, const TraceFlow* flow) const;
  // Canonical text form (field order fixed); "*" when unconstrained.
  std::string Render() const;
  // Parses the canonical form (fields in any order). Returns false on an
  // unknown key or malformed value.
  static bool Parse(std::string_view text, ProbePredicate* out);
};

class Tracepoints {
 public:
  // Record lanes: the aggregate NIC-side ring, the host-side ring
  // (mirroring the profiler's CoreKind split of the simulated machine),
  // and one ring per lane of a multi-lane dataplane. A one-lane NIC emits
  // its lane's events on the aggregate NIC ring, so it only ever uses the
  // first two; lane rings cost nothing until armed (rings are carved
  // lazily) and keep a multi-lane run's per-core decision sequences
  // separable in the journal.
  static constexpr uint32_t kCoreNic = 0;
  static constexpr uint32_t kCoreHost = 1;
  static constexpr uint32_t kCoreLaneBase = 2;
  static constexpr uint32_t kMaxLaneCores = 8;
  static constexpr uint32_t kNumCores = kCoreLaneBase + kMaxLaneCores;
  // Records retained per core ring (newest win; older are overwritten).
  static constexpr size_t kRingCapacity = 4096;

  // Registers per-probe hit counters ("probe.<name>") plus the ring
  // overwrite counter eagerly, so the metric manifest is shape-stable
  // whether or not a run ever arms anything. Span stage histograms
  // ("trace.stage.<stage>") register at a stage's first span.
  explicit Tracepoints(MetricsRegistry* registry);
  Tracepoints(const Tracepoints&) = delete;
  Tracepoints& operator=(const Tracepoints&) = delete;

  // Virtual-clock source for record timestamps: a pointer to the owning
  // simulator's now-counter, dereferenced on the armed emit path (a raw
  // load — emits are hot enough that an indirect call would show up in
  // the paired bench gate). The pointee must outlive this object.
  void SetClock(const Nanos* now) { clock_ = now; }

  // ---- arming (cold) ------------------------------------------------------
  void Arm(Probe probe) { Arm(probe, ProbePredicate{}); }
  void Arm(Probe probe, const ProbePredicate& predicate);
  void Disarm(Probe probe);
  void ArmAll();
  bool armed(Probe probe) const {
    return (armed_mask_ & Bit(probe)) != 0;
  }
  // True when the probe's predicate constrains the 5-tuple/pid, i.e. the
  // emit site must bother extracting flow fields. Records store only the
  // direction, so an unconstrained probe never needs the tuple — hot call
  // sites use this to skip the header walk.
  bool wants_flow(Probe probe) const {
    return (pred_mask_ & Bit(probe)) != 0;
  }
  const ProbePredicate& predicate(Probe probe) const {
    return predicates_[static_cast<size_t>(probe)];
  }

  // Black-box latch: a fired trigger freezes the rings so the journal tail
  // preserved is the one that led up to the event. Frozen emits still count
  // hits (the decision happened) but append nothing.
  void Freeze() { frozen_ = true; }
  void Unfreeze() { frozen_ = false; }
  bool frozen() const { return frozen_; }

  // ---- hot path -----------------------------------------------------------

  // One predictable branch while nothing is armed. Armed emits run the
  // predicate, stamp a record into the core ring and notify the attached
  // flight recorder.
  void Emit(Probe probe, uint32_t core, uint32_t pid, uint64_t a0 = 0,
            uint64_t a1 = 0, uint64_t a2 = 0,
            const TraceFlow* flow = nullptr) {
    if ((armed_mask_ & Bit(probe)) == 0) {
      return;
    }
    EmitSlow(probe, core, pid, a0, a1, a2, flow);
  }

  // ---- packet-lifecycle spans ---------------------------------------------

  // 1-in-N arrival sampling; 0 (the default) turns spans off. A non-zero
  // interval carves the rings, as arming a probe does.
  void set_span_sample_interval(uint32_t n);

  // Once per packet at NIC arrival: a fresh nonzero trace id for every N-th
  // arrival, else 0.
  uint32_t SampleArrival() {
    if (span_interval_ == 0 || arrivals_++ % span_interval_ != 0) {
      return 0;
    }
    return ++next_trace_id_;
  }

  // Appends a sampled packet's span to `core`'s ring and feeds the
  // "trace.stage.<stage>" histogram, frozen or not (the watchdog reads it
  // live). Id 0 returns inline. `stage` must be static storage: the record
  // holds an interned id.
  void Span(uint32_t trace_id, std::string_view stage, Nanos start,
            Nanos end, uint32_t core) {
    if (trace_id != 0) {
      SpanSlow(trace_id, stage, start, end, core);
    }
  }

  // Spans appended since Clear(), overwritten ones included.
  uint64_t spans_recorded() const { return spans_recorded_; }
  // Retained spans in record order.
  std::vector<TraceSpan> Spans() const;
  // Chrome trace-event JSON of Spans(): one complete ("X") event per span,
  // ts/dur in microseconds of virtual time, tid = trace id (one Perfetto
  // track per traced packet).
  std::string ChromeTraceJson() const;

  // ---- inspection (cold; all byte-stable) ---------------------------------

  uint64_t hits(Probe probe) const {
    return hits_[static_cast<size_t>(probe)];
  }
  uint64_t filtered(Probe probe) const {
    return filtered_[static_cast<size_t>(probe)];
  }
  uint64_t emitted_total() const { return next_seq_; }
  uint64_t overwritten() const { return overwritten_count_; }

  // Retained records from every core ring, merged in emit (seq) order.
  std::vector<TraceRecord> Journal() const;
  // The journal decoded to a JSON array (probe names, not ids; spans also
  // carry their stage name), sorted by emit order; byte-stable for a
  // deterministic run.
  std::string JournalJson() const;
  // Probe inventory: one "name armed predicate hits filtered" line per
  // probe, sorted by probe name; byte-stable.
  std::string ListReport() const;

  void AttachRecorder(FlightRecorder* recorder) { recorder_ = recorder; }
  FlightRecorder* recorder() const { return recorder_; }

  // Drops retained records, counters memo and the freeze latch, and
  // restarts span sampling (arrival and trace-id counters); arming,
  // predicates and the span interval survive (Clear is "new capture, same
  // configuration").
  void Clear();

 private:
  struct Ring {
    std::vector<TraceRecord> buf;  // sized kRingCapacity when carved
    uint64_t total = 0;            // records ever appended to this ring
  };

  static constexpr uint32_t Bit(Probe probe) {
    return uint32_t{1} << static_cast<uint32_t>(probe);
  }

  struct Stage {  // an interned span stage
    std::string_view name;
    LatencyHistogram* hist;
  };

  void EmitSlow(Probe probe, uint32_t core, uint32_t pid, uint64_t a0,
                uint64_t a1, uint64_t a2, const TraceFlow* flow);
  void SpanSlow(uint32_t trace_id, std::string_view stage, Nanos start,
                Nanos end, uint32_t core);
  // The one append path for probe records and spans: stamps seq and core,
  // overwrites the ring's oldest record when full, notifies the recorder.
  void Append(TraceRecord& rec, uint32_t core);
  void EnsureRings();

  MetricsRegistry* registry_;
  const Nanos* clock_ = nullptr;
  uint32_t armed_mask_ = 0;
  // Bit set iff the probe's predicate constrains anything: lets the armed
  // emit path skip the field-by-field match for the common "*" predicate.
  uint32_t pred_mask_ = 0;
  bool frozen_ = false;
  uint64_t next_seq_ = 0;
  uint64_t overwritten_count_ = 0;
  std::array<ProbePredicate, kNumProbes> predicates_{};
  std::array<uint64_t, kNumProbes> hits_{};
  std::array<uint64_t, kNumProbes> filtered_{};
  std::array<Ring, kNumCores> rings_;
  std::array<Counter*, kNumProbes> hit_counters_{};
  Counter* overwritten_counter_;  // probe.records.dropped
  FlightRecorder* recorder_ = nullptr;
  uint32_t span_interval_ = 0;
  uint64_t arrivals_ = 0;
  uint32_t next_trace_id_ = 0;
  uint64_t spans_recorded_ = 0;
  // A span record's a1 indexes `stages_`; `stage_ids_` maps name to index.
  std::vector<Stage> stages_;
  std::unordered_map<std::string_view, uint32_t> stage_ids_;
};

}  // namespace norman::telemetry

#endif  // NORMAN_COMMON_TRACEPOINT_H_
