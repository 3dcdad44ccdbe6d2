// Discrete-event simulation engine.
//
// All Norman experiments run in virtual time: the simulator owns a binary
// heap of (time, sequence, callback) event nodes. Ties are broken by
// insertion sequence so runs are fully deterministic. There is no
// threading; the "cores" of the simulated machine are Resource objects
// (see resource.h) that serialize work in virtual time.
//
// The event hot path is allocation-free in steady state: callbacks use a
// small-buffer-optimized InlineCallback (no std::function heap node for
// the few-pointer lambdas that dominate scheduling), and event nodes are
// recycled through a slab-backed free list inside the simulator.
#ifndef NORMAN_SIM_SIMULATOR_H_
#define NORMAN_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"
#include "src/common/stats.h"
#include "src/common/tracepoint.h"
#include "src/common/units.h"

namespace norman::sim {

// Move-only type-erased void() callable with inline storage. Callables up
// to kInlineBytes (the common case: lambdas capturing a few pointers and
// integers) live inside the object; larger ones fall back to a single heap
// allocation, counted by the owning simulator's pool stats.
class InlineCallback {
 public:
  static constexpr size_t kInlineBytes = 64;

  InlineCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }
  // True when the callable overflowed the inline buffer onto the heap.
  bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct `dst` storage from `src` storage, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool heap;
  };

  template <typename D>
  static D*& HeapSlot(void* storage) {
    return *std::launder(reinterpret_cast<D**>(storage));
  }

  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      static constexpr Ops kOps = {
          [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
          [](void* dst, void* src) {
            D* from = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
          },
          [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
          /*heap=*/false};
      ops_ = &kOps;
    } else {
      ::new (static_cast<void*>(storage_))
          D*(new D(std::forward<F>(f)));
      static constexpr Ops kOps = {
          [](void* s) { (*HeapSlot<D>(s))(); },
          [](void* dst, void* src) {
            ::new (dst) D*(HeapSlot<D>(src));
          },
          [](void* s) { delete HeapSlot<D>(s); },
          /*heap=*/true};
      ops_ = &kOps;
    }
  }

  void MoveFrom(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  Nanos Now() const { return now_; }

  // Schedule `fn` to run at absolute virtual time `when` (>= Now()).
  void ScheduleAt(Nanos when, Callback fn);

  // Schedule `fn` to run `delay` ns from now.
  void ScheduleAfter(Nanos delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // ---- deterministic core interleaving ------------------------------------
  //
  // A sharded dataplane services N per-core lanes. Events tagged with a
  // lane are ordered *within a ready horizon* by a rotating round-robin
  // rank keyed on (virtual time, core index): at horizon t, lane (t mod N)
  // is serviced first, then (t+1 mod N), and so on. The rotation makes the
  // schedule fair across lanes while staying a pure function of (t, lane),
  // so runs are bit-reproducible at any core count and at any dispatch
  // batch size. Untagged events (ScheduleAt) keep rank 0 and therefore
  // fire before any lane service at the same horizon, exactly as they
  // always have; with num_lanes() <= 1 every event has rank 0 and the
  // schedule is bit-identical to the historical (when, seq) order.
  static constexpr uint16_t kMaxLanes = 64;

  // Number of lanes the interleave schedule rotates over. Setting it does
  // not reorder already-queued events (their ranks were stamped at
  // schedule time); configure it before traffic starts.
  void set_num_lanes(uint16_t n);
  uint16_t num_lanes() const { return num_lanes_; }

  // Schedule `fn` at `when` on behalf of `lane`. With lanes configured the
  // event carries the rotating lane rank; otherwise this is ScheduleAt.
  void ScheduleAtLane(uint16_t lane, Nanos when, Callback fn);

  // Run events until the queue is empty. Drains in StepBatch() passes of
  // dispatch_batch() events.
  void Run();

  // Run events with time <= deadline; afterwards Now() == deadline (even if
  // the queue drained earlier), so rate computations over fixed windows work.
  // Batched like Run(): every event a StepBatch() pass pops shares the ready
  // horizon, so a deadline can never fall mid-batch — either the whole batch
  // fires at or before it, or none of it does.
  void RunUntil(Nanos deadline);

  // Run at most one event; returns false if the queue was empty.
  bool Step();

  // Hard ceiling on one batch pass (sizes the inline dispatch buffer).
  static constexpr uint32_t kMaxDispatchBatch = 64;
  static constexpr uint32_t kDefaultDispatchBatch = 64;

  // Pop up to max_n events that share the earliest pending timestamp (the
  // ready horizon) in one heap pass, then dispatch them from an inline
  // buffer in (when, seq) order. Only horizon-sharing events are batched:
  // a callback may schedule new work at any time >= now, and that work must
  // run before any already-buffered later-time event — so the buffer never
  // spans timestamps. Same-time events scheduled from inside the batch get
  // a higher sequence number than everything buffered and correctly run in
  // a subsequent pass at the same horizon. Returns the number dispatched
  // (0 when the queue was empty).
  uint32_t StepBatch(uint32_t max_n);

  // Batch size used by Run()/RunUntil(), clamped to [1, kMaxDispatchBatch].
  // 1 reproduces the historical one-event-per-heap-visit loop exactly.
  void set_dispatch_batch(uint32_t n);
  uint32_t dispatch_batch() const { return dispatch_batch_; }

  // Queue observers. Events a StepBatch() pass has popped but not yet run
  // still count as pending: under per-event stepping they would sit in the
  // heap while their same-time siblings dispatch, and callbacks that probe
  // the queue (ConsumeTxRing's inline-continuation check, the kernel's
  // interrupt re-arm) must see identical state at every batch size.
  bool Idle() const { return heap_.empty() && batch_pending_ == 0; }
  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return heap_.size() + batch_pending_; }

  // True if an already-scheduled event would fire at or before `when`.
  // Batched device loops use this to detect that an intermediate wake-up
  // event can be elided without reordering anything (see SmartNic TX fetch).
  bool HasEventAtOrBefore(Nanos when) const {
    if (batch_pending_ != 0 && now_ <= when) {
      return true;  // undispatched batch siblings fire "now"
    }
    return !heap_.empty() && heap_.front()->when <= when;
  }

  // Event-node recycling stats (hits = reused nodes, misses = fresh slab
  // carves/allocations).
  const PoolCounters& event_pool() const { return node_counters_; }

  // Telemetry for this simulated world. The simulator owns the registry
  // and the event journal so every device reached through a Simulator*
  // shares them, and separate worlds (tests, benches) stay isolated.
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  // Cycle-attribution profiler for this world (off by default; devices
  // register their cores at construction, charges appear only once
  // profiler().set_enabled(true)).
  telemetry::Profiler& profiler() { return profiler_; }
  const telemetry::Profiler& profiler() const { return profiler_; }
  // Armable probe points, packet-lifecycle spans and the black-box
  // trigger engine riding on them (all probes disarmed and spans off by
  // default; see tracepoint.h).
  telemetry::Tracepoints& tracepoints() { return tracepoints_; }
  const telemetry::Tracepoints& tracepoints() const { return tracepoints_; }
  telemetry::FlightRecorder& flight_recorder() { return flight_recorder_; }
  const telemetry::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

 private:
  struct EventNode {
    Nanos when = 0;
    uint64_t seq = 0;
    // Lane-interleave rank within the ready horizon. 0 for untagged events
    // and for every event while num_lanes() <= 1, so the historical
    // (when, seq) order is preserved by construction in unsharded worlds.
    uint16_t rank = 0;
    InlineCallback fn;
  };
  // Min-heap on (when, rank, seq): comparator says "a fires later than b".
  struct FiresLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      if (a->when != b->when) {
        return a->when > b->when;
      }
      if (a->rank != b->rank) {
        return a->rank > b->rank;
      }
      return a->seq > b->seq;
    }
  };

  // Rotating round-robin rank for a lane-tagged event at horizon `when`:
  // 1 + (lane - when) mod N, so lane (when mod N) ranks first. Strictly
  // positive so untagged (rank 0) work always precedes lane service.
  uint16_t LaneRank(uint16_t lane, Nanos when) const {
    if (num_lanes_ <= 1) {
      return 0;
    }
    const uint16_t n = num_lanes_;
    const uint16_t phase = static_cast<uint16_t>(
        static_cast<uint64_t>(when) % n);
    return static_cast<uint16_t>(1 + (lane % n + n - phase) % n);
  }

  static constexpr size_t kSlabNodes = 256;

  EventNode* AcquireNode();
  void ReleaseNode(EventNode* node);
  // Multi-event tail of StepBatch(): pops the rest of the ready horizon
  // into buf and dispatches first + buf in (when, seq) order.
  uint32_t DrainHorizon(InlineCallback& first, InlineCallback* buf,
                        uint32_t max_n, Nanos horizon);

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint16_t num_lanes_ = 1;
  std::vector<EventNode*> heap_;
  std::vector<EventNode*> free_nodes_;
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  size_t last_slab_used_ = kSlabNodes;  // forces a slab on first acquire
  uint32_t dispatch_batch_ = kDefaultDispatchBatch;
  // Events popped into the current StepBatch() buffer but not yet run;
  // see the queue-observer comment above. Additive so a callback that
  // re-enters Step()/StepBatch() composes correctly.
  uint32_t batch_pending_ = 0;
  // Reusable dispatch buffer for multi-event horizon drains, constructed
  // once so the hot path never pays per-pass InlineCallback array setup.
  // busy_ guards against a callback re-entering StepBatch(); the rare
  // recursive pass falls back to a stack-local buffer.
  InlineCallback dispatch_buf_[kMaxDispatchBatch];
  bool dispatch_buf_busy_ = false;
  PoolCounters node_counters_{"event"};
  telemetry::MetricsRegistry metrics_;
  telemetry::Profiler profiler_;
  telemetry::Tracepoints tracepoints_{&metrics_};
  telemetry::FlightRecorder flight_recorder_{&tracepoints_};
  // Root attribution frame: every StepBatch() pass runs under "dispatch",
  // so device scopes (nic.tx, kernel.slow_path, ...) nest beneath it.
  telemetry::ProfSite dispatch_site_{"dispatch"};
  // Dispatch telemetry, added once per batch pass (never per event):
  // batches = StepBatch passes, batched events / batches = mean burst size.
  telemetry::Counter* dispatch_batches_ =
      metrics_.GetCounter("sim.dispatch.batches");
  telemetry::Counter* dispatch_events_ =
      metrics_.GetCounter("sim.dispatch.batched_events");
};

}  // namespace norman::sim

#endif  // NORMAN_SIM_SIMULATOR_H_
