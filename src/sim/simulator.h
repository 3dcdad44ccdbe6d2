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
  void ScheduleAt(Nanos when, Callback fn) { Push(when, 0, std::move(fn)); }

  // Schedule `fn` to run `delay` ns from now.
  void ScheduleAfter(Nanos delay, Callback fn) {
    Push(now_ + delay, 0, std::move(fn));
  }

  // ---- deterministic core interleaving ------------------------------------
  //
  // A sharded dataplane services N per-core lanes. Events tagged with a
  // lane are ordered *within a ready horizon* by a rotating round-robin
  // rank keyed on (virtual time, core index): at horizon t, lane (t mod N)
  // is serviced first, then (t+1 mod N), and so on. The rotation makes the
  // schedule fair across lanes while staying a pure function of (t, lane),
  // so runs are bit-reproducible at any core count. Untagged events
  // (ScheduleAt) keep rank 0 and therefore fire before any lane service at
  // the same horizon, exactly as they always have; with num_lanes() <= 1
  // every event has rank 0 and the schedule is bit-identical to the
  // historical (when, seq) order.
  static constexpr uint16_t kMaxLanes = 64;

  // Number of lanes the interleave schedule rotates over. Setting it does
  // not reorder already-queued events (their ranks were stamped at
  // schedule time); configure it before traffic starts.
  void set_num_lanes(uint16_t n);
  uint16_t num_lanes() const { return num_lanes_; }

  // Schedule `fn` at `when` on behalf of `lane`. With lanes configured the
  // event carries the rotating lane rank; otherwise this is ScheduleAt.
  void ScheduleAtLane(uint16_t lane, Nanos when, Callback fn) {
    Push(when, LaneRank(lane, when), std::move(fn));
  }

  // Run events until the queue is empty.
  void Run();

  // Run events with time <= deadline; afterwards Now() == deadline (even if
  // the queue drained earlier), so rate computations over fixed windows work.
  void RunUntil(Nanos deadline);

  // Run the earliest event, in (when, rank, seq) order; returns false if
  // the queue was empty. The one dispatch body: Run() and RunUntil() loop
  // on it.
  bool Step();

  // Queue observers: an event is pending until Step() pops it.
  bool Idle() const { return heap_.empty(); }
  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return heap_.size(); }

  // True if an already-scheduled event would fire at or before `when`.
  // Batched device loops use this to detect that an intermediate wake-up
  // event can be elided without reordering anything (see SmartNic TX fetch).
  bool HasEventAtOrBefore(Nanos when) const {
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
  // Queues `fn` at (when, rank, next seq); rank 0 for untagged events.
  void Push(Nanos when, uint16_t rank, Callback&& fn);

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint16_t num_lanes_ = 1;
  std::vector<EventNode*> heap_;
  std::vector<EventNode*> free_nodes_;
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  size_t last_slab_used_ = kSlabNodes;  // forces a slab on first acquire
  PoolCounters node_counters_{"event"};
  telemetry::MetricsRegistry metrics_;
  telemetry::Profiler profiler_;
  telemetry::Tracepoints tracepoints_{&metrics_};
  telemetry::FlightRecorder flight_recorder_{&tracepoints_};
  // Root attribution frame: every event runs under "dispatch", so device
  // scopes (nic.tx, kernel.slow_path, ...) nest beneath it.
  telemetry::ProfSite dispatch_site_{"dispatch"};
};

}  // namespace norman::sim

#endif  // NORMAN_SIM_SIMULATOR_H_
