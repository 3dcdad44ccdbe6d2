#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/logging.h"

namespace norman::sim {

Simulator::Simulator() {
  // Tracepoint records carry virtual timestamps; the clock indirection is
  // only paid on the armed emit path.
  tracepoints_.SetClock(&now_);
}

Simulator::EventNode* Simulator::AcquireNode() {
  if (!free_nodes_.empty()) {
    EventNode* node = free_nodes_.back();
    free_nodes_.pop_back();
    node_counters_.RecordAcquire(/*from_free_list=*/true);
    return node;
  }
  if (last_slab_used_ == kSlabNodes) {
    slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
    last_slab_used_ = 0;
  }
  EventNode* node = &slabs_.back()[last_slab_used_++];
  node_counters_.RecordAcquire(/*from_free_list=*/false);
  return node;
}

void Simulator::ReleaseNode(EventNode* node) {
  // fn was moved out (or never set); the node returns to the free list and
  // is never handed back to the allocator while the simulator lives.
  free_nodes_.push_back(node);
  node_counters_.RecordRelease(/*kept=*/true);
}

void Simulator::ScheduleAt(Nanos when, Callback fn) {
  NORMAN_CHECK(when >= now_) << "cannot schedule into the past: " << when
                             << " < " << now_;
  EventNode* node = AcquireNode();
  node->when = when;
  node->seq = next_seq_++;
  node->rank = 0;  // nodes recycle: clear any stale lane rank
  node->fn = std::move(fn);
  heap_.push_back(node);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

void Simulator::ScheduleAtLane(uint16_t lane, Nanos when, Callback fn) {
  NORMAN_CHECK(when >= now_) << "cannot schedule into the past: " << when
                             << " < " << now_;
  EventNode* node = AcquireNode();
  node->when = when;
  node->seq = next_seq_++;
  node->rank = LaneRank(lane, when);
  node->fn = std::move(fn);
  heap_.push_back(node);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

void Simulator::set_num_lanes(uint16_t n) {
  num_lanes_ = std::clamp<uint16_t>(n, 1, kMaxLanes);
}

bool Simulator::Step() { return StepBatch(1) != 0; }

uint32_t Simulator::StepBatch(uint32_t max_n) {
  if (heap_.empty() || max_n == 0) {
    return 0;
  }
  if (max_n > kMaxDispatchBatch) {
    max_n = kMaxDispatchBatch;
  }
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  EventNode* node = heap_.back();
  heap_.pop_back();
  const Nanos horizon = node->when;
  now_ = horizon;
  // Move the callback out and recycle the node *before* invoking, so events
  // the callback schedules can reuse it immediately.
  InlineCallback first = std::move(node->fn);
  ReleaseNode(node);
  // Attribution root for everything this pass dispatches. One guard per
  // pass (not per event): a single predicted branch when the profiler is
  // off, so the single-event fast path keeps its historical cost.
  telemetry::ProfScope dispatch_scope(&profiler_, dispatch_site_);
  if (max_n == 1 || heap_.empty() || heap_.front()->when != horizon) {
    // Single-event fast path — the overwhelmingly common case (most ready
    // horizons hold exactly one event). Must cost what the historical
    // per-event Step() did: no dispatch buffer, no batch accounting.
    ++events_processed_;
    first();
    return 1;
  }
  // Multiple events share the horizon: drain them through the reusable
  // member buffer (constructed once, so the pass pays only the moves). A
  // callback that re-enters StepBatch() while the buffer is in use — rare,
  // but legal — falls back to a stack-local buffer.
  if (!dispatch_buf_busy_) {
    dispatch_buf_busy_ = true;
    const uint32_t n = DrainHorizon(first, dispatch_buf_, max_n, horizon);
    dispatch_buf_busy_ = false;
    return n;
  }
  InlineCallback local[kMaxDispatchBatch];
  return DrainHorizon(first, local, max_n, horizon);
}

uint32_t Simulator::DrainHorizon(InlineCallback& first, InlineCallback* buf,
                                 uint32_t max_n, Nanos horizon) {
  // Pop every remaining horizon-sharer (up to max_n total) in one heap
  // pass, then dispatch: `first`, then the buffer. The popped callbacks
  // are already in (when, seq) order.
  uint32_t extra = 0;
  do {
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    EventNode* node = heap_.back();
    heap_.pop_back();
    buf[extra++] = std::move(node->fn);
    ReleaseNode(node);
  } while (1 + extra < max_n && !heap_.empty() &&
           heap_.front()->when == horizon);
  const uint32_t n = 1 + extra;
  events_processed_ += n;
  // Dispatch telemetry counts multi-event passes only (the single-event
  // fast path is deliberately counter-free); one add each per pass.
  dispatch_batches_->Increment();
  dispatch_events_->Increment(n);
  // Buffered-but-unrun events still count as pending for the queue
  // observers (Idle / pending_events / HasEventAtOrBefore): under
  // per-event stepping they would still be in the heap, and callbacks
  // that probe the queue must see identical state at every batch size.
  batch_pending_ += extra;
  first();
  for (uint32_t i = 0; i < extra; ++i) {
    --batch_pending_;  // the event now running is no longer pending
    buf[i]();
    // Destroy captured state right after the call — the timing the
    // one-event Step() had — so resources a callback holds (pooled
    // packets, sockets) release before the next callback runs.
    buf[i] = InlineCallback();
  }
  return n;
}

void Simulator::Run() {
  while (StepBatch(dispatch_batch_) != 0) {
  }
}

void Simulator::RunUntil(Nanos deadline) {
  // Every event StepBatch pops shares heap_.front()->when, so checking the
  // front against the deadline bounds the whole batch: the deadline cannot
  // fall mid-batch.
  while (!heap_.empty() && heap_.front()->when <= deadline) {
    StepBatch(dispatch_batch_);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::set_dispatch_batch(uint32_t n) {
  dispatch_batch_ = std::clamp(n, 1u, kMaxDispatchBatch);
}

}  // namespace norman::sim
