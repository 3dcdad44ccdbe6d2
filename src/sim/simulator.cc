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

void Simulator::Push(Nanos when, uint16_t rank, Callback&& fn) {
  NORMAN_CHECK(when >= now_) << "cannot schedule into the past: " << when
                             << " < " << now_;
  EventNode* node = AcquireNode();
  node->when = when;
  node->seq = next_seq_++;
  node->rank = rank;
  node->fn = std::move(fn);
  heap_.push_back(node);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

void Simulator::set_num_lanes(uint16_t n) {
  num_lanes_ = std::clamp<uint16_t>(n, 1, kMaxLanes);
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  EventNode* node = heap_.back();
  heap_.pop_back();
  now_ = node->when;
  // Move the callback out and recycle the node *before* invoking, so events
  // the callback schedules can reuse it immediately.
  InlineCallback fn = std::move(node->fn);
  ReleaseNode(node);
  telemetry::ProfScope dispatch_scope(&profiler_, dispatch_site_);
  ++events_processed_;
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Nanos deadline) {
  while (HasEventAtOrBefore(deadline)) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace norman::sim
