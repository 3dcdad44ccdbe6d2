#include "src/dataplane/qdisc.h"

#include <algorithm>
#include <cmath>

#include "src/overlay/decoded_program.h"

namespace norman::dataplane {

Classifier ClassifyByUid(std::map<uint32_t, uint32_t> uid_to_class) {
  return [map = std::move(uid_to_class)](const overlay::PacketContext& ctx) {
    const auto it = map.find(ctx.conn.owner_uid);
    return it == map.end() ? 0u : it->second;
  };
}

Classifier ClassifyByCgroup(std::map<uint32_t, uint32_t> cgroup_to_class) {
  return
      [map = std::move(cgroup_to_class)](const overlay::PacketContext& ctx) {
        const auto it = map.find(ctx.conn.owner_cgroup);
        return it == map.end() ? 0u : it->second;
      };
}

Classifier ClassifyByDscp(std::map<uint8_t, uint32_t> dscp_to_class) {
  return [map = std::move(dscp_to_class)](const overlay::PacketContext& ctx) {
    const auto dscp =
        static_cast<uint8_t>(ctx.ReadField(overlay::Field::kIpDscp));
    const auto it = map.find(dscp);
    return it == map.end() ? 0u : it->second;
  };
}

Classifier ClassifyByOverlay(overlay::Program program) {
  auto decoded = overlay::DecodedProgram::Decode(std::move(program));
  NORMAN_CHECK(decoded.ok())
      << "classifier overlay program failed verification: "
      << decoded.status();
  return [prog = std::move(*decoded)](const overlay::PacketContext& ctx) {
    return static_cast<uint32_t>(prog.Run(ctx).verdict);
  };
}

// ---- PrioQdisc --------------------------------------------------------------

PrioQdisc::PrioQdisc(uint32_t num_bands, Classifier classifier,
                     size_t per_band_capacity)
    : bands_(num_bands == 0 ? 1 : num_bands),
      classifier_(std::move(classifier)),
      per_band_capacity_(per_band_capacity) {}

bool PrioQdisc::Enqueue(net::PacketPtr packet,
                        const overlay::PacketContext& ctx) {
  uint32_t band = classifier_(ctx);
  if (band >= bands_.size()) {
    band = static_cast<uint32_t>(bands_.size()) - 1;  // clamp to lowest prio
  }
  if (bands_[band].queue.size() >= per_band_capacity_) {
    ++bands_[band].drops;
    return false;
  }
  bands_[band].queue.push_back(std::move(packet));
  return true;
}

net::PacketPtr PrioQdisc::Dequeue(Nanos /*now*/) {
  for (Band& band : bands_) {
    if (!band.queue.empty()) {
      net::PacketPtr p = std::move(band.queue.front());
      band.queue.pop_front();
      return p;
    }
  }
  return nullptr;
}

Nanos PrioQdisc::NextEligibleTime(Nanos /*now*/) const { return -1; }

size_t PrioQdisc::backlog_packets() const {
  size_t n = 0;
  for (const Band& band : bands_) {
    n += band.queue.size();
  }
  return n;
}

// ---- TokenBucketQdisc -------------------------------------------------------

TokenBucketQdisc::TokenBucketQdisc(BitsPerSecond rate_bps,
                                   uint64_t burst_bytes,
                                   size_t capacity_packets)
    : bucket_{rate_bps, burst_bytes, static_cast<double>(burst_bytes)},
      capacity_(capacity_packets) {}

bool TokenBucketQdisc::Enqueue(net::PacketPtr packet,
                               const overlay::PacketContext& /*ctx*/) {
  if (queue_.size() >= capacity_) {
    ++drops_;
    return false;
  }
  queue_.push_back(std::move(packet));
  return true;
}

net::PacketPtr TokenBucketQdisc::Dequeue(Nanos now) {
  if (queue_.empty()) {
    return nullptr;
  }
  bucket_.Refill(now);
  if (!bucket_.TryConsume(queue_.front()->size())) {
    return nullptr;  // not yet conformant
  }
  net::PacketPtr p = std::move(queue_.front());
  queue_.pop_front();
  return p;
}

Nanos TokenBucketQdisc::NextEligibleTime(Nanos now) const {
  if (queue_.empty() || bucket_.rate_bps == 0) {
    return -1;
  }
  return bucket_.EligibleAt(now, queue_.front()->size());
}

// ---- DrrQdisc ---------------------------------------------------------------

DrrQdisc::DrrQdisc(Classifier classifier, uint64_t quantum_bytes,
                   size_t per_class_capacity)
    : classifier_(std::move(classifier)),
      quantum_(quantum_bytes == 0 ? 1 : quantum_bytes),
      per_class_capacity_(per_class_capacity) {}

bool DrrQdisc::Enqueue(net::PacketPtr packet,
                       const overlay::PacketContext& ctx) {
  const uint32_t cls = classifier_(ctx);
  ClassState& state = classes_[cls];
  if (state.queue.size() >= per_class_capacity_) {
    return false;
  }
  state.queue.push_back(std::move(packet));
  ++backlog_;
  if (!state.in_active_list) {
    state.in_active_list = true;
    state.deficit = quantum_;
    active_.push_back(cls);
  }
  return true;
}

net::PacketPtr DrrQdisc::Dequeue(Nanos /*now*/) {
  // Deficit grows by one quantum per full rotation, so the loop terminates
  // once some class accumulates enough for its head packet. Bound the scan
  // defensively anyway.
  const size_t max_rotations = 64 + backlog_;
  for (size_t step = 0; step < active_.size() * max_rotations + 1; ++step) {
    if (active_.empty()) {
      return nullptr;
    }
    const uint32_t cls = active_.front();
    ClassState& state = classes_[cls];
    if (state.queue.empty()) {
      state.in_active_list = false;
      state.deficit = 0;
      active_.pop_front();
      continue;
    }
    const uint64_t head_size = state.queue.front()->size();
    if (state.deficit >= head_size) {
      state.deficit -= head_size;
      net::PacketPtr p = std::move(state.queue.front());
      state.queue.pop_front();
      --backlog_;
      if (state.queue.empty()) {
        state.in_active_list = false;
        state.deficit = 0;
        active_.pop_front();
      }
      return p;
    }
    // Visit over: recharge and rotate to the back.
    state.deficit += quantum_;
    active_.pop_front();
    active_.push_back(cls);
  }
  return nullptr;
}

Nanos DrrQdisc::NextEligibleTime(Nanos /*now*/) const { return -1; }

// ---- WfqQdisc ---------------------------------------------------------------

WfqQdisc::WfqQdisc(Classifier classifier, size_t per_class_capacity)
    : classifier_(std::move(classifier)),
      per_class_capacity_(per_class_capacity) {}

void WfqQdisc::SetWeight(uint32_t class_id, double weight) {
  NORMAN_CHECK(weight > 0.0) << "WFQ weight must be positive";
  flows_[class_id].weight = weight;
}

bool WfqQdisc::Enqueue(net::PacketPtr packet,
                       const overlay::PacketContext& ctx) {
  const uint32_t cls = classifier_(ctx);
  FlowState& flow = flows_[cls];
  if (flow.queue.size() >= per_class_capacity_) {
    return false;
  }
  // Self-clocked fair queueing (SCFQ): finish tag = max(V, last_finish) +
  // L / w. V advances to the tag of the packet in service.
  const double start = std::max(virtual_time_, flow.last_finish);
  const double finish =
      start + static_cast<double>(packet->size()) / flow.weight;
  flow.last_finish = finish;
  flow.queue.push_back(std::move(packet));
  flow.finish_times.push_back(finish);
  ++backlog_;
  return true;
}

net::PacketPtr WfqQdisc::Dequeue(Nanos /*now*/) {
  FlowState* best = nullptr;
  double best_finish = 0.0;
  for (auto& [cls, flow] : flows_) {
    if (flow.queue.empty()) {
      continue;
    }
    const double f = flow.finish_times.front();
    if (best == nullptr || f < best_finish) {
      best = &flow;
      best_finish = f;
    }
  }
  if (best == nullptr) {
    return nullptr;
  }
  virtual_time_ = std::max(virtual_time_, best_finish);
  net::PacketPtr p = std::move(best->queue.front());
  best->queue.pop_front();
  best->finish_times.pop_front();
  best->dequeued_bytes += p->size();
  --backlog_;
  return p;
}

Nanos WfqQdisc::NextEligibleTime(Nanos /*now*/) const { return -1; }

uint64_t WfqQdisc::dequeued_bytes(uint32_t class_id) const {
  const auto it = flows_.find(class_id);
  return it == flows_.end() ? 0 : it->second.dequeued_bytes;
}

}  // namespace norman::dataplane
