#include "src/dataplane/rate_limiter.h"

#include <algorithm>

namespace norman::dataplane {

PacedScheduler::PacedScheduler(std::unique_ptr<nic::Scheduler> inner,
                               size_t per_conn_capacity)
    : inner_(std::move(inner)), per_conn_capacity_(per_conn_capacity) {}

void PacedScheduler::SetRate(net::ConnectionId conn, BitsPerSecond rate_bps,
                             uint64_t burst_bytes) {
  if (rate_bps == 0) {
    ClearRate(conn);
    return;
  }
  const bool existed = flows_.contains(conn);
  TokenBucket& bucket = flows_[conn].bucket;
  bucket.rate_bps = rate_bps;
  bucket.burst_bytes = std::max<uint64_t>(burst_bytes, 1);
  if (existed) {
    // Rate adjustment must not grant a fresh burst (a controller updating
    // the rate every tick would otherwise leak burst_bytes per tick).
    bucket.tokens =
        std::min(bucket.tokens, static_cast<double>(bucket.burst_bytes));
  } else {
    bucket.tokens = static_cast<double>(bucket.burst_bytes);
  }
}

void PacedScheduler::ClearRate(net::ConnectionId conn) {
  const auto it = flows_.find(conn);
  if (it == flows_.end()) {
    return;
  }
  // Release whatever is queued straight into the inner discipline.
  for (Held& held : it->second.queue) {
    overlay::PacketContext ctx;
    ctx.conn = held.conn;
    (void)inner_->Enqueue(std::move(held.packet), ctx);
  }
  flows_.erase(it);
}

bool PacedScheduler::Enqueue(net::PacketPtr packet,
                             const overlay::PacketContext& ctx) {
  const auto it = flows_.find(ctx.conn.conn_id);
  if (it == flows_.end()) {
    if (!inner_->Enqueue(std::move(packet), ctx)) {  // unlimited
      last_drop_reason_ = inner_->last_drop_reason();
      return false;
    }
    return true;
  }
  FlowPacer& pacer = it->second;
  if (pacer.queue.size() >= per_conn_capacity_) {
    ++paced_drops_;
    last_drop_reason_ = DropReason::kRateLimited;
    return false;
  }
  pacer.queue.push_back(Held{std::move(packet), ctx.conn});
  return true;
}

void PacedScheduler::ReleaseConformant(Nanos now) {
  for (auto& [conn, pacer] : flows_) {
    pacer.bucket.Refill(now);
    while (!pacer.queue.empty() &&
           pacer.bucket.TryConsume(pacer.queue.front().packet->size())) {
      Held held = std::move(pacer.queue.front());
      pacer.queue.pop_front();
      overlay::PacketContext ctx;
      ctx.conn = held.conn;
      if (!inner_->Enqueue(std::move(held.packet), ctx)) {
        // The inner discipline refused a packet the pacer had already
        // admitted; the NIC cannot see this hand-off, so account it here.
        ++inner_overflow_drops_;
        last_drop_reason_ = inner_->last_drop_reason();
      }
    }
  }
}

net::PacketPtr PacedScheduler::Dequeue(Nanos now) {
  ReleaseConformant(now);
  return inner_->Dequeue(now);
}

Nanos PacedScheduler::NextEligibleTime(Nanos now) const {
  // Inner discipline first (it may itself be rate-limited).
  Nanos best = inner_->NextEligibleTime(now);
  if (inner_->backlog_packets() > 0 && best < 0) {
    best = now;
  }
  for (const auto& [conn, pacer] : flows_) {
    if (pacer.queue.empty()) {
      continue;
    }
    const Nanos t =
        pacer.bucket.EligibleAt(now, pacer.queue.front().packet->size());
    if (best < 0 || t < best) {
      best = t;
    }
  }
  return best;
}

size_t PacedScheduler::backlog_packets() const {
  size_t n = inner_->backlog_packets();
  for (const auto& [conn, pacer] : flows_) {
    n += pacer.queue.size();
  }
  return n;
}

}  // namespace norman::dataplane
