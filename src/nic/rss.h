// Receive-side scaling: hash-based steering of inbound flows to RX queues.
//
// §2's debugging scenario has the administrator using "RSS custom hashing to
// partition her NIC into two 'virtual interfaces'". We model RSS as a seeded
// flow hash over the 5-tuple plus a 128-entry indirection table, like the
// Microsoft RSS spec the paper cites.
#ifndef NORMAN_NIC_RSS_H_
#define NORMAN_NIC_RSS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/net/types.h"

namespace norman::nic {

class RssEngine {
 public:
  static constexpr size_t kIndirectionEntries = 128;
  // Queues with an eagerly registered rss.steered.q<N> counter. Matches
  // the NIC's maximum shard width; steering to a higher queue id still
  // works but is only visible through the indirection table.
  static constexpr uint16_t kCountedQueues = 8;

  explicit RssEngine(uint16_t num_queues = 1, uint64_t seed = 0x6d5a6d5a)
      : seed_(seed) {
    SetNumQueues(num_queues);
  }

  // Registers the per-queue steering counters (rss.steered.q0..q7) and the
  // table-rewrite counter (rss.rebalance) eagerly, so the metric manifest
  // is shape-stable whether or not a run ever reconfigures RSS.
  void AttachMetrics(telemetry::MetricsRegistry* registry) {
    for (uint16_t q = 0; q < kCountedQueues; ++q) {
      steered_[q] =
          registry->GetCounter("rss.steered.q" + std::to_string(q));
    }
    rebalance_ = registry->GetCounter("rss.rebalance");
  }

  // Rebuilds the indirection table round-robin over `n` queues.
  void SetNumQueues(uint16_t n) {
    num_queues_ = n == 0 ? 1 : n;
    for (size_t i = 0; i < kIndirectionEntries; ++i) {
      table_[i] = static_cast<uint16_t>(i % num_queues_);
    }
    if (rebalance_ != nullptr) {
      rebalance_->Increment();
    }
  }

  uint16_t num_queues() const { return num_queues_; }

  // Custom indirection entry (the "partition the NIC" use case). Rejects
  // out-of-range slots and queues instead of silently wrapping them — a
  // typo'd queue id used to remap traffic to queue (q mod N) with no
  // diagnostic, which is exactly the class of silent misconfiguration the
  // paper's interposition layer exists to surface.
  Status SetIndirection(size_t index, uint16_t queue) {
    if (index >= kIndirectionEntries) {
      return InvalidArgumentError(
          "RSS indirection slot " + std::to_string(index) +
          " out of range (table has " + std::to_string(kIndirectionEntries) +
          " entries)");
    }
    if (queue >= num_queues_) {
      return InvalidArgumentError(
          "RSS queue " + std::to_string(queue) + " out of range (NIC has " +
          std::to_string(num_queues_) + " queues)");
    }
    table_[index] = queue;
    if (rebalance_ != nullptr) {
      rebalance_->Increment();
    }
    return OkStatus();
  }

  uint16_t indirection(size_t index) const {
    return table_[index % kIndirectionEntries];
  }

  uint32_t Hash(const net::FiveTuple& t) const {
    // Seeded FNV-1a-style mix; stands in for the Toeplitz hash (same
    // properties we need: deterministic, seed-dependent, well spread).
    uint64_t h = seed_ ^ 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    };
    mix(t.src_ip.addr);
    mix(t.dst_ip.addr);
    mix((uint64_t{t.src_port} << 16) | t.dst_port);
    mix(static_cast<uint64_t>(t.proto));
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

  uint16_t Steer(const net::FiveTuple& t) const {
    const uint16_t q = table_[Hash(t) % kIndirectionEntries];
    if (q < kCountedQueues && steered_[q] != nullptr) {
      steered_[q]->Increment();
    }
    return q;
  }

 private:
  uint64_t seed_;
  uint16_t num_queues_ = 1;
  std::array<uint16_t, kIndirectionEntries> table_{};
  // Steering decisions per queue and indirection rewrites (control path);
  // null until AttachMetrics.
  std::array<telemetry::Counter*, kCountedQueues> steered_{};
  telemetry::Counter* rebalance_ = nullptr;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_RSS_H_
