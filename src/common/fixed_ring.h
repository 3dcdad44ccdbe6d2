// Fixed-capacity power-of-two ring (SPSC-style index discipline).
//
// This is the generic index machinery shared by NIC descriptor rings and
// notification queues: head/tail are free-running uint32 counters and the
// ring is full when head - tail == capacity. The same discipline is exposed
// to applications through MMIO in the NIC model, so keeping it here lets
// tests exercise the wrap/overflow arithmetic in isolation.
//
// A ring may report its occupancy into a queue-depth gauge pair
// ("queue.<name>.depth" / ".high_water"): once attached, every push and pop
// moves the depth by what it changed, and the destructor settles whatever
// still occupies the ring. Several rings may share one gauge pair, which
// then aggregates them (every connection's TX ring feeds
// "queue.nic.tx_ring").
#ifndef NORMAN_COMMON_FIXED_RING_H_
#define NORMAN_COMMON_FIXED_RING_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/metrics.h"

namespace norman {

template <typename T>
class FixedRing {
 public:
  // Capacity must be a power of two (mask-based wrap).
  explicit FixedRing(uint32_t capacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {
    assert(capacity != 0 && (capacity & (capacity - 1)) == 0 &&
           "capacity must be a power of two");
  }

  // Occupants die with the ring; the shared gauges must not keep them.
  ~FixedRing() { Report(-static_cast<int64_t>(size())); }

  FixedRing(const FixedRing&) = delete;
  FixedRing& operator=(const FixedRing&) = delete;

  // Starts occupancy reporting into `gauges`, which must outlive the ring.
  // Attach while the ring is empty.
  void AttachGauges(telemetry::QueueDepthGauges* gauges) { gauges_ = gauges; }

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return head_ - tail_; }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity_; }

  // Free-running producer/consumer counters (wrap naturally at 2^32).
  uint32_t head() const { return head_; }
  uint32_t tail() const { return tail_; }

  bool TryPush(T value) {
    if (full()) {
      return false;
    }
    slots_[head_ & mask_] = std::move(value);
    ++head_;
    Report(1);
    return true;
  }

  std::optional<T> TryPop() {
    if (empty()) {
      return std::nullopt;
    }
    T value = std::move(slots_[tail_ & mask_]);
    ++tail_;
    Report(-1);
    return value;
  }

  // Bulk consumer: move up to dst.size() oldest elements out (FIFO order),
  // with one gauge update for the burst. Returns the number popped —
  // min(dst.size(), size()). dst elements past the returned count are
  // untouched.
  uint32_t PopN(std::span<T> dst) {
    const uint32_t n = std::min(
        static_cast<uint32_t>(std::min<size_t>(dst.size(), ~uint32_t{0})),
        size());
    for (uint32_t i = 0; i < n; ++i) {
      dst[i] = std::move(slots_[(tail_ + i) & mask_]);
    }
    tail_ += n;
    Report(-static_cast<int64_t>(n));
    return n;
  }

  // Peek at the oldest element without consuming it.
  const T* Peek() const { return empty() ? nullptr : &slots_[tail_ & mask_]; }
  T* Peek() { return empty() ? nullptr : &slots_[tail_ & mask_]; }

 private:
  void Report(int64_t delta) {
    if (gauges_ != nullptr && delta != 0) gauges_->Add(delta);
  }

  uint32_t capacity_;
  uint32_t mask_;
  std::vector<T> slots_;
  uint32_t head_ = 0;
  uint32_t tail_ = 0;
  telemetry::QueueDepthGauges* gauges_ = nullptr;
};

}  // namespace norman

#endif  // NORMAN_COMMON_FIXED_RING_H_
