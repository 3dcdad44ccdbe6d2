// DDIO / LLC model for DMA targets.
//
// Intel DDIO lets device DMA land directly in the last-level cache, but only
// in a small, fixed fraction of it (2 of ~11+ ways by default). §5 of the
// paper hypothesizes that Norman's per-connection ring buffers stop fitting
// in that fraction beyond ~1024 connections, so DMA degrades to DRAM speed
// and throughput falls off a cliff. This model reproduces exactly that
// mechanism: each connection's ring working set occupies lines in a
// DDIO-capped region managed with LRU; a DMA that finds its ring resident is
// a hit (LLC-speed), otherwise a miss (DRAM-speed) that evicts the
// least-recently-used ring.
//
// Granularity is one *ring working set* (not individual cache lines): ring
// access is sequential, so residency is effectively all-or-nothing per ring,
// and this keeps the model O(1) per DMA.
//
// The LRU is one SlabMap keyed by ring id (front = most recently used), so
// the per-DMA touch and the miss-insert allocate nothing once the slab has
// grown to the working set; eviction takes the back.
#ifndef NORMAN_NIC_DDIO_H_
#define NORMAN_NIC_DDIO_H_

#include <cstdint>

#include "src/common/slab_map.h"
#include "src/common/units.h"

namespace norman::nic {

class DdioModel {
 public:
  // llc_bytes: total LLC size; ddio_ways/llc_ways: way split giving the
  // DMA-visible share. Defaults: 32 MiB LLC, 2 of 16 ways => 4 MiB for I/O.
  DdioModel(uint64_t llc_bytes = 32 * kMiB, int ddio_ways = 2,
            int llc_ways = 16)
      : ddio_capacity_(llc_bytes * static_cast<uint64_t>(ddio_ways) /
                       static_cast<uint64_t>(llc_ways)) {}

  uint64_t ddio_capacity() const { return ddio_capacity_; }
  uint64_t resident_bytes() const { return resident_bytes_; }

  // Records a DMA touching `ring_id`, whose working set is `bytes`.
  // Returns true on a DDIO hit (ring already resident), false on a miss.
  // On a miss the ring is brought in, evicting LRU rings as needed; rings
  // larger than the whole DDIO share never become resident.
  bool Access(uint64_t ring_id, uint64_t bytes) {
    ++accesses_;
    const Lru::Index i = lru_.Find(ring_id);
    if (i != Lru::kNil) {
      lru_.Touch(i);  // MRU
      ++hits_;
      return true;
    }
    ++misses_;
    if (bytes > ddio_capacity_) {
      return false;  // cannot ever be resident
    }
    while (resident_bytes_ + bytes > ddio_capacity_ && !lru_.empty()) {
      resident_bytes_ -= lru_.value(lru_.back());
      lru_.EraseAt(lru_.back());
    }
    lru_.PushFront(ring_id, bytes);
    resident_bytes_ += bytes;
    return false;
  }

  // Drops a ring's residency (connection teardown).
  void Invalidate(uint64_t ring_id) {
    const Lru::Index i = lru_.Find(ring_id);
    if (i == Lru::kNil) {
      return;
    }
    resident_bytes_ -= lru_.value(i);
    lru_.EraseAt(i);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t accesses() const { return accesses_; }
  double hit_rate() const {
    return accesses_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(accesses_);
  }

  void ResetStats() { hits_ = misses_ = accesses_ = 0; }

 private:
  // ring id -> resident working-set bytes; front = MRU.
  using Lru = SlabMap<uint64_t, uint64_t>;

  uint64_t ddio_capacity_;
  uint64_t resident_bytes_ = 0;
  Lru lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t accesses_ = 0;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_DDIO_H_
