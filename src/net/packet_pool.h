// Slab/free-list recycler for Packet buffers — the allocation half of the
// zero-allocation hot path.
//
// Every simulated packet used to be a fresh heap Packet plus a fresh
// std::vector buffer; at millions of events per second the allocator
// dominates wall-clock time (the malloc-on-the-datapath sin FlexTOE and
// OSMOSIS eliminate with pooled descriptors). PacketPool keeps released
// Packets on capacity-bucketed free lists so a steady-state run reuses the
// same handful of buffers: Acquire(size) returns a packet whose vector
// already has at least `size` capacity, so sizing it never reallocates.
//
// The pool is strictly single-threaded, like the simulator it serves.
#ifndef NORMAN_NET_PACKET_POOL_H_
#define NORMAN_NET_PACKET_POOL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/net/packet.h"

namespace norman::net {

class PacketPool {
 public:
  // Capacity classes: 64B..8KiB in power-of-two steps, plus an oversize
  // class for jumbo buffers (recycled by exact-fit search).
  static constexpr size_t kMinBucketBytes = 64;
  static constexpr size_t kMaxBucketBytes = 8192;
  static constexpr size_t kNumBuckets = 8;  // 64,128,...,8192

  // `max_free_per_bucket` bounds each free list; releases beyond it fall
  // back to plain deallocation (pool exhaustion on the release side).
  explicit PacketPool(size_t max_free_per_bucket = 4096);
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // A packet with `size` zeroed bytes (same contents a freshly constructed
  // Packet{std::vector<uint8_t>(size)} would have — recycled buffers must
  // not leak stale bytes into deterministic runs).
  PacketPtr Acquire(size_t size);

  // Like Acquire but skips the zero fill: the buffer may hold arbitrary
  // recycled bytes. Only for callers that overwrite every byte of the frame
  // (the packet builders); anything else must use Acquire so stale bytes
  // cannot leak into deterministic runs.
  PacketPtr AcquireUninitialized(size_t size);

  // A packet adopting `bytes` wholesale (builder output, pcap records).
  // Recycles the Packet object; the vector buffer is the caller's.
  PacketPtr Adopt(std::vector<uint8_t> bytes);

  // Returns `p` to the free lists (called by PacketDeleter; not public API
  // for users, who just drop their PacketPtr).
  void Release(Packet* p);

  const PoolCounters& counters() const { return counters_; }
  size_t free_packets() const;

  // The process-wide pool every construction helper routes through.
  static PacketPool& Default();

 private:
  static size_t BucketFor(size_t bytes);

  PacketPtr AcquireImpl(size_t size, bool zeroed);
  Packet* TakeFrom(size_t bucket);

  size_t max_free_per_bucket_;
  std::array<std::vector<Packet*>, kNumBuckets + 1> free_;  // +1: oversize
  PoolCounters counters_{"packet"};
};

// Pool-backed construction helpers (the replacements for
// std::make_unique<net::Packet>(...) across the stack).
PacketPtr MakePacket(std::vector<uint8_t> bytes);
PacketPtr MakePacket(size_t size);

}  // namespace norman::net

#endif  // NORMAN_NET_PACKET_POOL_H_
