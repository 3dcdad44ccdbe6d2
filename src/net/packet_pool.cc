#include "src/net/packet_pool.h"

#include <bit>

namespace norman::net {

void PacketDeleter::operator()(Packet* p) const noexcept {
  if (p == nullptr) {
    return;
  }
  if (p->pool_ != nullptr) {
    p->pool_->Release(p);
  } else {
    delete p;
  }
}

PacketPool::PacketPool(size_t max_free_per_bucket)
    : max_free_per_bucket_(max_free_per_bucket) {}

PacketPool::~PacketPool() {
  for (auto& bucket : free_) {
    for (Packet* p : bucket) {
      delete p;
    }
  }
}

size_t PacketPool::BucketFor(size_t bytes) {
  // Index of the smallest capacity class >= bytes; kNumBuckets = oversize.
  size_t cls = kMinBucketBytes;
  for (size_t i = 0; i < kNumBuckets; ++i, cls *= 2) {
    if (bytes <= cls) {
      return i;
    }
  }
  return kNumBuckets;
}

Packet* PacketPool::TakeFrom(size_t bucket) {
  auto& list = free_[bucket];
  if (list.empty()) {
    return nullptr;
  }
  Packet* p = list.back();
  list.pop_back();
  return p;
}

PacketPtr PacketPool::Acquire(size_t size) {
  return AcquireImpl(size, /*zeroed=*/true);
}

PacketPtr PacketPool::AcquireUninitialized(size_t size) {
  return AcquireImpl(size, /*zeroed=*/false);
}

PacketPtr PacketPool::AcquireImpl(size_t size, bool zeroed) {
  Packet* p = nullptr;
  if (size <= kMaxBucketBytes) {
    // Release() buckets by floor(capacity), so every packet in the ceil
    // bucket of `size` has capacity >= size: the resize below cannot
    // realloc.
    p = TakeFrom(BucketFor(size));
  } else {
    // Oversize: first-fit search of the (bounded) jumbo list.
    auto& jumbo = free_[kNumBuckets];
    for (size_t i = 0; i < jumbo.size(); ++i) {
      if (jumbo[i]->bytes_.capacity() >= size) {
        p = jumbo[i];
        jumbo[i] = jumbo.back();
        jumbo.pop_back();
        break;
      }
    }
  }
  const bool hit = p != nullptr;
  if (!hit) {
    p = new Packet();
    // Reserve the full capacity class so the buffer lands back in the same
    // bucket on release regardless of the exact frame size it carried.
    size_t cls = kMinBucketBytes;
    while (cls < size) {
      cls *= 2;
    }
    p->bytes_.reserve(cls);
  }
  if (zeroed) {
    p->bytes_.assign(size, 0);
  } else {
    // Released buffers keep their old size, so a same-class reuse shrinks
    // (or grows by a zero-filled tail) without touching the payload bytes
    // the caller is about to overwrite.
    p->bytes_.resize(size);
  }
  p->meta_ = PacketMeta{};
  p->parsed_.reset();
  p->checksums_valid_ = false;
  p->pool_ = this;
  counters_.RecordAcquire(hit);
  return PacketPtr(p);
}

PacketPtr PacketPool::Adopt(std::vector<uint8_t> bytes) {
  // Reuse a free Packet shell from the smallest bucket (its recycled buffer,
  // if any, is dropped in favor of the adopted one); adopted buffers enter
  // the capacity buckets once the packet is released.
  Packet* p = TakeFrom(0);
  const bool hit = p != nullptr;
  if (!hit) {
    p = new Packet();
  }
  p->bytes_ = std::move(bytes);
  p->meta_ = PacketMeta{};
  p->parsed_.reset();
  p->checksums_valid_ = false;
  p->pool_ = this;
  counters_.RecordAcquire(hit);
  return PacketPtr(p);
}

void PacketPool::Release(Packet* p) {
  const size_t cap = p->bytes_.capacity();
  // Floor bucket: the largest class the capacity fully covers, so Acquire's
  // ceil-bucket lookup always finds a big-enough buffer.
  size_t bucket = 0;
  if (cap > kMaxBucketBytes) {
    bucket = kNumBuckets;
  } else {
    size_t cls = kMinBucketBytes;
    while (bucket + 1 < kNumBuckets && cls * 2 <= cap) {
      cls *= 2;
      ++bucket;
    }
    if (cap < kMinBucketBytes) {
      bucket = 0;  // shells and runt buffers share the smallest bucket
    }
  }
  auto& list = free_[bucket];
  const bool keep = list.size() < max_free_per_bucket_;
  if (keep) {
    // Contents (and size) are kept as-is: AcquireUninitialized reuses the
    // buffer without rewriting it, and Acquire re-zeroes explicitly.
    list.push_back(p);
  } else {
    delete p;
  }
  counters_.RecordRelease(keep);
}

size_t PacketPool::free_packets() const {
  size_t n = 0;
  for (const auto& bucket : free_) {
    n += bucket.size();
  }
  return n;
}

PacketPool& PacketPool::Default() {
  // Leaky singleton: outlives every static that might still hold a
  // PacketPtr at exit. Free lists stay reachable, so LSan is silent.
  static PacketPool* pool = new PacketPool();
  return *pool;
}

PacketPtr MakePacket(std::vector<uint8_t> bytes) {
  return PacketPool::Default().Adopt(std::move(bytes));
}

PacketPtr MakePacket(size_t size) { return PacketPool::Default().Acquire(size); }

}  // namespace norman::net
