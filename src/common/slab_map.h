// Flat, recency-ordered hash map for per-connection state.
//
// SlabMap<K, V, Hash> is the one container behind the tables a packet or a
// blocking call touches: the flow-cache partitions and the DDIO model (LRU
// order), conntrack, the NIC's flow table (its entries, which own their
// rings, and its tuple index onto their nodes) and the kernel's
// per-connection records. A std::list + std::unordered_map pair allocates
// two heap nodes per insert; this map allocates only when its slab or its
// index has to grow, which happens a logarithmic number of times as a table
// reaches its working size.
//
//   - Nodes live in one std::vector slab. Erased nodes go on a free list
//     and are reused by the next insert.
//   - Nodes are doubly linked by index into a recency list, front = most
//     recent. PushFront inserts at the front, Touch moves an entry there,
//     and an LRU table evicts back(). Plain maps never call Touch.
//   - An open-addressing index maps keys to nodes: a power-of-two array of
//     {node, 32-bit hash} slots, linear probing, backward-shift deletion
//     (no tombstones), doubled before an insert would pass 50% load.
//   - Erase resets the node's value to V() at once, so a value that owns a
//     resource (a ring, a callback) releases it when the entry goes, not
//     when the node is reused.
//
// Invariant for callers: node *indices* are stable for an entry's lifetime,
// but node *addresses* move when the slab grows. No caller may hold a
// pointer or reference into the map across an insert.
#ifndef NORMAN_COMMON_SLAB_MAP_H_
#define NORMAN_COMMON_SLAB_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace norman {

// MurmurHash3's 64-bit finalizer. The index uses the low bits of the mixed
// value, so every input bit has to reach them: the hash functors of this
// code base leave their low bits weak (the identity over integer ids; the
// FNV-1a FiveTupleHash gives two tuples that differ only in the source port
// the same low 16 bits).
inline uint64_t SlabHashMix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

template <typename K, typename V, typename Hash = std::hash<K>>
class SlabMap {
 public:
  using Index = uint32_t;
  static constexpr Index kNil = ~Index{0};

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Index slots: 0 before the first insert, then a power of two at least
  // twice size().
  size_t slot_count() const { return slots_.size(); }

  // The node holding `key`, or kNil.
  Index Find(const K& key) const {
    if (size_ == 0) return kNil;
    const uint32_t h = HashOf(key);
    for (size_t s = h & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.node == kNil) return kNil;
      if (slot.hash == h && nodes_[slot.node].key == key) return slot.node;
    }
  }
  bool contains(const K& key) const { return Find(key) != kNil; }
  V* Get(const K& key) {
    const Index i = Find(key);
    return i == kNil ? nullptr : &nodes_[i].value;
  }
  const V* Get(const K& key) const {
    const Index i = Find(key);
    return i == kNil ? nullptr : &nodes_[i].value;
  }

  const K& key(Index i) const { return nodes_[i].key; }
  V& value(Index i) { return nodes_[i].value; }
  const V& value(Index i) const { return nodes_[i].value; }

  // Recency list: front() is the most recent entry, back() the least;
  // next() walks towards the back. kNil ends the walk (and marks an empty
  // map).
  Index front() const { return head_; }
  Index back() const { return tail_; }
  Index next(Index i) const { return nodes_[i].next; }

  // Inserts `key`, which must be absent, at the front. Returns its node.
  Index PushFront(const K& key, V value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Index i;
    if (free_ != kNil) {
      i = free_;
      free_ = nodes_[i].next;
      nodes_[i].key = key;
      nodes_[i].value = std::move(value);
    } else {
      i = static_cast<Index>(nodes_.size());
      nodes_.push_back(Node{key, std::move(value), kNil, kNil});
    }
    LinkFront(i);
    const uint32_t h = HashOf(key);
    size_t s = h & mask_;
    while (slots_[s].node != kNil) s = (s + 1) & mask_;
    slots_[s] = Slot{i, h};
    ++size_;
    return i;
  }

  // Moves an entry to the front.
  void Touch(Index i) {
    if (i == head_) return;
    Unlink(i);
    LinkFront(i);
  }

  // Removes `key`; false when it was absent.
  bool Erase(const K& key) {
    if (size_ == 0) return false;
    const uint32_t h = HashOf(key);
    for (size_t s = h & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.node == kNil) return false;
      if (slot.hash == h && nodes_[slot.node].key == key) {
        const Index i = slot.node;
        EraseSlot(s);
        Release(i);
        return true;
      }
    }
  }

  // Removes the entry at node `i` (e.g. back() for an LRU eviction).
  void EraseAt(Index i) {
    size_t s = HashOf(nodes_[i].key) & mask_;
    while (slots_[s].node != i) s = (s + 1) & mask_;
    EraseSlot(s);
    Release(i);
  }

  // Removes every entry; the slab and the index keep their capacity.
  void Clear() {
    nodes_.clear();
    for (Slot& slot : slots_) slot.node = kNil;
    head_ = tail_ = free_ = kNil;
    size_ = 0;
  }

  // fn(key, value) for every entry, front to back.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Index i = head_; i != kNil; i = nodes_[i].next) {
      fn(nodes_[i].key, nodes_[i].value);
    }
  }

 private:
  static constexpr size_t kMinSlots = 8;

  struct Node {
    K key;
    V value;
    Index prev;
    Index next;  // the free list's link while the node is free
  };
  struct Slot {
    Index node = kNil;
    uint32_t hash = 0;  // low 32 bits of the mixed hash; ideal slot = hash & mask_
  };

  uint32_t HashOf(const K& key) const {
    return static_cast<uint32_t>(
        SlabHashMix(static_cast<uint64_t>(hash_(key))));
  }

  void LinkFront(Index i) {
    nodes_[i].prev = kNil;
    nodes_[i].next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = i;
    } else {
      tail_ = i;
    }
    head_ = i;
  }

  void Unlink(Index i) {
    const Index prev = nodes_[i].prev;
    const Index next = nodes_[i].next;
    if (prev != kNil) {
      nodes_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNil) {
      nodes_[next].prev = prev;
    } else {
      tail_ = prev;
    }
  }

  // Unlinks a node whose slot is already gone and puts it on the free list.
  void Release(Index i) {
    Unlink(i);
    nodes_[i].value = V();
    nodes_[i].next = free_;
    free_ = i;
    --size_;
  }

  // Backward-shift deletion: walk the probe run after `hole` and move back
  // every entry whose ideal slot lies cyclically at or before the hole, so
  // lookups never need tombstones.
  void EraseSlot(size_t hole) {
    for (size_t j = (hole + 1) & mask_; slots_[j].node != kNil;
         j = (j + 1) & mask_) {
      const size_t ideal = slots_[j].hash & mask_;
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].node = kNil;
  }

  void Grow() {
    const size_t n = slots_.empty() ? kMinSlots : 2 * slots_.size();
    std::vector<Slot> old(n);
    old.swap(slots_);
    mask_ = n - 1;
    for (const Slot& slot : old) {
      if (slot.node == kNil) continue;
      size_t s = slot.hash & mask_;
      while (slots_[s].node != kNil) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  std::vector<Node> nodes_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  Index head_ = kNil;
  Index tail_ = kNil;
  Index free_ = kNil;
  [[no_unique_address]] Hash hash_;
};

}  // namespace norman

#endif  // NORMAN_COMMON_SLAB_MAP_H_
