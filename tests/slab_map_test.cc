#include "src/common/slab_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"

namespace norman {
namespace {

// Reference model: the std::list + std::unordered_map LRU the flat map
// replaces. Front = most recent.
class ReferenceLru {
 public:
  bool contains(uint32_t k) const { return index_.contains(k); }
  size_t size() const { return order_.size(); }
  uint64_t value(uint32_t k) const { return index_.at(k).value; }
  void set_value(uint32_t k, uint64_t v) { index_.at(k).value = v; }
  uint32_t back() const { return order_.back(); }
  const std::list<uint32_t>& order() const { return order_; }

  void PushFront(uint32_t k, uint64_t v) {
    order_.push_front(k);
    index_.emplace(k, Entry{v, order_.begin()});
  }
  void Touch(uint32_t k) {
    order_.splice(order_.begin(), order_, index_.at(k).pos);
  }
  bool Erase(uint32_t k) {
    const auto it = index_.find(k);
    if (it == index_.end()) return false;
    order_.erase(it->second.pos);
    index_.erase(it);
    return true;
  }

 private:
  struct Entry {
    uint64_t value;
    std::list<uint32_t>::iterator pos;
  };
  std::list<uint32_t> order_;
  std::unordered_map<uint32_t, Entry> index_;
};

// Keys whose mixed hash has all of its low 10 bits set, or all but the
// lowest: in any index of up to 1,024 slots they start probing at the last
// or the second-to-last slot, so every probe run of more than a couple of
// entries wraps around to slot 0.
std::vector<uint64_t> WrappingHashValues() {
  std::vector<uint64_t> last;
  uint64_t second_to_last = 0;
  for (uint64_t v = 1; last.size() < 2 || second_to_last == 0; ++v) {
    const uint32_t low = static_cast<uint32_t>(SlabHashMix(v)) & 1023u;
    if (low == 1023u && last.size() < 2) last.push_back(v);
    if (low == 1022u && second_to_last == 0) second_to_last = v;
  }
  return {last[0], last[1], second_to_last};
}

// Maps every key onto three hash values (see WrappingHashValues).
struct CollidingHash {
  size_t operator()(uint32_t k) const {
    static const std::vector<uint64_t> kValues = WrappingHashValues();
    return static_cast<size_t>(kValues[k % kValues.size()]);
  }
};

template <typename Map>
void ExpectSameState(const Map& map, const ReferenceLru& ref,
                     uint32_t absent_probe) {
  ASSERT_EQ(map.size(), ref.size());
  ASSERT_EQ(map.empty(), ref.size() == 0);
  // Full front-to-back order, and every live key finds its own node.
  auto want = ref.order().begin();
  size_t walked = 0;
  for (auto i = map.front(); i != Map::kNil; i = map.next(i), ++want) {
    ASSERT_NE(want, ref.order().end());
    ASSERT_EQ(map.key(i), *want) << "order differs at position " << walked;
    ASSERT_EQ(map.value(i), ref.value(*want));
    ASSERT_EQ(map.Find(*want), i);
    ++walked;
  }
  ASSERT_EQ(want, ref.order().end());
  if (ref.size() > 0) {
    ASSERT_EQ(map.key(map.back()), ref.back());
  } else {
    ASSERT_EQ(map.back(), Map::kNil);
  }
  if (!ref.contains(absent_probe)) {
    ASSERT_EQ(map.Find(absent_probe), Map::kNil);
    ASSERT_EQ(map.Get(absent_probe), nullptr);
  }
  ASSERT_LE(2 * map.size(), map.slot_count());
}

// Random Find/PushFront/Touch/Erase/evict-back against the reference, with
// the live size drifting up and down so the map grows and drains.
template <typename Hash>
void RunDifferential(uint64_t seed, uint32_t key_space, int ops) {
  SlabMap<uint32_t, uint64_t, Hash> map;
  using Map = decltype(map);
  ReferenceLru ref;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const uint32_t k =
        static_cast<uint32_t>(rng.NextInRange(0, key_space - 1));
    // Phases of mostly-insert and mostly-erase traffic.
    const bool filling = (op / 5000) % 2 == 0;
    const uint64_t roll = rng.NextInRange(0, 99);
    if (roll < 15) {  // Find
      const auto i = map.Find(k);
      ASSERT_EQ(i != Map::kNil, ref.contains(k));
      if (i != Map::kNil) {
        ASSERT_EQ(map.key(i), k);
        ASSERT_EQ(*map.Get(k), ref.value(k));
      }
    } else if (roll < (filling ? 60u : 35u)) {  // PushFront or overwrite
      const uint64_t v = rng.NextU64();
      if (const auto i = map.Find(k); i != Map::kNil) {
        map.value(i) = v;
        map.Touch(i);
        ref.set_value(k, v);
        ref.Touch(k);
      } else {
        map.PushFront(k, v);
        ref.PushFront(k, v);
      }
    } else if (roll < 70) {  // Touch
      if (const auto i = map.Find(k); i != Map::kNil) {
        map.Touch(i);
        ref.Touch(k);
      }
    } else if (roll < 85) {  // Erase by key
      ASSERT_EQ(map.Erase(k), ref.Erase(k));
    } else if (ref.size() > 0) {  // evict the LRU tail
      ASSERT_EQ(map.key(map.back()), ref.back());
      ref.Erase(ref.back());
      map.EraseAt(map.back());
    }
    ExpectSameState(map, ref,
                    static_cast<uint32_t>(rng.NextInRange(0, key_space)));
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at op " << op;
    }
  }
}

TEST(SlabMapTest, MatchesListPlusHashMapReference) {
  RunDifferential<std::hash<uint32_t>>(/*seed=*/1, /*key_space=*/256,
                                       /*ops=*/120000);
}

TEST(SlabMapTest, MatchesReferenceWhenProbeRunsWrap) {
  // Every key hashes onto one of three values that start probing at the
  // end of the slot array, so runs wrap and backward-shift deletion moves
  // entries across the wrap.
  RunDifferential<CollidingHash>(/*seed=*/2, /*key_space=*/48,
                                 /*ops=*/100000);
}

TEST(SlabMapTest, GrowthKeepsIndicesOrderAndValues) {
  SlabMap<uint32_t, uint64_t> map;
  EXPECT_EQ(map.slot_count(), 0u);
  std::vector<SlabMap<uint32_t, uint64_t>::Index> index_of;
  size_t grows = 0;
  for (uint32_t k = 0; k < 5000; ++k) {
    const size_t slots_before = map.slot_count();
    index_of.push_back(map.PushFront(k, uint64_t{k} * 7));
    if (map.slot_count() != slots_before) {
      ++grows;
      // Every live entry survives the regrowth at its old index.
      for (uint32_t j = 0; j <= k; ++j) {
        ASSERT_EQ(map.Find(j), index_of[j]);
        ASSERT_EQ(map.value(index_of[j]), uint64_t{j} * 7);
      }
    }
    ASSERT_EQ(map.slot_count() & (map.slot_count() - 1), 0u);  // power of 2
    ASSERT_LE(2 * map.size(), map.slot_count());                // <= 50% load
  }
  EXPECT_GE(grows, 10u);
  // Most recent first.
  uint32_t want = 4999;
  for (auto i = map.front(); i != decltype(map)::kNil; i = map.next(i)) {
    ASSERT_EQ(map.key(i), want--);
  }
}

TEST(SlabMapTest, ErasedNodesAreReusedWithoutGrowing) {
  SlabMap<uint32_t, uint64_t> map;
  for (uint32_t k = 0; k < 100; ++k) map.PushFront(k, k);
  const size_t slots = map.slot_count();
  const auto freed = map.Find(42);
  ASSERT_TRUE(map.Erase(42));
  EXPECT_FALSE(map.Erase(42));
  EXPECT_EQ(map.PushFront(1000, 1), freed);  // free list first
  EXPECT_EQ(map.slot_count(), slots);
  EXPECT_EQ(map.front(), freed);
}

TEST(SlabMapTest, EraseReleasesTheValueAtOnce) {
  SlabMap<uint32_t, std::shared_ptr<int>> map;
  auto held = std::make_shared<int>(5);
  map.PushFront(1, held);
  map.PushFront(2, held);
  EXPECT_EQ(held.use_count(), 3);
  ASSERT_TRUE(map.Erase(1));
  EXPECT_EQ(held.use_count(), 2);
  map.EraseAt(map.Find(2));
  EXPECT_EQ(held.use_count(), 1);
  map.PushFront(3, held);
  map.Clear();
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.front(), decltype(map)::kNil);
  EXPECT_EQ(map.Find(3), decltype(map)::kNil);
}

TEST(SlabMapTest, ForEachWalksFrontToBack) {
  SlabMap<uint32_t, uint64_t> map;
  for (uint32_t k = 1; k <= 4; ++k) map.PushFront(k, k * 10);
  map.Touch(map.Find(2));
  std::vector<uint32_t> keys;
  map.ForEach([&](uint32_t k, uint64_t v) {
    EXPECT_EQ(v, uint64_t{k} * 10);
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<uint32_t>{2, 4, 3, 1}));
}

}  // namespace
}  // namespace norman
