// Differential tests: ChunkKeyMap must answer every find/try_emplace/erase
// exactly like std::unordered_map over long seeded operation mixes,
// including the layouts that stress open addressing — probe runs that wrap
// from the last slot to the first, erases in the middle of long runs
// (backward shift), growth rehashes, and the all-zero key, which is also
// the key an empty slot holds.
#include "cdn/chunk_key_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

namespace vstream::cdn {
namespace {

using Reference = std::unordered_map<ChunkKey, std::uint64_t, ChunkKeyHash>;

/// Home slot = video id (mod capacity): lets a test place clusters exactly.
struct VideoIdHash {
  std::size_t operator()(const ChunkKey& k) const { return k.video_id; }
};

template <typename Map>
void expect_same_contents(const Map& map, const Reference& ref,
                          const std::vector<ChunkKey>& universe) {
  ASSERT_EQ(map.size(), ref.size());
  for (const ChunkKey& k : universe) {
    const std::uint64_t* got = map.find(k);
    const auto want = ref.find(k);
    if (want == ref.end()) {
      ASSERT_EQ(got, nullptr) << k.video_id << "/" << k.chunk_index << "/"
                              << k.bitrate_kbps;
    } else {
      ASSERT_NE(got, nullptr) << k.video_id << "/" << k.chunk_index << "/"
                              << k.bitrate_kbps;
      ASSERT_EQ(*got, want->second);
    }
  }
}

/// `ops` random operations over `universe`, every result compared with
/// the reference; full-universe sweeps every `sweep_every` operations.
/// `insert_share` in [0,1] biases the mix toward growth or shrinkage.
template <typename Map>
void run_mix(Map& map, Reference& ref, const std::vector<ChunkKey>& universe,
             std::mt19937_64& rng, int ops, double insert_share,
             int sweep_every) {
  std::uniform_int_distribution<std::size_t> pick(0, universe.size() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int op = 0; op < ops; ++op) {
    const ChunkKey& k = universe[pick(rng)];
    const double r = unit(rng);
    if (r < insert_share * 0.8) {
      const std::uint64_t value = rng();
      const auto [slot, inserted] = map.try_emplace(k, value);
      const auto [it, ref_inserted] = ref.try_emplace(k, value);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*slot, it->second);
      if (!inserted) *slot = it->second = rng();  // update in place
    } else if (r < 0.8) {
      const auto want = ref.find(k);
      const std::optional<std::uint64_t> removed = map.erase(k);
      ASSERT_EQ(removed.has_value(), want != ref.end());
      if (removed) {
        ASSERT_EQ(*removed, want->second);
        ref.erase(want);
      }
    } else {
      const std::uint64_t* got = map.find(k);
      const auto want = ref.find(k);
      ASSERT_EQ(got != nullptr, want != ref.end());
      if (got != nullptr) {
        ASSERT_EQ(*got, want->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size());
    if ((op + 1) % sweep_every == 0) {
      expect_same_contents(map, ref, universe);
    }
  }
  expect_same_contents(map, ref, universe);
}

std::vector<ChunkKey> real_universe() {
  std::vector<ChunkKey> keys;
  keys.push_back(ChunkKey{0, 0, 0});
  for (std::uint32_t v = 0; v < 40; ++v) {
    for (std::uint32_t c = 0; c < 25; ++c) {
      for (const std::uint32_t rung : {0u, 1'500u, 3'000u, 7'000u}) {
        if (v == 0 && c == 0 && rung == 0) continue;
        keys.push_back(ChunkKey{v, c, rung});
      }
    }
  }
  return keys;
}

TEST(ChunkKeyMapTest, ZeroKeyIsAnOrdinaryKey) {
  ChunkKeyMap<std::uint64_t> map;
  const ChunkKey zero{0, 0, 0};
  EXPECT_EQ(map.find(zero), nullptr);  // empty table, no slots
  map.reserve(8);
  EXPECT_EQ(map.find(zero), nullptr);  // empty slots hold key {0,0,0}
  EXPECT_FALSE(map.erase(zero).has_value());
  EXPECT_TRUE(map.try_emplace(ChunkKey{1, 2, 3}, 5u).second);
  EXPECT_EQ(map.find(zero), nullptr);
  EXPECT_TRUE(map.try_emplace(zero, 7u).second);
  ASSERT_NE(map.find(zero), nullptr);
  EXPECT_EQ(*map.find(zero), 7u);
  EXPECT_FALSE(map.try_emplace(zero, 9u).second);
  EXPECT_EQ(*map.find(zero), 7u);
  EXPECT_EQ(map.erase(zero), std::optional<std::uint64_t>(7u));
  EXPECT_EQ(map.find(zero), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(ChunkKeyMapTest, ReserveSizesPowerOfTwoAtThreeQuartersLoad) {
  ChunkKeyMap<std::uint32_t> map;
  EXPECT_EQ(map.capacity(), 0u);
  map.reserve(12);
  EXPECT_EQ(map.capacity(), 16u);
  map.reserve(13);
  EXPECT_EQ(map.capacity(), 32u);
  map.reserve(4);  // never shrinks
  EXPECT_EQ(map.capacity(), 32u);
  for (std::uint32_t v = 0; v < 24; ++v) map.try_emplace(ChunkKey{v, 0, 0}, v);
  EXPECT_EQ(map.capacity(), 32u);  // 24 = 3/4 of 32: no rehash yet
  map.try_emplace(ChunkKey{24, 0, 0}, 24u);
  EXPECT_EQ(map.capacity(), 64u);
  for (std::uint32_t v = 0; v < 25; ++v) {
    ASSERT_NE(map.find(ChunkKey{v, 0, 0}), nullptr);
    EXPECT_EQ(*map.find(ChunkKey{v, 0, 0}), v);
  }
}

TEST(ChunkKeyMapTest, RandomMixMatchesUnorderedMapThroughGrowth) {
  // No reserve: the table grows from empty through every doubling, then
  // shrinks and regrows, with erases and lookups interleaved throughout.
  const std::vector<ChunkKey> universe = real_universe();
  std::mt19937_64 rng(20'160'101);
  ChunkKeyMap<std::uint64_t> map;
  Reference ref;
  run_mix(map, ref, universe, rng, 30'000, 0.95, 997);  // grow
  EXPECT_GE(map.capacity(), 2'048u);
  run_mix(map, ref, universe, rng, 30'000, 0.2, 997);   // drain
  run_mix(map, ref, universe, rng, 60'000, 0.5, 997);   // churn
  run_mix(map, ref, universe, rng, 30'000, 0.9, 997);   // regrow
}

TEST(ChunkKeyMapTest, WrapAroundClustersMatchUnorderedMap) {
  // Every key's home slot is one of the last three or first two slots of
  // a 64-slot table, so nearly every probe run wraps past the end.
  std::vector<ChunkKey> universe;
  for (const std::uint32_t home : {61u, 62u, 63u, 64u, 65u}) {
    for (std::uint32_t c = 0; c < 9; ++c) universe.push_back({home, c, 0});
  }
  universe.push_back(ChunkKey{0, 0, 0});
  std::mt19937_64 rng(7);
  ChunkKeyMap<std::uint64_t, VideoIdHash> map;
  map.reserve(40);
  ASSERT_EQ(map.capacity(), 64u);
  Reference ref;
  run_mix(map, ref, universe, rng, 40'000, 0.5, 13);
  EXPECT_EQ(map.capacity(), 64u);  // at most 46 keys: never grew
}

TEST(ChunkKeyMapTest, EraseInsideLongProbeChainsMatchesUnorderedMap) {
  // Three homes, 30 keys each, interleaved into runs of up to 90 slots:
  // erases land in the middle of long chains and must shift the tail back
  // without stranding any entry behind a hole.
  std::vector<ChunkKey> universe;
  for (const std::uint32_t home : {100u, 101u, 140u}) {
    for (std::uint32_t c = 0; c < 30; ++c) universe.push_back({home, c, 1});
  }
  std::mt19937_64 rng(11);
  ChunkKeyMap<std::uint64_t, VideoIdHash> map;
  map.reserve(120);
  ASSERT_EQ(map.capacity(), 256u);
  Reference ref;
  // Fill completely, then erase from the middle of each chain first.
  for (const ChunkKey& k : universe) {
    map.try_emplace(k, k.chunk_index);
    ref.try_emplace(k, k.chunk_index);
  }
  expect_same_contents(map, ref, universe);
  for (std::uint32_t c = 10; c < 20; ++c) {
    for (const std::uint32_t home : {140u, 100u, 101u}) {
      const ChunkKey k{home, c, 1};
      ASSERT_EQ(map.erase(k), std::optional<std::uint64_t>(c));
      ref.erase(k);
      expect_same_contents(map, ref, universe);
    }
  }
  run_mix(map, ref, universe, rng, 40'000, 0.5, 7);
  EXPECT_EQ(map.capacity(), 256u);
}

TEST(ChunkKeyMapTest, CollidingRandomMixThroughGrowth) {
  // Homes drawn from a narrow id range, table grown from empty: clusters
  // are long, wrap, and are rebuilt by every rehash.
  std::vector<ChunkKey> universe;
  for (std::uint32_t v = 0; v < 12; ++v) {
    for (std::uint32_t c = 0; c < 40; ++c) {
      universe.push_back({v * 31u + 1'000u, c, v});
    }
  }
  std::mt19937_64 rng(3);
  ChunkKeyMap<std::uint64_t, VideoIdHash> map;
  Reference ref;
  run_mix(map, ref, universe, rng, 20'000, 0.95, 101);
  run_mix(map, ref, universe, rng, 60'000, 0.5, 101);
}

TEST(ChunkKeyMapTest, SteadyChurnNeverGrowsTheTable) {
  // Insert-one/erase-one at constant occupancy (the coupled-mode LRU
  // pattern): with backward-shift deletion no tombstones accumulate, so
  // the table keeps its reserved size and every key stays findable.
  ChunkKeyMap<std::uint32_t> map;
  map.reserve(3'000);
  const std::size_t capacity = map.capacity();
  std::uint32_t oldest = 0;
  std::uint32_t next = 0;
  for (; next < 3'000; ++next) map.try_emplace(ChunkKey{next, 1, 2}, next);
  for (int step = 0; step < 200'000; ++step, ++next, ++oldest) {
    ASSERT_EQ(map.erase(ChunkKey{oldest, 1, 2}),
              std::optional<std::uint32_t>(oldest));
    ASSERT_TRUE(map.try_emplace(ChunkKey{next, 1, 2}, next).second);
  }
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 3'000u);
  for (std::uint32_t v = oldest; v < next; ++v) {
    const std::uint32_t* got = map.find(ChunkKey{v, 1, 2});
    ASSERT_NE(got, nullptr) << v;
    ASSERT_EQ(*got, v);
  }
  EXPECT_EQ(map.find(ChunkKey{oldest - 1, 1, 2}), nullptr);
}

}  // namespace
}  // namespace vstream::cdn
