#include "cdn/cache_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace vstream::cdn {
namespace {

ChunkKey key(std::uint32_t v, std::uint32_t c = 0, std::uint32_t b = 1500) {
  return ChunkKey{v, c, b};
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.on_insert(key(1), 100);
  lru.on_insert(key(2), 100);
  lru.on_insert(key(3), 100);
  EXPECT_EQ(lru.choose_victim(), key(1));
  lru.on_access(key(1));  // 2 is now the oldest
  EXPECT_EQ(lru.choose_victim(), key(2));
}

TEST(LruPolicyTest, EvictRemovesFromOrder) {
  LruPolicy lru;
  lru.on_insert(key(1), 100);
  lru.on_insert(key(2), 100);
  lru.on_evict(key(1));
  EXPECT_EQ(lru.choose_victim(), key(2));
}

TEST(LruPolicyTest, ThrowsOnEmptyVictim) {
  LruPolicy lru;
  EXPECT_THROW(lru.choose_victim(), std::logic_error);
}

TEST(LruPolicyTest, ToleratesSpuriousNotifications) {
  LruPolicy lru;
  lru.on_access(key(9));  // never inserted
  lru.on_evict(key(9));
  lru.on_insert(key(1), 10);
  EXPECT_EQ(lru.choose_victim(), key(1));
}

TEST(PerfectLfuPolicyTest, EvictsLeastFrequent) {
  PerfectLfuPolicy lfu;
  lfu.on_insert(key(1), 100);
  lfu.on_insert(key(2), 100);
  lfu.on_access(key(1));
  lfu.on_access(key(1));
  EXPECT_EQ(lfu.choose_victim(), key(2));
}

TEST(PerfectLfuPolicyTest, FrequencySurvivesEviction) {
  // "Perfect" LFU: history persists.  A hot object that was evicted
  // re-enters with its old count and immediately outranks cold ones.
  PerfectLfuPolicy lfu;
  lfu.on_insert(key(1), 100);
  for (int i = 0; i < 10; ++i) lfu.on_access(key(1));
  lfu.on_evict(key(1));
  lfu.on_insert(key(2), 100);  // freq 1
  lfu.on_insert(key(1), 100);  // re-inserted with freq 12
  EXPECT_EQ(lfu.choose_victim(), key(2));
}

TEST(PerfectLfuPolicyTest, TieBrokenByAge) {
  PerfectLfuPolicy lfu;
  lfu.on_insert(key(1), 100);
  lfu.on_insert(key(2), 100);
  // Equal frequency: the earlier-inserted object is evicted first.
  EXPECT_EQ(lfu.choose_victim(), key(1));
}

TEST(GdSizePolicyTest, PrefersEvictingLargeObjects) {
  GdSizePolicy gd;
  gd.on_insert(key(1), 1'000'000);  // big -> low priority
  gd.on_insert(key(2), 1'000);      // small -> high priority
  EXPECT_EQ(gd.choose_victim(), key(1));
}

TEST(GdSizePolicyTest, AccessRefreshesPriority) {
  GdSizePolicy gd;
  gd.on_insert(key(1), 1'000);
  gd.on_insert(key(2), 1'000);
  // Force ageing: evicting raises the inflation term.
  EXPECT_EQ(gd.choose_victim(), key(1));
  gd.on_evict(key(1));
  gd.on_insert(key(3), 1'000);
  // key(2) was never re-accessed; its priority predates the inflation.
  EXPECT_EQ(gd.choose_victim(), key(2));
  gd.on_access(key(2));
  EXPECT_EQ(gd.choose_victim(), key(3));
}

TEST(GdSizePolicyTest, ThrowsOnEmptyVictim) {
  GdSizePolicy gd;
  EXPECT_THROW(gd.choose_victim(), std::logic_error);
}

TEST(PolicyFactoryTest, MakesAllKinds) {
  EXPECT_EQ(make_policy(PolicyKind::kLru)->name(), "lru");
  EXPECT_EQ(make_policy(PolicyKind::kPerfectLfu)->name(), "perfect-lfu");
  EXPECT_EQ(make_policy(PolicyKind::kGdSize)->name(), "gd-size");
}

TEST(ChunkKeyTest, HashDistinguishesFields) {
  const ChunkKeyHash h;
  EXPECT_NE(h(key(1, 0, 1500)), h(key(2, 0, 1500)));
  EXPECT_NE(h(key(1, 0, 1500)), h(key(1, 1, 1500)));
  EXPECT_NE(h(key(1, 0, 1500)), h(key(1, 0, 2500)));
  EXPECT_EQ(h(key(1, 2, 3)), h(key(1, 2, 3)));
}

TEST(ChunkKeyTest, ChunkBytesFormula) {
  // 2,500 kbps * 6 s = 15,000 kbit = 1,875,000 bytes.
  EXPECT_EQ(chunk_bytes(2'500, 6.0), 1'875'000ull);
  EXPECT_EQ(chunk_bytes(0, 6.0), 0ull);
}

TEST(ChunkKeyTest, VbrFactorDeterministicAndBounded) {
  double sum = 0.0;
  int distinct = 0;
  double prev = -1.0;
  for (std::uint32_t v = 0; v < 50; ++v) {
    for (std::uint32_t c = 0; c < 40; ++c) {
      const double f = vbr_factor(v, c);
      EXPECT_GE(f, 0.75);
      EXPECT_LE(f, 1.25);
      EXPECT_DOUBLE_EQ(f, vbr_factor(v, c));  // pure function
      if (f != prev) ++distinct;
      prev = f;
      sum += f;
    }
  }
  EXPECT_GT(distinct, 1'900);              // factors genuinely vary
  EXPECT_NEAR(sum / 2'000.0, 1.0, 0.02);   // mean ~= nominal
}

TEST(ChunkKeyTest, VbrBytesConsistentEverywhere) {
  // Every component must agree on the same object's size.
  const std::uint64_t a = chunk_bytes_vbr(2'500, 6.0, 7, 3);
  const std::uint64_t b = chunk_bytes_vbr(2'500, 6.0, 7, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, chunk_bytes_vbr(2'500, 6.0, 7, 4));
  EXPECT_GE(a, chunk_bytes(2'500, 6.0) * 3 / 4);
  EXPECT_LE(a, chunk_bytes(2'500, 6.0) * 5 / 4 + 1);
}

// Property: with a uniform access stream, every policy keeps the store
// functional (victims are always resident objects).
class PolicyPropertyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyPropertyTest, VictimsAreResident) {
  auto policy = make_policy(GetParam());
  std::vector<ChunkKey> resident;
  for (std::uint32_t i = 0; i < 50; ++i) {
    policy->on_insert(key(i), 100 + i);
    resident.push_back(key(i));
    if (resident.size() > 10) {
      const ChunkKey victim = policy->choose_victim();
      const auto it = std::find(resident.begin(), resident.end(), victim);
      ASSERT_NE(it, resident.end()) << "victim not resident";
      policy->on_evict(victim);
      resident.erase(it);
    }
  }
  EXPECT_EQ(resident.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPropertyTest,
                         ::testing::Values(PolicyKind::kLru,
                                           PolicyKind::kPerfectLfu,
                                           PolicyKind::kGdSize));

// Reference models written from the policies' definitions with linear
// scans: victim = minimum (frequency, admission-or-access sequence) for
// perfect-LFU, minimum (priority, sequence) for GD-size.  A seeded mix
// of insert/access/evict (victims, arbitrary residents and spurious
// keys) must pick the same victim and answer on_access the same way.
struct RefEntry {
  ChunkKey key;
  double rank;  // LFU: frequency; GD-size: priority
  std::uint64_t seq;
  std::uint64_t size;
};

class RefPolicy {
 public:
  explicit RefPolicy(bool gd_size) : gd_size_(gd_size) {}

  void on_insert(const ChunkKey& k, std::uint64_t size_bytes) {
    const std::uint64_t size = std::max<std::uint64_t>(1, size_bytes);
    resident_.push_back({k, rank_on_touch(k, size), seq_++, size});
  }
  bool on_access(const ChunkKey& k) {
    for (RefEntry& e : resident_) {
      if (e.key == k) {
        e.rank = rank_on_touch(k, e.size);
        e.seq = seq_++;
        return true;
      }
    }
    return false;
  }
  ChunkKey choose_victim() {
    const RefEntry* min = &resident_.front();
    for (const RefEntry& e : resident_) {
      if (e.rank < min->rank || (e.rank == min->rank && e.seq < min->seq)) {
        min = &e;
      }
    }
    if (gd_size_) inflation_ = min->rank;
    return min->key;
  }
  void on_evict(const ChunkKey& k) {
    std::erase_if(resident_, [&](const RefEntry& e) { return e.key == k; });
  }
  const std::vector<RefEntry>& resident() const { return resident_; }

 private:
  double rank_on_touch(const ChunkKey& k, std::uint64_t size) {
    if (gd_size_) return inflation_ + 1.0 / static_cast<double>(size);
    for (auto& [hk, count] : history_) {
      if (hk == k) return static_cast<double>(++count);
    }
    history_.emplace_back(k, 1);
    return 1.0;
  }

  bool gd_size_;
  double inflation_ = 0.0;
  std::uint64_t seq_ = 0;
  std::vector<RefEntry> resident_;
  std::vector<std::pair<ChunkKey, std::uint64_t>> history_;
};

class PolicyReferenceTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyReferenceTest, MatchesReferenceModelOverSeededMix) {
  auto policy = make_policy(GetParam());
  RefPolicy ref(GetParam() == PolicyKind::kGdSize);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  // Sizes from a small set so that GD-size priorities tie often.
  const std::uint64_t sizes[] = {0, 1, 1'000, 1'000, 250'000, 1'875'000};
  const auto resident = [&](const ChunkKey& k) {
    return std::any_of(ref.resident().begin(), ref.resident().end(),
                       [&](const RefEntry& e) { return e.key == k; });
  };
  std::size_t victims = 0;
  for (int step = 0; step < 20'000; ++step) {
    const ChunkKey k = key(static_cast<std::uint32_t>(next(48)),
                           static_cast<std::uint32_t>(next(2)));
    const std::uint64_t op = next(10);
    if (op < 4 || ref.resident().size() < 4) {
      if (resident(k)) continue;
      const std::uint64_t size = sizes[next(6)];
      policy->on_insert(k, size);
      ref.on_insert(k, size);
    } else if (op < 7) {
      ASSERT_EQ(policy->on_access(k), ref.on_access(k)) << "step " << step;
    } else if (op < 9) {
      const ChunkKey victim = policy->choose_victim();
      ASSERT_EQ(victim, ref.choose_victim()) << "step " << step;
      policy->on_evict(victim);
      ref.on_evict(victim);
      ++victims;
    } else {
      policy->on_evict(k);  // resident or spurious
      ref.on_evict(k);
    }
  }
  EXPECT_GT(victims, 3'000u);
  while (!ref.resident().empty()) {
    const ChunkKey victim = policy->choose_victim();
    ASSERT_EQ(victim, ref.choose_victim());
    policy->on_evict(victim);
    ref.on_evict(victim);
  }
  EXPECT_THROW(policy->choose_victim(), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(FrequencyAndSize, PolicyReferenceTest,
                         ::testing::Values(PolicyKind::kPerfectLfu,
                                           PolicyKind::kGdSize));

}  // namespace
}  // namespace vstream::cdn
