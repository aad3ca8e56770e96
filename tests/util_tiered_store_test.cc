// TieredCountRuns: the LSM tier stack must present exactly the aggregate of
// the fully merged run — same keys, same totals, ascending order — for
// every append/compaction policy, and the size-ratio policy must bound the
// resident tier count.
#include "reconcile/util/tiered_store.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "make_run.h"
#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

// Random delta stream with overlapping keys across deltas.
std::vector<std::vector<uint64_t>> MakeDeltaStream(uint64_t seed,
                                                   size_t num_deltas,
                                                   size_t delta_size,
                                                   uint64_t key_space) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> deltas(num_deltas);
  for (auto& delta : deltas) {
    for (size_t i = 0; i < delta_size; ++i) {
      delta.push_back(rng.UniformInt(key_space));
    }
  }
  return deltas;
}

std::map<uint64_t, uint32_t> Materialize(const TieredCountRuns& store) {
  std::map<uint64_t, uint32_t> out;
  uint64_t last_key = 0;
  bool first = true;
  store.ForEach([&out, &last_key, &first](uint64_t key, uint32_t count) {
    if (!first) {
      EXPECT_GT(key, last_key) << "ForEach must ascend";
    }
    first = false;
    last_key = key;
    EXPECT_TRUE(out.emplace(key, count).second) << "duplicate key surfaced";
  });
  return out;
}

TEST(TieredStoreTest, AggregateMatchesReferenceForAllPolicies) {
  const auto deltas = MakeDeltaStream(77, 9, 500, 300);
  std::map<uint64_t, uint32_t> reference;
  for (const auto& delta : deltas) {
    for (uint64_t key : delta) ++reference[key];
  }
  for (int max_tiers : {1, 2, 4, 16}) {
    for (double ratio : {0.0, 1.0, 2.0, 4.0, 1e9}) {
      TierPolicy policy{max_tiers, ratio};
      TieredCountRuns store;
      for (const auto& delta : deltas) {
        store.Append(MakeRun(delta), policy);
        EXPECT_LE(store.num_tiers(), static_cast<size_t>(max_tiers))
            << "max_tiers=" << max_tiers << " ratio=" << ratio;
      }
      EXPECT_EQ(Materialize(store), reference)
          << "max_tiers=" << max_tiers << " ratio=" << ratio;
    }
  }
}

TEST(TieredStoreTest, SingleTierPolicyKeepsOneRun) {
  TierPolicy policy{1, 4.0};
  TieredCountRuns store;
  for (const auto& delta : MakeDeltaStream(3, 6, 100, 64)) {
    store.Append(MakeRun(delta), policy);
    EXPECT_EQ(store.num_tiers(), 1u);
  }
}

TEST(TieredStoreTest, GeometricDeltasStayInSeparateTiers) {
  // With ratio 2, each delta 4x smaller than its predecessor must not
  // trigger a cascade: 4000 is > 2 * 1000, etc.
  TierPolicy policy{8, 2.0};
  TieredCountRuns store;
  size_t size = 4000;
  for (int i = 0; i < 4; ++i, size /= 4) {
    std::vector<uint64_t> raw;
    // Distinct key ranges per delta keep run sizes equal to raw sizes.
    for (size_t j = 0; j < size; ++j) {
      raw.push_back(static_cast<uint64_t>(i) * 1000000 + j);
    }
    store.Append(MakeRun(raw), policy);
  }
  EXPECT_EQ(store.num_tiers(), 4u);
}

TEST(TieredStoreTest, EqualSizedDeltasCascade) {
  // With ratio 4, appending equal-sized deltas merges every time: the new
  // tier is always within 4x of its predecessor.
  TierPolicy policy{8, 4.0};
  TieredCountRuns store;
  for (int i = 0; i < 6; ++i) {
    std::vector<uint64_t> raw;
    for (uint64_t j = 0; j < 64; ++j) raw.push_back(j);
    store.Append(MakeRun(raw), policy);
    EXPECT_EQ(store.num_tiers(), 1u);
  }
  EXPECT_EQ(store.Count(0), 6u);
}

TEST(TieredStoreTest, CountSumsAcrossTiers) {
  TierPolicy policy{8, 0.0};  // ratio trigger off: never cascade below the cap
  TieredCountRuns store;
  store.Append(MakeRun({1, 2, 2, 3}), policy);
  store.Append(MakeRun({2, 3, 4}), policy);
  store.Append(MakeRun({3}), policy);
  EXPECT_EQ(store.Count(1), 1u);
  EXPECT_EQ(store.Count(2), 3u);
  EXPECT_EQ(store.Count(3), 3u);
  EXPECT_EQ(store.Count(4), 1u);
  EXPECT_EQ(store.Count(99), 0u);
}

TEST(TieredStoreTest, FilterAppliesAcrossTiersAndDropsEmpties) {
  TierPolicy policy{8, 0.0};
  TieredCountRuns store;
  store.Append(MakeRun({10, 11, 12}), policy);
  store.Append(MakeRun({10, 13}), policy);
  store.Append(MakeRun({11}), policy);
  ASSERT_EQ(store.num_tiers(), 3u);
  store.Filter([](uint64_t key, uint32_t) { return key % 2 == 0; });
  EXPECT_EQ(store.Count(10), 2u);
  EXPECT_EQ(store.Count(11), 0u);
  EXPECT_EQ(store.Count(12), 1u);
  EXPECT_EQ(store.Count(13), 0u);
  // The third tier held only key 11 and must be gone.
  EXPECT_EQ(store.num_tiers(), 2u);
  store.Filter([](uint64_t, uint32_t) { return false; });
  EXPECT_TRUE(store.empty());
}

TEST(TieredStoreTest, CompactFoldsToOneTierWithSameAggregate) {
  TierPolicy policy{8, 0.0};
  TieredCountRuns store;
  const auto deltas = MakeDeltaStream(5, 5, 200, 100);
  for (const auto& delta : deltas) store.Append(MakeRun(delta), policy);
  const std::map<uint64_t, uint32_t> before = Materialize(store);
  ASSERT_GT(store.num_tiers(), 1u);
  store.Compact();
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(Materialize(store), before);
}

TEST(TieredStoreTest, EmptyDeltasAreDropped) {
  TierPolicy policy{4, 4.0};
  TieredCountRuns store;
  store.Append(SortedCountRun{}, policy);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
  store.Append(MakeRun({7}), policy);
  store.Append(SortedCountRun{}, policy);
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.total_entries(), 1u);
}

}  // namespace
}  // namespace reconcile
