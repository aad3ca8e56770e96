// TieredCountRuns: a score cell as a base run plus at most one delta. It
// must present exactly the aggregate of every delta appended — same keys,
// same totals, ascending order — and after each append the delta must be
// empty or under a quarter of the base.
#include "reconcile/util/tiered_store.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "make_run.h"
#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

// Keys lo, lo + 1, ..., hi - 1, once each.
SortedCountRun Range(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> raw;
  for (uint64_t key = lo; key < hi; ++key) raw.push_back(key);
  return MakeRun(raw);
}

// The aggregate as `ForEach` presents it; checks ascending, distinct keys.
std::map<uint64_t, uint32_t> Aggregate(const TieredCountRuns& store) {
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

TEST(TieredStoreTest, AggregateAndShapeAfterEveryAppend) {
  size_t two_tier_appends = 0;
  size_t folds = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    TieredCountRuns store;
    std::map<uint64_t, uint32_t> reference;
    for (int round = 0; round < 12; ++round) {
      // Delta sizes spread over two orders of magnitude, so some deltas fold
      // into the base and some stay beside it.
      const size_t size = static_cast<size_t>(rng.UniformIntInRange(0, 600)) /
                          (1 + rng.UniformInt(40));
      std::vector<uint64_t> raw;
      for (size_t i = 0; i < size; ++i) raw.push_back(rng.UniformInt(2000));
      for (uint64_t key : raw) ++reference[key];
      const size_t tiers_before = store.num_tiers();
      store.Append(MakeRun(raw));

      ASSERT_LE(store.num_tiers(), 2u);
      EXPECT_EQ(store.empty(), reference.empty());
      if (store.num_tiers() == 2) {
        ++two_tier_appends;
        EXPECT_LT(4 * store.tier_size(1), store.tier_size(0))
            << "the delta must stay under a quarter of the base";
      } else if (tiers_before == 2 || (tiers_before == 1 && !raw.empty())) {
        ++folds;
      }
      ASSERT_EQ(Aggregate(store), reference) << "round " << round;
    }
  }
  EXPECT_GT(two_tier_appends, 0u);
  EXPECT_GT(folds, 0u);
}

TEST(TieredStoreTest, DeltaFoldsOnceItReachesAQuarterOfTheBase) {
  TieredCountRuns store;
  store.Append(Range(0, 400));
  ASSERT_EQ(store.num_tiers(), 1u);
  store.Append(Range(1000, 1099));  // 400 > 4 * 99: stays beside the base
  ASSERT_EQ(store.num_tiers(), 2u);
  EXPECT_EQ(store.tier_size(0), 400u);
  EXPECT_EQ(store.tier_size(1), 99u);
  store.Append(Range(2000, 2001));  // the delta reaches 100: folds
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 500u);
}

TEST(TieredStoreTest, EqualSizedDeltasFoldEveryTime) {
  TieredCountRuns store;
  for (int i = 0; i < 6; ++i) {
    store.Append(Range(0, 64));
    EXPECT_EQ(store.num_tiers(), 1u);
  }
  const std::map<uint64_t, uint32_t> aggregate = Aggregate(store);
  ASSERT_EQ(aggregate.size(), 64u);
  for (const auto& [key, count] : aggregate) EXPECT_EQ(count, 6u) << key;
}

TEST(TieredStoreTest, FilterAppliesToBothTiers) {
  TieredCountRuns store;
  store.Append(MakeRun({10, 11, 12, 14, 16, 18, 20, 22, 24}));
  store.Append(MakeRun({10, 13}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter([](uint64_t key, uint32_t) { return key % 2 == 0; });
  const std::map<uint64_t, uint32_t> expected = {
      {10, 2}, {12, 1}, {14, 1}, {16, 1}, {18, 1}, {20, 1}, {22, 1}, {24, 1}};
  EXPECT_EQ(Aggregate(store), expected);
  EXPECT_EQ(store.num_tiers(), 2u);
  EXPECT_EQ(store.tier_size(1), 1u);
}

TEST(TieredStoreTest, FilterThatEmptiesTheDeltaKeepsTheBase) {
  TieredCountRuns store;
  store.Append(Range(0, 10));
  store.Append(MakeRun({100}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter([](uint64_t key, uint32_t) { return key < 100; });
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 10u);
}

TEST(TieredStoreTest, FilterThatEmptiesTheBasePromotesTheDelta) {
  TieredCountRuns store;
  store.Append(MakeRun({2, 4, 6, 8, 10, 12}));
  store.Append(MakeRun({3}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter([](uint64_t key, uint32_t) { return key % 2 == 1; });
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 1u);
  EXPECT_EQ(Aggregate(store), (std::map<uint64_t, uint32_t>{{3, 1}}));
  // The promoted run is the base now: an equal-sized delta folds into it.
  store.Append(MakeRun({5}));
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(Aggregate(store), (std::map<uint64_t, uint32_t>{{3, 1}, {5, 1}}));
  store.Filter([](uint64_t, uint32_t) { return false; });
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
}

TEST(TieredStoreTest, EmptyDeltasAreDropped) {
  TieredCountRuns store;
  store.Append(SortedCountRun{});
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
  store.Append(MakeRun({7}));
  store.Append(SortedCountRun{});
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 1u);
}

}  // namespace
}  // namespace reconcile
