#include "reconcile/util/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "make_run.h"
#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed, uint64_t mask) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) key = rng.Next() & mask;
  return keys;
}

void ExpectSortsLike(std::vector<uint64_t> keys) {
  std::vector<uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> scratch;
  RadixSortU64(keys, scratch);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSortTest, EmptyAndSingleton) {
  ExpectSortsLike({});
  ExpectSortsLike({42});
}

TEST(RadixSortTest, SmallArraysUseCutoffPath) {
  ExpectSortsLike({5, 3, 9, 1, 1, 0, 7});
  ExpectSortsLike(RandomKeys(kRadixSortCutoff - 1, 11, ~0ULL));
}

TEST(RadixSortTest, FullWidthRandomKeys) {
  ExpectSortsLike(RandomKeys(50000, 1, ~0ULL));
}

TEST(RadixSortTest, NarrowKeysSkipTrivialPasses) {
  // All high bytes zero: only the low passes should run, result still sorted.
  ExpectSortsLike(RandomKeys(20000, 2, 0xffffULL));
  ExpectSortsLike(RandomKeys(20000, 3, 0xffULL));
}

TEST(RadixSortTest, HighBitsOnly) {
  ExpectSortsLike(RandomKeys(20000, 4, 0xffff000000000000ULL));
}

TEST(RadixSortTest, DuplicateHeavyInput) {
  ExpectSortsLike(RandomKeys(30000, 5, 0x1fULL));  // 32 distinct values
}

TEST(RadixSortTest, AlreadySortedAndReversed) {
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 3;
  ExpectSortsLike(keys);
  std::reverse(keys.begin(), keys.end());
  ExpectSortsLike(keys);
}

TEST(RadixSortTest, ScratchReuseAcrossCalls) {
  std::vector<uint64_t> scratch;
  for (uint64_t round = 0; round < 4; ++round) {
    std::vector<uint64_t> keys = RandomKeys(5000 + 1000 * round, round, ~0ULL);
    std::vector<uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    RadixSortU64(keys, scratch);
    EXPECT_EQ(keys, expected);
  }
}

TEST(SortedCountRunTest, FilterKeepsOrderAndDropsEntries) {
  SortedCountRun run = MakeRun(RandomKeys(5000, 8, 0x1ffULL));
  const size_t before = run.size();
  run.Filter([](uint64_t key, uint32_t) { return key % 2 == 0; });
  EXPECT_LT(run.size(), before);
  for (size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run.keys[i] % 2, 0u);
    if (i > 0) {
      EXPECT_LT(run.keys[i - 1], run.keys[i]);
    }
  }
  EXPECT_EQ(run.keys.size(), run.counts.size());
}

TEST(MergeCountRunsTest, MatchesMapReference) {
  std::vector<uint64_t> a_raw = RandomKeys(10000, 9, 0xfffULL);
  std::vector<uint64_t> b_raw = RandomKeys(3000, 10, 0xfffULL);
  std::map<uint64_t, uint32_t> expected;
  for (uint64_t key : a_raw) ++expected[key];
  for (uint64_t key : b_raw) ++expected[key];

  SortedCountRun a = MakeRun(a_raw);
  MergeCountRuns(a, MakeRun(b_raw));
  ASSERT_EQ(a.size(), expected.size());
  size_t i = 0;
  for (const auto& [key, count] : expected) {
    EXPECT_EQ(a.keys[i], key);
    EXPECT_EQ(a.counts[i], count);
    ++i;
  }
}

TEST(MergeCountRunsTest, EmptyCases) {
  const SortedCountRun run = MakeRun({1, 2, 2});

  SortedCountRun target = run;
  MergeCountRuns(target, SortedCountRun{});  // no-op
  EXPECT_EQ(target.keys, run.keys);
  EXPECT_EQ(target.counts, run.counts);

  SortedCountRun fresh;
  SortedCountRun delta = run;
  MergeCountRuns(fresh, std::move(delta));  // an empty target adopts it
  EXPECT_EQ(fresh.keys, run.keys);
  EXPECT_EQ(fresh.counts, run.counts);
}

TEST(MergeCountRunsTest, DisjointAndOverlappingTails) {
  SortedCountRun low = MakeRun({1, 2, 3});
  MergeCountRuns(low, MakeRun({10, 11}));
  EXPECT_EQ(low.keys, (std::vector<uint64_t>{1, 2, 3, 10, 11}));

  SortedCountRun a = MakeRun({1, 5, 9});
  MergeCountRuns(a, MakeRun({5, 9, 12}));
  EXPECT_EQ(a.keys, (std::vector<uint64_t>{1, 5, 9, 12}));
  EXPECT_EQ(a.counts, (std::vector<uint32_t>{1, 2, 2, 1}));
}

}  // namespace
}  // namespace reconcile
