#include "reconcile/util/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace reconcile
