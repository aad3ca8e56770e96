#include "reconcile/util/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/rng.h"
#include "reconcile/util/thread_pool.h"

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

// On a pool: one block per worker slot, a prefix over (digit, block).
// Pools of 1 to 7 threads split the keys into blocks of every shape here.
void ExpectPoolSortsLike(const std::vector<uint64_t>& keys,
                         const std::string& what) {
  std::vector<uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  for (int threads = 1; threads <= 7; ++threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> sorted = keys;
    std::vector<uint64_t> scratch;
    RadixSortU64(sorted, scratch, &pool);
    ASSERT_EQ(sorted, expected) << what << ", threads " << threads;
  }
}

TEST(RadixSortPoolTest, MatchesStdSort) {
  ExpectPoolSortsLike({}, "empty");
  ExpectPoolSortsLike({42}, "singleton");
  ExpectPoolSortsLike(RandomKeys(kRadixSortCutoff - 1, 21, ~0ULL),
                      "below the cutoff");
  ExpectPoolSortsLike(RandomKeys(kRadixSortCutoff, 22, ~0ULL), "at the cutoff");
  ExpectPoolSortsLike(RandomKeys(50001, 23, ~0ULL), "full width");
  ExpectPoolSortsLike(RandomKeys(30000, 24, 0x1fULL), "32 distinct values");
  ExpectPoolSortsLike(std::vector<uint64_t>(20000, 0x0123456789abcdefULL),
                      "all equal");
  // Packed-pair shape: varying low bytes of each half, constant middle
  // bytes (3 and 7), so those passes drop and the rest must chain.
  ExpectPoolSortsLike(RandomKeys(40000, 25, 0x00ffffff00ffffffULL),
                      "constant middle bytes");
  // Only the top and bottom bytes vary: the first pass and the last.
  ExpectPoolSortsLike(RandomKeys(40000, 26, 0xff000000000000ffULL),
                      "outer bytes only");
  std::vector<uint64_t> descending(10007);
  for (size_t i = 0; i < descending.size(); ++i) {
    descending[i] = (descending.size() - i) << 20;
  }
  ExpectPoolSortsLike(descending, "descending");
}

}  // namespace
}  // namespace reconcile
