#include "reconcile/mr/mapreduce.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace reconcile {
namespace {

TEST(ShardOfKeyTest, StableAndInRange) {
  for (uint64_t key = 0; key < 1000; ++key) {
    int shard = mr::ShardOfKey(key, 7);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 7);
    EXPECT_EQ(shard, mr::ShardOfKey(key, 7));
  }
}

TEST(ShardOfKeyTest, SpreadsKeys) {
  std::vector<int> counts(8, 0);
  for (uint64_t key = 0; key < 8000; ++key) ++counts[static_cast<size_t>(mr::ShardOfKey(key, 8))];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

// Word-count style golden test: each item i emits keys i%k for i in [0,n).
TEST(CountByKeyTest, CountsMatchSequentialReference) {
  ThreadPool pool(4);
  constexpr size_t kItems = 10000;
  constexpr uint64_t kDistinct = 23;
  std::vector<FlatCountMap> shards = mr::CountByKey(
      &pool, kItems, /*num_map_shards=*/13, /*num_reduce_shards=*/5,
      [](size_t item, auto emit) {
        emit(item % kDistinct);
        if (item % 2 == 0) emit(item % kDistinct);  // double-emit evens
      });

  std::map<uint64_t, uint32_t> combined;
  for (const FlatCountMap& shard : shards) {
    shard.ForEach([&combined](uint64_t key, uint32_t count) {
      EXPECT_EQ(combined.count(key), 0u) << "key in two shards";
      combined[key] = count;
    });
  }
  std::map<uint64_t, uint32_t> reference;
  for (size_t item = 0; item < kItems; ++item) {
    reference[item % kDistinct] += (item % 2 == 0) ? 2 : 1;
  }
  EXPECT_EQ(combined, reference);
}

TEST(CountByKeyTest, KeysLandInTheirShard) {
  ThreadPool pool(2);
  const int kReduceShards = 4;
  std::vector<FlatCountMap> shards = mr::CountByKey(
      &pool, 1000, 3, kReduceShards,
      [](size_t item, auto emit) { emit(static_cast<uint64_t>(item) * 7919); });
  for (int r = 0; r < kReduceShards; ++r) {
    shards[static_cast<size_t>(r)].ForEach([r](uint64_t key, uint32_t) {
      EXPECT_EQ(mr::ShardOfKey(key, kReduceShards), r);
    });
  }
}

TEST(CountByKeyTest, ResultsIndependentOfShardCounts) {
  auto run = [](int map_shards, int reduce_shards, int threads) {
    ThreadPool pool(threads);
    std::vector<FlatCountMap> shards = mr::CountByKey(
        &pool, 5000, map_shards, reduce_shards, [](size_t item, auto emit) {
          emit(HashMix64(item) % 97);
          emit(HashMix64(item * 31) % 13);
        });
    std::map<uint64_t, uint32_t> combined;
    for (const FlatCountMap& shard : shards) {
      shard.ForEach(
          [&combined](uint64_t key, uint32_t count) { combined[key] += count; });
    }
    return combined;
  };
  auto a = run(1, 1, 1);
  auto b = run(16, 7, 4);
  auto c = run(5, 3, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(CountByKeyTest, NoItemsYieldsEmptyShards) {
  ThreadPool pool(2);
  std::vector<FlatCountMap> shards =
      mr::CountByKey(&pool, 0, 4, 4, [](size_t, auto emit) { emit(1); });
  for (const FlatCountMap& shard : shards) EXPECT_TRUE(shard.empty());
}

TEST(CountByKeyTest, HeavyDuplicationAggregates) {
  ThreadPool pool(4);
  std::vector<FlatCountMap> shards = mr::CountByKey(
      &pool, 100000, 8, 3, [](size_t, auto emit) { emit(42); });
  uint64_t total = 0;
  for (const FlatCountMap& shard : shards) total += shard.Count(42);
  EXPECT_EQ(total, 100000u);
}

}  // namespace
}  // namespace reconcile
