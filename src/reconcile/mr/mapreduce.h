#ifndef RECONCILE_MR_MAPREDUCE_H_
#define RECONCILE_MR_MAPREDUCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reconcile/util/flat_hash_map.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/timer.h"

namespace reconcile {
namespace mr {

/// Reduce-shard owning a packed key. The modulus uses the high bits of the
/// mixed hash so it stays independent from FlatCountMap's slot choice.
inline int ShardOfKey(uint64_t key, int num_shards) {
  return static_cast<int>((HashMix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) >> 32) %
                          static_cast<uint64_t>(num_shards));
}

/// In-memory MapReduce round specialized for count aggregation — the shape
/// of the paper's witness-scoring step ("the internal for loop can be
/// implemented efficiently with 4 consecutive rounds of MapReduce").
///
/// The mapper is invoked once per item index in `[0, num_items)` and may
/// emit any number of 64-bit keys; the framework counts emissions per key.
/// Each map worker maintains per-reduce-shard combiner maps (early duplicate
/// collapse), and the reduce phase merges combiners shard-by-shard. The
/// resulting multiset of (key, count) pairs is exactly the sequential
/// result, independent of shard or thread counts.
///
/// `map_fn(size_t item, Emit emit)` with `emit(uint64_t key)`.
///
/// The map phase runs on the work-stealing loop with one combiner set per
/// worker slot, claiming an eighth of `num_items / num_map_shards` items per
/// chunk, so skewed items rebalance while the phase runs; `num_map_shards`
/// only sets that chunk size. The reduce phase submits one task per reduce
/// shard.
/// When `reduce_seconds` is non-null the reduce phase's wall-clock is added
/// to it.
template <typename MapFn>
std::vector<FlatCountMap> CountByKey(ThreadPool* pool, size_t num_items,
                                     int num_map_shards, int num_reduce_shards,
                                     MapFn&& map_fn,
                                     double* reduce_seconds = nullptr) {
  RECONCILE_CHECK_GE(num_map_shards, 1);
  RECONCILE_CHECK_GE(num_reduce_shards, 1);

  // Map phase with per-slot combiners (`ParallelProduce`).
  const size_t grain =
      (num_items + static_cast<size_t>(num_map_shards) - 1) /
      static_cast<size_t>(num_map_shards);
  std::vector<std::vector<FlatCountMap>> partial =
      ParallelProduce<std::vector<FlatCountMap>>(
          pool, num_items, std::max<size_t>(1, grain / 8),
          [num_reduce_shards, &map_fn](std::vector<FlatCountMap>& maps,
                                       size_t begin, size_t end) {
            if (maps.empty()) {
              maps = std::vector<FlatCountMap>(
                  static_cast<size_t>(num_reduce_shards));
            }
            auto emit = [&maps, num_reduce_shards](uint64_t key) {
              maps[static_cast<size_t>(ShardOfKey(key, num_reduce_shards))]
                  .AddCount(key, 1);
            };
            for (size_t item = begin; item < end; ++item) {
              map_fn(item, emit);
            }
          });

  // Reduce phase: merge combiners per reduce shard, in fixed producer order.
  Timer reduce_timer;
  std::vector<FlatCountMap> result(static_cast<size_t>(num_reduce_shards));
  auto reduce_shard = [&result, &partial](size_t r) {
    size_t expected = 0;
    for (const std::vector<FlatCountMap>& maps : partial) {
      if (!maps.empty()) expected += maps[r].size();
    }
    FlatCountMap merged(expected);
    for (const std::vector<FlatCountMap>& maps : partial) {
      if (maps.empty()) continue;
      maps[r].ForEach([&merged](uint64_t key, uint32_t count) {
        merged.AddCount(key, count);
      });
    }
    result[r] = std::move(merged);
  };
  for (int r = 0; r < num_reduce_shards; ++r) {
    pool->Submit([r, &reduce_shard] { reduce_shard(static_cast<size_t>(r)); });
  }
  pool->Wait();
  if (reduce_seconds != nullptr) *reduce_seconds += reduce_timer.Seconds();
  return result;
}

/// Sort-based sibling of `CountByKey`: the same map/emit contract and the
/// same aggregate (every emitted key with its multiplicity), but produced by
/// radix-partitioned sort-and-count instead of hash aggregation.
///
/// Each map worker appends raw keys into per-reduce-shard flat buffers (one
/// `push_back` per emission — no hashing, no probing); the reduce phase
/// concatenates each shard's chunks, radix-sorts them and run-length-encodes
/// the result into a `SortedCountRun`. `shard_fn(key)` routes a key to its
/// reduce shard in `[0, num_reduce_shards)`; it must be deterministic. A
/// range partition on the high key bits (so each shard owns a contiguous key
/// interval) keeps shard contents disjoint and globally ordered, but any
/// deterministic partition yields the same aggregate.
///
/// The multiset of (key, count) pairs over all shards equals the sequential
/// count, independent of shard or thread counts. Scheduling and
/// `reduce_seconds` are as in `CountByKey`.
template <typename MapFn, typename ShardFn>
std::vector<SortedCountRun> SortCountByKey(ThreadPool* pool, size_t num_items,
                                           int num_map_shards,
                                           int num_reduce_shards,
                                           MapFn&& map_fn, ShardFn&& shard_fn,
                                           double* reduce_seconds = nullptr) {
  RECONCILE_CHECK_GE(num_map_shards, 1);
  RECONCILE_CHECK_GE(num_reduce_shards, 1);

  // Map phase: flat append buffers per worker slot (`ParallelProduce`),
  // partitioned by reduce shard at emission time. The reduce sort makes the
  // producer partition unobservable.
  const size_t grain =
      (num_items + static_cast<size_t>(num_map_shards) - 1) /
      static_cast<size_t>(num_map_shards);
  std::vector<std::vector<std::vector<uint64_t>>> partial =
      ParallelProduce<std::vector<std::vector<uint64_t>>>(
          pool, num_items, std::max<size_t>(1, grain / 8),
          [num_reduce_shards, &map_fn, &shard_fn](
              std::vector<std::vector<uint64_t>>& buffers, size_t begin,
              size_t end) {
            if (buffers.empty()) {
              buffers.resize(static_cast<size_t>(num_reduce_shards));
            }
            auto emit = [&buffers, &shard_fn](uint64_t key) {
              buffers[static_cast<size_t>(shard_fn(key))].push_back(key);
            };
            for (size_t item = begin; item < end; ++item) {
              map_fn(item, emit);
            }
          });

  // Reduce phase: per shard, gather the chunks, sort, run-length-encode.
  Timer reduce_timer;
  std::vector<SortedCountRun> result(static_cast<size_t>(num_reduce_shards));
  auto reduce_shard = [&result, &partial](size_t r) {
    size_t total = 0;
    for (const std::vector<std::vector<uint64_t>>& buffers : partial) {
      if (!buffers.empty()) total += buffers[r].size();
    }
    if (total == 0) return;
    std::vector<uint64_t> keys;
    keys.reserve(total);
    for (const std::vector<std::vector<uint64_t>>& buffers : partial) {
      if (buffers.empty()) continue;
      const std::vector<uint64_t>& chunk = buffers[r];
      keys.insert(keys.end(), chunk.begin(), chunk.end());
    }
    std::vector<uint64_t> scratch;
    result[r] = SortAndCount(std::move(keys), scratch);
  };
  for (int r = 0; r < num_reduce_shards; ++r) {
    pool->Submit([r, &reduce_shard] { reduce_shard(static_cast<size_t>(r)); });
  }
  pool->Wait();
  if (reduce_seconds != nullptr) *reduce_seconds += reduce_timer.Seconds();
  return result;
}

}  // namespace mr
}  // namespace reconcile

#endif  // RECONCILE_MR_MAPREDUCE_H_
