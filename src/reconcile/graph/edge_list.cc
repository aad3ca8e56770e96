#include "reconcile/graph/edge_list.h"

#include <algorithm>
#include <cstdint>

#include "reconcile/util/parallel_for.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

void EdgeList::Normalize() {
  ThreadPool* pool = edges_.size() >= kParallelEdgeThreshold &&
                             ThreadPool::DefaultThreads() > 1
                         ? &ThreadPool::Shared()
                         : nullptr;
  Normalize(pool);
}

void EdgeList::Normalize(ThreadPool* pool) {
  const size_t n = edges_.size();
  // Fixed blocks, one per worker slot (a null pool is one block).
  const size_t blocks =
      std::min(static_cast<size_t>(ParallelSlots(pool)), n);
  auto block_lo = [n, blocks](size_t b) { return n * b / blocks; };

  // Check: canonicalize every pair in place, and test within each block
  // that no pair is a self-loop and the pairs strictly ascend. A list that
  // passes, with ascending block boundaries too, is its own normalized form.
  // The boundaries are read only after the pass: during it, a block's first
  // pair may still be swapping.
  std::vector<uint8_t> block_ok(blocks);
  ParallelForEach(pool, blocks, [&](size_t b) {
    const size_t lo = block_lo(b), hi = block_lo(b + 1);
    bool ok = true;
    uint64_t previous = 0;
    for (size_t i = lo; i < hi; ++i) {
      Edge& e = edges_[i];
      if (e.first > e.second) std::swap(e.first, e.second);
      const uint64_t key = PackPair(e.first, e.second);
      ok &= e.first < e.second && (i == lo || previous < key);
      previous = key;
    }
    block_ok[b] = ok;
  });
  bool normalized =
      std::all_of(block_ok.begin(), block_ok.end(), [](uint8_t ok) {
        return ok != 0;
      });
  for (size_t b = 1; b < blocks && normalized; ++b) {
    normalized = edges_[block_lo(b) - 1] < edges_[block_lo(b)];
  }
  if (normalized) return;

  // Sort: radix-sort the packed pairs (already canonical), then unpack them
  // into `edges_`. A key is kept iff it is no self-loop and differs from its
  // predecessor, so each block counts its kept keys, a prefix over the
  // counts places the blocks, and each block writes its own output range.
  std::vector<uint64_t> keys(n);
  ParallelForEach(pool, blocks, [&](size_t b) {
    const size_t lo = block_lo(b), hi = block_lo(b + 1);
    for (size_t i = lo; i < hi; ++i) {
      keys[i] = PackPair(edges_[i].first, edges_[i].second);
    }
  });
  {
    std::vector<uint64_t> scratch;
    RadixSortU64(keys, scratch, pool);
  }
  auto keep = [&keys](size_t i) {
    return PairFirst(keys[i]) != PairSecond(keys[i]) &&
           (i == 0 || keys[i - 1] != keys[i]);
  };
  std::vector<size_t> out(blocks + 1, 0);
  ParallelForEach(pool, blocks, [&](size_t b) {
    const size_t lo = block_lo(b), hi = block_lo(b + 1);
    size_t kept = 0;
    for (size_t i = lo; i < hi; ++i) kept += keep(i);
    out[b + 1] = kept;
  });
  for (size_t b = 0; b < blocks; ++b) out[b + 1] += out[b];
  ParallelForEach(pool, blocks, [&](size_t b) {
    const size_t lo = block_lo(b), hi = block_lo(b + 1);
    size_t at = out[b];
    for (size_t i = lo; i < hi; ++i) {
      if (keep(i)) edges_[at++] = {PairFirst(keys[i]), PairSecond(keys[i])};
    }
  });
  edges_.resize(out[blocks]);
}

}  // namespace reconcile
