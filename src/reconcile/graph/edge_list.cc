#include "reconcile/graph/edge_list.h"

#include <algorithm>

#include "reconcile/util/parallel_for.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

namespace {

// Below this size the serial normalize wins over task setup.
constexpr size_t kParallelNormalizeThreshold = 1u << 15;

}  // namespace

void EdgeList::Normalize() {
  ThreadPool* pool = edges_.size() >= kParallelNormalizeThreshold &&
                             ThreadPool::DefaultThreads() > 1
                         ? &ThreadPool::Shared()
                         : nullptr;
  Normalize(pool);
}

void EdgeList::Normalize(ThreadPool* pool) {
  const size_t n = edges_.size();
  if (pool == nullptr || pool->num_threads() < 2 || n < 2) {
    for (Edge& e : edges_) {
      if (e.first > e.second) std::swap(e.first, e.second);
    }
    std::sort(edges_.begin(), edges_.end());
  } else {
    // Parallel path. Chunk boundaries are fixed up front; sorting each
    // chunk and merging pairwise yields the same fully sorted array as the
    // serial sort, so the normalized list is thread-count independent.
    const size_t grain = pool->GrainFor(n, 4096);
    std::vector<size_t> bounds;
    for (size_t b = 0; b < n; b += grain) bounds.push_back(b);
    bounds.push_back(n);
    const size_t num_chunks = bounds.size() - 1;

    // Canonicalize endpoints and sort each chunk. Chunk boundaries are
    // fixed; the loop only decides which worker runs which chunk (stealing
    // evens out chunks that sort slower).
    ParallelForWorkStealing(
        pool, num_chunks, 1, [this, &bounds](size_t lo, size_t hi) {
          for (size_t c = lo; c < hi; ++c) {
            auto begin = edges_.begin() + static_cast<ptrdiff_t>(bounds[c]);
            auto end = edges_.begin() + static_cast<ptrdiff_t>(bounds[c + 1]);
            for (auto it = begin; it != end; ++it) {
              if (it->first > it->second) std::swap(it->first, it->second);
            }
            std::sort(begin, end);
          }
        });

    // Merge ladder: each pass merges adjacent sorted range pairs in
    // parallel.
    for (size_t width = 1; width < num_chunks; width *= 2) {
      for (size_t lo = 0; lo + width < num_chunks; lo += 2 * width) {
        const size_t mid = lo + width;
        const size_t hi = std::min(num_chunks, lo + 2 * width);
        pool->Submit([this, &bounds, lo, mid, hi] {
          std::inplace_merge(
              edges_.begin() + static_cast<ptrdiff_t>(bounds[lo]),
              edges_.begin() + static_cast<ptrdiff_t>(bounds[mid]),
              edges_.begin() + static_cast<ptrdiff_t>(bounds[hi]));
        });
      }
      pool->Wait();
    }
  }

  DedupSweep(pool);
}

// Dedup + self-loop removal over the sorted edge array. An edge is kept iff
// it is not a self-loop and differs from its predecessor *input* element —
// equivalent to the classic "differs from the last kept edge" rule because
// the array is sorted: if e equals its predecessor, that predecessor was
// either kept (so e is a duplicate of the last kept edge) or was a
// self-loop (then e is the same self-loop). The predicate is therefore a
// pure function of (edges_[i-1], edges_[i]), which is what makes the
// blocked parallel sweep possible.
void EdgeList::DedupSweep(ThreadPool* pool) {
  const size_t n = edges_.size();
  auto keep = [this](size_t i) {
    const Edge& e = edges_[i];
    if (e.first == e.second) return false;
    return i == 0 || !(edges_[i - 1] == e);
  };

  if (pool == nullptr || pool->num_threads() < 2 || n < 2) {
    // Serial reference sweep (also the historical in-place code path).
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!keep(i)) continue;
      edges_[out++] = edges_[i];
    }
    edges_.resize(out);
    return;
  }

  // Blocked scan: per-block kept counts -> serial prefix over the block
  // totals -> parallel compaction into a fresh array (in-place parallel
  // compaction would let block b overwrite input another block has not
  // consumed yet). Output order equals the serial sweep regardless of the
  // block partition or thread count, because the keep predicate is local
  // and blocks write disjoint pre-computed output ranges in input order.
  const size_t grain = pool->GrainFor(n, 4096);
  std::vector<size_t> bounds;
  for (size_t b = 0; b < n; b += grain) bounds.push_back(b);
  bounds.push_back(n);
  const size_t num_blocks = bounds.size() - 1;

  std::vector<size_t> offsets(num_blocks + 1, 0);
  ParallelForWorkStealing(
      pool, num_blocks, 1, [&bounds, &offsets, &keep](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b) {
          size_t count = 0;
          for (size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
            if (keep(i)) ++count;
          }
          offsets[b + 1] = count;
        }
      });
  for (size_t b = 0; b < num_blocks; ++b) offsets[b + 1] += offsets[b];

  std::vector<Edge> compacted(offsets[num_blocks]);
  ParallelForWorkStealing(
      pool, num_blocks, 1,
      [this, &bounds, &offsets, &compacted, &keep](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b) {
          size_t out = offsets[b];
          for (size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
            if (keep(i)) compacted[out++] = edges_[i];
          }
        }
      });
  edges_ = std::move(compacted);
}

}  // namespace reconcile
