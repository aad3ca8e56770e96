#ifndef RECONCILE_UTIL_PARALLEL_FOR_H_
#define RECONCILE_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "reconcile/util/thread_pool.h"

namespace reconcile {

// The hot paths' parallel loop: work-stealing. `[0, n)` is
// pre-split into one contiguous range per worker slot; each worker consumes
// its own range from the front in `grain`-sized chunks, and an idle worker
// steals the back half of the fullest remaining range. Imbalance is repaired
// while the loop runs, which is what matters on hub-heavy social graphs
// (per-item cost is heavy-tailed). Every index runs exactly once on disjoint
// subranges, so any loop body whose aggregation is partition-independent
// (commutative sums, per-index writes, CAS-max folds — everything in this
// codebase's hot paths) produces bit-identical results under any steal
// schedule and thread count.

/// Number of worker slots a work-stealing loop on `pool` uses: one per pool
/// thread (1 when `pool` is null). Callers keeping per-slot accumulation
/// buffers size them with this.
int ParallelSlots(const ThreadPool* pool);

/// Work-stealing parallel-for over `[0, n)`: invokes `fn(begin, end)` on
/// disjoint chunks of at most `grain` items until the range is exhausted,
/// blocking until all chunks complete. Which indices land in which call (and
/// on which thread) depends on the steal schedule, so `fn` must be
/// partition-agnostic as well as race-free on disjoint ranges. Runs serially
/// when `pool` is null, has fewer than two threads, or `n <= grain`.
void ParallelForWorkStealing(ThreadPool* pool, size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn);

/// Slot-aware variant: `fn(slot, begin, end)` where `slot` identifies the
/// executing worker (stable for the duration of the loop, in
/// `[0, ParallelSlots(pool))`). This is the hook for per-worker accumulation
/// buffers — each slot's buffer is touched by exactly one thread, with no
/// relation between slot and index range beyond disjointness.
void ParallelForWorkStealingSlots(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<void(int, size_t, size_t)>& fn);

/// One item per claim: `fn(i)` for every `i` in `[0, n)`. The shape of the
/// per-cell loops over the score store, where a single (level, shard) cell
/// can hold most of a round's work.
void ParallelForEach(ThreadPool* pool, size_t n,
                     const std::function<void(size_t)>& fn);

/// Producer-loop helper shared by the delta-accumulating map phases (witness
/// emission, the mr map phases): runs `fn(delta, begin, end)` over disjoint
/// chunks of `[0, n)`, claiming `grain` items per lock acquisition, with one
/// producer-local accumulator per worker slot, and returns the accumulators
/// for a subsequent merge. A delta is only ever touched by one thread at a
/// time, but which items land in which delta depends on the schedule — `fn`
/// must aggregate commutatively so the partition stays unobservable after
/// the merge. Producers that receive no items are left default-constructed.
template <typename Delta, typename Fn>
std::vector<Delta> ParallelProduce(ThreadPool* pool, size_t n, size_t grain,
                                   Fn&& fn) {
  std::vector<Delta> deltas(static_cast<size_t>(ParallelSlots(pool)));
  ParallelForWorkStealingSlots(
      pool, n, grain, [&deltas, &fn](int slot, size_t begin, size_t end) {
        fn(deltas[static_cast<size_t>(slot)], begin, end);
      });
  return deltas;
}

}  // namespace reconcile

#endif  // RECONCILE_UTIL_PARALLEL_FOR_H_
