#ifndef RECONCILE_CORE_SELECTION_H_
#define RECONCILE_CORE_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/core/best_table.h"
#include "reconcile/core/result.h"
#include "reconcile/graph/types.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

/// Everything one selection round needs from its caller: the worker pool,
/// the acceptance threshold, and the matching state the accepted links
/// commit into. `MatcherState` builds one of these per round.
struct SelectionContext {
  ThreadPool* pool = nullptr;
  uint32_t min_score = 0;
  std::vector<NodeId>* map_1to2 = nullptr;
  std::vector<NodeId>* map_2to1 = nullptr;
  std::vector<std::pair<NodeId, NodeId>>* links = nullptr;
};

/// One eligible score cell of a round. A cell at a level this round makes
/// eligible is read in full (`scan`); a cell at a level an earlier round of
/// the iteration made eligible brings the open pairs among its delta's new
/// totals (`open`, filled by `DeltaObserver`), and `scan` is null.
struct SelectionCell {
  const TieredCountRuns* scan = nullptr;
  /// Pairs scoring at least T with both ends unmatched, as (packed key,
  /// score) in ascending (u, v) order.
  std::vector<std::pair<uint64_t, uint32_t>> open;
};

/// The mutual-unique-best selection over a round's score cells: the
/// (level, shard) cells at the round's eligible levels. A candidate pair
/// lives in exactly one cell, and a cell's `ForEach` merges its base run
/// and delta, so each pair surfaces once with its total count.
///
/// The two CAS-max best tables live for one outer iteration, not one round:
/// within an iteration an unmatched node's (best, ties) over the eligible
/// pairs at or above T only rises, since scores only grow, the eligible
/// levels only widen, and a pair leaves the store only once both of its
/// ends are matched. So a round folds in only what changed since the last
/// one, in three passes, each claiming one cell at a time:
///  * observe — (ii) `DeltaObserver`, as the round's delta is appended: the
///    new totals of the delta's pairs on levels earlier rounds of the
///    iteration made eligible, which the merge into a cell's delta tier
///    gives up to the base's share, looked up by (u, v); and (i) in
///    `SelectAndCommit`, after the append: every pair of the levels this
///    round makes eligible, read once. A pair observed again at a higher
///    total leaves the tables as if only its current total had been: each
///    earlier observation is strictly below it. No pair is in both (i) and
///    (ii), so none is observed twice at one total, which would count a
///    false tie. Both keep the open pairs they see;
///  * accept — applies the acceptance predicate to each cell's open list
///    alone. Every other open pair was tested in an earlier round of the
///    iteration and failed; its score has not moved since, and its ends'
///    bests have only risen or gained ties, so it would fail again;
///  * commit — scatters the accepted lists into the link log (see below).
/// The fold is order-independent, so the matching is bit-identical for
/// any thread count and partition.
///
/// Every pair scoring at least T feeds the best tables, whatever its
/// endpoints' match state: a pair with a matched endpoint is a *blocker*
/// that keeps outscoring impostors of that node (what defeats the sybil
/// attack), but is never accepted. Skipping the pairs below T is exact:
/// the accept pass asks `IsUniqueBest(x, s)` only for s >= T, and a pair
/// below T can neither raise nor tie a best of at least T. If a node's best
/// over all pairs is below T, it has no pair the accept pass looks at.
///
/// The commit: unique best on both sides means the accepted set is a
/// matching — no two cells accept the same g1 or g2 node — so after an
/// exclusive prefix sum sizes each cell's slot range in the link log, every
/// cell can write its links and map entries concurrently, race-free. The
/// log holds the cells' accepted lists in cell order, (level, u, v).
class SelectionEngine {
 public:
  SelectionEngine(size_t n1, size_t n2);

  /// Starts an outer iteration: forgets every observation.
  void StartIteration();

  /// (ii) The observer a cell's append calls with each pair of the round's
  /// delta and the pair's total once appended (`TieredCountRuns::Append`):
  /// folds the pairs at or above T into the tables, keeps the open ones in
  /// `*open` and counts the folds in `*folds`. Cells may append in
  /// parallel; `ctx`'s maps must not change meanwhile.
  auto DeltaObserver(const SelectionContext& ctx,
                     std::vector<std::pair<uint64_t, uint32_t>>* open,
                     size_t* folds) {
    return [this, &ctx, open, folds](NodeId u, NodeId v, uint32_t total) {
      if (total < ctx.min_score) return;
      ++*folds;
      best1_.Observe(u, total);
      best2_.Observe(v, total);
      if ((*ctx.map_1to2)[u] == kInvalidNode &&
          (*ctx.map_2to1)[v] == kInvalidNode) {
        open->emplace_back(PackPair(u, v), total);
      }
    };
  }

  /// Folds every pair at or above T of `cells` into the tables, keeping
  /// nothing: reseeds them after a load, for the levels earlier rounds of
  /// the iteration made eligible.
  void Reseed(std::vector<SelectionCell>& cells, const SelectionContext& ctx);

  /// (i) then the accept and commit passes over `cells` (in (level, shard)
  /// order, disjoint, their union the round's eligible cells). Commits
  /// accepted links into `ctx`'s maps and link log and returns the number
  /// accepted. Adds the (i) reads and folds to `stats`' `candidate_pairs`
  /// and `observed_pairs`, and fills `open_pairs`, `scan_seconds` (the
  /// read) and `select_seconds`.
  size_t SelectAndCommit(std::vector<SelectionCell>& cells,
                         const SelectionContext& ctx, PhaseStats* stats);

  /// The tables, read-only: for node x, `BestScore(x)` is its best score at
  /// or above T this iteration (0 if none) and `IsUniqueBest(x, best)`
  /// whether exactly one pair reaches it.
  const AtomicBestTable& best1() const { return best1_; }
  const AtomicBestTable& best2() const { return best2_; }

 private:
  // Reads `cells[i].scan` for every cell that has one, folding the pairs
  // at or above T and, with `keep_open`, keeping the open ones. Adds the
  // reads and folds to the two counters.
  void Scan(std::vector<SelectionCell>& cells, const SelectionContext& ctx,
            bool keep_open, size_t* reads, size_t* folds);

  AtomicBestTable best1_;
  AtomicBestTable best2_;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_SELECTION_H_
