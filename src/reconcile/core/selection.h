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

/// The mutual-unique-best selection over a round's score cells: the
/// (level, shard) cells at the round's eligible levels. A candidate pair
/// lives in exactly one cell, and a cell's `ForEach` merges its base run
/// and delta, so each pair surfaces once with its total count.
///
/// Three parallel passes, each claiming one cell at a time:
///  * observe — feeds CAS-max atomic best tables and keeps the cell's open
///    pairs;
///  * accept — applies the acceptance predicate to the cell's open list
///    alone;
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
/// Nothing else reads the tables.
///
/// Open pairs are those scoring at least T with both endpoints unmatched:
/// the only pairs the acceptance predicate can take. The maps change only
/// in the commit pass, so the observe pass can collect them, and the store
/// is read once per round.
///
/// The commit: unique best on both sides means the accepted set is a
/// matching — no two cells accept the same g1 or g2 node — so after an
/// exclusive prefix sum sizes each cell's slot range in the link log, every
/// cell can write its links and map entries concurrently, race-free. The
/// log holds the cells' accepted lists in cell order.
class SelectionEngine {
 public:
  SelectionEngine(size_t n1, size_t n2);

  /// Applies the mutual-unique-best rule over `cells` (disjoint score cells
  /// whose union is the live, bucket-eligible scored-pair multiset),
  /// commits accepted links into `ctx`'s maps and link log, and returns
  /// the number accepted. Fills `stats`' candidate/observed/open/scan/
  /// select fields.
  size_t SelectAndCommit(const std::vector<const TieredCountRuns*>& cells,
                         const SelectionContext& ctx, PhaseStats* stats);

 private:
  AtomicBestTable best1_;
  AtomicBestTable best2_;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_SELECTION_H_
