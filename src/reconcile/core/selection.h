#ifndef RECONCILE_CORE_SELECTION_H_
#define RECONCILE_CORE_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/core/best_table.h"
#include "reconcile/core/result.h"
#include "reconcile/core/score_unit.h"
#include "reconcile/graph/types.h"
#include "reconcile/util/thread_pool.h"

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

/// The mutual-unique-best selection engine over a round's score units.
///
/// Two interchangeable engines fill the same stats:
///  * serial — one thread folds every unit into epoch-stamped tables, then
///    scans every unit again to apply the acceptance predicate; it is the
///    reference the determinism suites compare the parallel engine with;
///  * parallel — one task per unit feeds CAS-max atomic tables and keeps
///    the unit's open pairs (observe pass), then one task per unit applies
///    the acceptance predicate to that list alone (accept pass), then the
///    accepted lists scatter into the link log in parallel (commit pass —
///    see below). A candidate pair lives in exactly one unit, and the fold
///    is order-independent, so both engines produce bit-identical matchings
///    for any thread count and partition.
///
/// Open pairs are those scoring at least T with both endpoints unmatched:
/// the only pairs the acceptance predicate can take. The maps change only
/// in the commit pass, so the parallel engine's one-pass lists hold exactly
/// the pairs the serial engine's second scan reaches, in the same unit
/// order; the parallel engine reads the store once per round.
///
/// Both observe passes fold only pairs scoring at least the threshold T
/// into the best tables. That is exact: the accept pass asks
/// `IsUniqueBest(x, s)` only for s >= T, and a pair below T can neither
/// raise nor tie a best of at least T. If a node's best over all pairs is
/// below T, it has no pair the accept pass looks at. Nothing else reads
/// the tables.
///
/// The parallel commit (formerly the last serial piece of a round): unique
/// best on both sides means the accepted set is a matching — no two units
/// accept the same g1 or g2 node — so after an exclusive prefix sum sizes
/// each unit's slot range in the link log, every unit can write its links
/// and map entries concurrently, race-free, at exactly the offsets the old
/// serial loop would have used. The log layout is byte-identical to the
/// serial order.
class SelectionEngine {
 public:
  /// Only the configured engine allocates its tables (the best tables are
  /// O(nodes); the other pair stays empty).
  SelectionEngine(size_t n1, size_t n2, bool parallel);

  /// Applies the mutual-unique-best rule over `units` (disjoint score
  /// units whose union is the live, bucket-eligible scored-pair multiset),
  /// commits accepted links into `ctx`'s maps and link log, and returns
  /// the number accepted. Fills `stats`' candidate/observed/open/scan/
  /// select fields.
  size_t SelectAndCommit(const std::vector<ScoreUnit>& units,
                         const SelectionContext& ctx, PhaseStats* stats);

 private:
  size_t SelectSerial(const std::vector<ScoreUnit>& units,
                      const SelectionContext& ctx, PhaseStats* stats);
  size_t SelectParallel(const std::vector<ScoreUnit>& units,
                        const SelectionContext& ctx, PhaseStats* stats);

  bool parallel_;
  BestTable best1_;
  BestTable best2_;
  AtomicBestTable atomic_best1_;
  AtomicBestTable atomic_best2_;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_SELECTION_H_
