#ifndef RECONCILE_CORE_SCORE_UNIT_H_
#define RECONCILE_CORE_SCORE_UNIT_H_

#include <cstddef>
#include <cstdint>

#include "reconcile/util/flat_hash_map.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

// One disjoint slice of the scored-pair multiset handed to selection: a
// hash-map shard (hash backend), a sorted run (radix recompute engine), or
// an LSM tier stack (radix incremental engine — its `ForEach` k-way-merges
// the tiers, so a key split across tiers still surfaces exactly once with
// its total count). A candidate pair lives in exactly one unit in every
// representation, and the selection fold is representation-agnostic — it
// only needs `ForEach(key, score)` — so all backends flow through the same
// selection engines and stay bit-identical by construction.
class ScoreUnit {
 public:
  explicit ScoreUnit(const FlatCountMap* map) : map_(map) {}
  explicit ScoreUnit(const SortedCountRun* run) : run_(run) {}
  explicit ScoreUnit(const TieredCountRuns* store) : store_(store) {}

  bool empty() const {
    if (map_ != nullptr) return map_->empty();
    if (run_ != nullptr) return run_->empty();
    return store_->empty();
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (map_ != nullptr) {
      map_->ForEach(fn);
    } else if (run_ != nullptr) {
      run_->ForEach(fn);
    } else {
      store_->ForEach(fn);
    }
  }

 private:
  const FlatCountMap* map_ = nullptr;
  const SortedCountRun* run_ = nullptr;
  const TieredCountRuns* store_ = nullptr;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_SCORE_UNIT_H_
