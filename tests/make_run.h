// Test helpers: the `RowRun` of a pair multiset, built through an ordered
// map so it shares no code with the merge and scan paths under test, and
// the aggregate a score cell's `ForEach` presents.
#ifndef RECONCILE_TESTS_MAKE_RUN_H_
#define RECONCILE_TESTS_MAKE_RUN_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/graph/types.h"
#include "reconcile/util/row_run.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

/// The run of (packed key, total) pairs.
inline RowRun RunOfTotals(const std::map<uint64_t, uint32_t>& totals) {
  RowRun run;
  for (auto it = totals.begin(); it != totals.end(); ++it) {
    run.PushEntry(PairSecond(it->first), it->second);
    const auto next = std::next(it);
    if (next == totals.end() || PairFirst(next->first) != PairFirst(it->first)) {
      run.CloseRow(PairFirst(it->first));
    }
  }
  return run;
}

/// The run of a multiset of packed `PackPair(u, v)` keys: equal keys
/// collapse into one entry whose count is their multiplicity.
inline RowRun MakeRun(const std::vector<uint64_t>& raw) {
  std::map<uint64_t, uint32_t> totals;
  for (uint64_t key : raw) ++totals[key];
  return RunOfTotals(totals);
}

/// The cell as `ForEach(min_total)` presents it, keyed by `PackPair(u, v)`;
/// checks that pairs ascend and surface once, and that the returned pair
/// count covers every pair visited.
inline std::map<uint64_t, uint32_t> Aggregate(const TieredCountRuns& store,
                                              uint32_t min_total = 0) {
  std::map<uint64_t, uint32_t> out;
  uint64_t last_key = 0;
  bool first = true;
  const size_t pairs = store.ForEach(
      min_total, [&out, &last_key, &first](NodeId u, NodeId v, uint32_t total) {
        const uint64_t key = PackPair(u, v);
        if (!first) {
          EXPECT_GT(key, last_key) << "ForEach must ascend";
        }
        first = false;
        last_key = key;
        EXPECT_TRUE(out.emplace(key, total).second) << "pair surfaced twice";
      });
  EXPECT_GE(pairs, out.size());
  return out;
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_MAKE_RUN_H_
