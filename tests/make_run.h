// Test helper: the `SortedCountRun` of a key multiset, built through an
// ordered map so it shares no code with the sort paths under test.
#ifndef RECONCILE_TESTS_MAKE_RUN_H_
#define RECONCILE_TESTS_MAKE_RUN_H_

#include <cstdint>
#include <map>
#include <vector>

#include "reconcile/util/radix_sort.h"

namespace reconcile {

/// Equal keys collapse into one entry whose count is their multiplicity.
inline SortedCountRun MakeRun(const std::vector<uint64_t>& raw) {
  std::map<uint64_t, uint32_t> counts;
  for (uint64_t key : raw) ++counts[key];
  SortedCountRun run;
  for (const auto& [key, count] : counts) {
    run.keys.push_back(key);
    run.counts.push_back(count);
  }
  return run;
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_MAKE_RUN_H_
