#include "reconcile/core/result.h"

#include <algorithm>

namespace reconcile {

MatchResult::PhaseTimeTotals MatchResult::SumPhaseSeconds() const {
  PhaseTimeTotals totals;
  for (const PhaseStats& phase : phases) {
    totals.emit_seconds += phase.emit_seconds;
    totals.merge_seconds += phase.merge_seconds;
    totals.scan_seconds += phase.scan_seconds;
    totals.select_seconds += phase.select_seconds;
  }
  return totals;
}

size_t MatchResult::NumLinks() const {
  size_t count = 0;
  for (NodeId v : map_1to2) {
    if (v != kInvalidNode) ++count;
  }
  return count;
}

size_t MatchResult::NumNewLinks() const { return NumLinks() - seeds.size(); }

bool MatchResult::IsSeed1(NodeId u) const {
  return std::any_of(seeds.begin(), seeds.end(),
                     [u](const std::pair<NodeId, NodeId>& s) {
                       return s.first == u;
                     });
}

}  // namespace reconcile
