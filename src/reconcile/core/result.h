#ifndef RECONCILE_CORE_RESULT_H_
#define RECONCILE_CORE_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/graph/types.h"

namespace reconcile {

/// Statistics for one scoring round (one degree bucket within one outer
/// iteration) of a matcher.
struct PhaseStats {
  int iteration = 0;        ///< Outer iteration (1-based).
  int bucket_exponent = 0;  ///< Round matched nodes with degree >= 2^this.
  size_t links_in = 0;      ///< Links available as witnesses this round.
  size_t emissions = 0;     ///< Candidate-pair witness emissions.
  /// Distinct candidate pairs scored. In User-Matching this counts the
  /// stored pairs of the round's cells. Dead pairs (both endpoints matched)
  /// are never stored by emission and leave a cell whenever a merge, a fold
  /// or the between-iteration compaction rewrites it, so the store may hold
  /// some until then. Which cells a round rewrites depends on the score
  /// partition's width, and a resumed run rebuilds its store without dead
  /// pairs, so `candidate_pairs` and `observed_pairs` may differ across
  /// widths and between a resumed and an uninterrupted run (never across
  /// thread counts); `open_pairs`, `new_links` and `emissions` do not.
  size_t candidate_pairs = 0;
  /// Candidate pairs scoring at least the threshold: the only ones
  /// User-Matching folds into its best tables, so at most `candidate_pairs`
  /// and at least `new_links`. Zero for algorithms without that pass.
  size_t observed_pairs = 0;
  /// Pairs scoring at least the threshold with both endpoints unmatched:
  /// the live candidates, the only pairs the accept pass can take. At most
  /// `observed_pairs` and at least `new_links`. Zero for algorithms without
  /// that pass.
  size_t open_pairs = 0;
  size_t new_links = 0;     ///< Links accepted this round.
  double seconds = 0.0;     ///< Whole-round wall clock.
  // Per-round time split (seconds): emit (building the round's score
  // delta: the gather over the pending links and the row merge), merge
  // (appending the delta to the score cells, with any fold of a cell's
  // delta into its base run), scan (the best-table observe pass, which also
  // keeps each cell's open pairs) and select (the accept and commit
  // passes). The four do not sum exactly to `seconds`: cell bookkeeping
  // and the memory-budget pass sit between them.
  double emit_seconds = 0.0;
  double merge_seconds = 0.0;
  double scan_seconds = 0.0;
  double select_seconds = 0.0;
  int num_threads = 0;      ///< Worker threads the round ran with.
  // Out-of-core score store (under a memory budget): tiers moved to disk
  // by this round's budget-enforcement pass, and the resident/spilled byte
  // split after it ran. Zero everywhere when unbudgeted.
  size_t tiers_spilled = 0;
  size_t resident_score_bytes = 0;
  size_t spilled_score_bytes = 0;
};

/// Output of a matcher run: a (partial) one-to-one correspondence between
/// the two node sets, including the input seed links.
struct MatchResult {
  /// For each g1 node, the matched g2 node or kInvalidNode.
  std::vector<NodeId> map_1to2;
  /// For each g2 node, the matched g1 node or kInvalidNode.
  std::vector<NodeId> map_2to1;
  /// The seed links the run started from (subset of the maps).
  std::vector<std::pair<NodeId, NodeId>> seeds;
  /// Per-round telemetry, in execution order.
  std::vector<PhaseStats> phases;
  double total_seconds = 0.0;

  /// Whole-run totals of the per-round time split (seconds).
  struct PhaseTimeTotals {
    double emit_seconds = 0.0;
    double merge_seconds = 0.0;
    double scan_seconds = 0.0;
    double select_seconds = 0.0;
  };
  PhaseTimeTotals SumPhaseSeconds() const;

  /// Total number of links in the mapping (seeds + discovered).
  size_t NumLinks() const;
  /// Links discovered beyond the seeds.
  size_t NumNewLinks() const;
  /// True if g1 node `u` was a seed endpoint.
  bool IsSeed1(NodeId u) const;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_RESULT_H_
