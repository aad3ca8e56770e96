#ifndef RECONCILE_BASELINE_BP_MATCHER_H_
#define RECONCILE_BASELINE_BP_MATCHER_H_

#include <cstddef>
#include <span>
#include <utility>

#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"

namespace reconcile {

/// Configuration for the belief-propagation profile matcher (Halimi & Ayday
/// style): candidate pairs are discovered through matched-neighbour
/// witnesses, then min-sum belief propagation on the bipartite candidate
/// graph competes candidates against each other before mutual-best
/// acceptance. Compared to the ns09 eccentricity gate, BP lets *global*
/// competition (two g1 nodes wanting the same g2 node) suppress a locally
/// plausible but contested match.
struct BpConfig {
  /// Message-passing iterations per sweep.
  int iterations = 8;
  /// Damping factor in [0, 1): each new message is
  /// `damping * old + (1 - damping) * computed`. 0 disables damping.
  double damping = 0.5;
  /// Weight of the degree-similarity prior mixed into each candidate
  /// weight: `w(u,v) = witnesses + prior * min(d_u,d_v)/max(d_u,d_v)`.
  double prior = 0.5;
  /// Minimum final belief (`m_vu + m_uv - w`) for acceptance; pairs whose
  /// converged belief falls below this stay unmatched. 0 accepts every
  /// mutual best; the default rejects weakly-witnessed contested picks
  /// (high precision while staying competitive with core on recall).
  double min_belief = 0.8;
  /// Outer sweeps: each sweep re-discovers candidates from the grown
  /// matching and stops early when no sweep accepts a new link.
  int max_sweeps = 5;
  /// Candidate cap per g1 node (strongest witnesses kept).
  size_t max_candidates = 8;
  /// Worker threads (0 = hardware concurrency). Matchings are
  /// bit-identical across thread counts: every update is a pure function of
  /// the previous iteration's messages.
  int num_threads = 0;
};

/// Runs belief-propagation matching from the seed links. Per-sweep
/// `PhaseStats` report `candidate_pairs` (edges in the sweep's candidate
/// graph) and `new_links`.
MatchResult BpMatch(const Graph& g1, const Graph& g2,
                    std::span<const std::pair<NodeId, NodeId>> seeds,
                    const BpConfig& config);

}  // namespace reconcile

#endif  // RECONCILE_BASELINE_BP_MATCHER_H_
