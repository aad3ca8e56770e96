#ifndef RECONCILE_SEED_SEEDING_H_
#define RECONCILE_SEED_SEEDING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/sampling/realization.h"

namespace reconcile {

/// How the initial trusted links are chosen among true pairs.
enum class SeedBias {
  /// Every underlying node is linked independently with probability
  /// `fraction` (the paper's model: linking probability `l`).
  kUniform,
  /// Linking probability is proportional to min(deg1, deg2) — the paper's
  /// remark that celebrities cross-link their accounts more often.
  kDegreeProportional,
  /// The `fixed_count` highest-degree identifiable pairs are linked (as in
  /// the Narayanan–Shmatikov experiments the paper cites).
  kTopDegree,
};

struct SeedOptions {
  double fraction = 0.1;           ///< Linking probability `l`.
  SeedBias bias = SeedBias::kUniform;
  size_t fixed_count = 0;          ///< Used by kTopDegree.
  /// Fraction of seed links that are *corrupted*: the g2 endpoint is
  /// replaced by a uniformly random non-matching node. Models untrusted
  /// seed sources (e.g. username-similarity heuristics, which the paper
  /// notes can be combined with the algorithm); lets experiments measure
  /// robustness to bad trusted links.
  double wrong_fraction = 0.0;
};

/// Samples the initial set of trusted cross-network links from the hidden
/// ground truth of `pair`. Returned pairs are (g1 node, g2 node).
///
/// Per-node decisions are pure functions of (seed, node) evaluated on the
/// process-wide shared pool for large inputs, so the seed set is identical
/// for every thread count and claim order (and to the serial sweep on
/// small inputs).
std::vector<std::pair<NodeId, NodeId>> GenerateSeeds(
    const RealizationPair& pair, const SeedOptions& options, uint64_t seed);

}  // namespace reconcile

#endif  // RECONCILE_SEED_SEEDING_H_
