#ifndef RECONCILE_CORE_WITNESS_H_
#define RECONCILE_CORE_WITNESS_H_

#include <cstdint>
#include <vector>

#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

/// Counts similarity witnesses for the candidate pair (u, v) under the
/// current link map (paper, Definition 1): the number of pairs (w, w') with
/// `w ∈ N1(u)`, `w' ∈ N2(v)` and `link_1to2[w] == w'`.
///
/// This direct form is used by tests and the propagation baseline; the
/// matcher computes the same quantity for all candidate pairs at once in
/// its row-by-row scoring round.
uint32_t CountSimilarityWitnesses(const Graph& g1, const Graph& g2,
                                  const std::vector<NodeId>& link_1to2,
                                  NodeId u, NodeId v);

}  // namespace reconcile

#endif  // RECONCILE_CORE_WITNESS_H_
