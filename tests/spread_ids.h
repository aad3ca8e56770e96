// Partition invariance without a knob. The matcher sizes its score
// partition from g1's node count alone (one shard per 512 nodes, at most
// 256), so a test reaches another width by spreading g1's ids: node u
// becomes u * stride, with isolated filler nodes in between. Isolated
// nodes are nobody's neighbour, so they are never emitted, scored or
// matched, and the relabeling keeps id order. A correct matcher therefore
// returns the reference matching under the same relabeling, whatever
// width the spread graph resolves to. On the ~1.5k-node test graphs,
// strides 1, 16 and 128 give widths of about 3, 50 and 256 (the cap).
#ifndef RECONCILE_TESTS_SPREAD_IDS_H_
#define RECONCILE_TESTS_SPREAD_IDS_H_

#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/result.h"
#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

/// `g` with node u renamed u * stride, over n * stride nodes.
inline Graph SpreadIds(const Graph& g, NodeId stride) {
  EdgeList edges(g.num_nodes() * stride);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) edges.Add(u * stride, v * stride);
    }
  }
  return Graph::FromEdgeList(std::move(edges));
}

/// Seeds with their g1 endpoint spread like `SpreadIds`.
inline std::vector<std::pair<NodeId, NodeId>> SpreadSeeds(
    std::span<const std::pair<NodeId, NodeId>> seeds, NodeId stride) {
  std::vector<std::pair<NodeId, NodeId>> spread;
  spread.reserve(seeds.size());
  for (const auto& [u, v] : seeds) spread.emplace_back(u * stride, v);
  return spread;
}

/// A run on spread g1 ids mapped back to the original ids, so it compares
/// against the reference run directly. A matched filler node is a test
/// failure.
inline MatchResult Unspread(MatchResult spread, NodeId stride) {
  const NodeId n1 = static_cast<NodeId>(spread.map_1to2.size()) / stride;
  for (NodeId u = 0; u < spread.map_1to2.size(); ++u) {
    if (u % stride != 0 && spread.map_1to2[u] != kInvalidNode) {
      ADD_FAILURE() << "filler node " << u << " was matched";
    }
  }
  for (NodeId u = 0; u < n1; ++u) {
    spread.map_1to2[u] = spread.map_1to2[u * stride];
  }
  spread.map_1to2.resize(n1);
  for (NodeId& u : spread.map_2to1) {
    if (u != kInvalidNode) u /= stride;
  }
  for (auto& [u, v] : spread.seeds) u /= stride;
  return spread;
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_SPREAD_IDS_H_
