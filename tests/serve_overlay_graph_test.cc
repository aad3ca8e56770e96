// The delta overlay must be indistinguishable from a CSR rebuilt from
// scratch on the final edge set — neighbors (sorted), degrees, edge counts
// — after ANY interleaving of inserts and deletes, including deleting base
// edges, re-inserting deleted edges (the diff must cancel, not double),
// deleting just-inserted edges, node growth past the base range, and
// compaction at every boundary. The serve session matches on the compacted
// overlay, so any divergence here breaks the bit-identity contract
// upstream.
#include "reconcile/serve/overlay_graph.h"

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {
namespace {

Graph MakeBase(const std::vector<std::pair<NodeId, NodeId>>& edges,
               NodeId num_nodes) {
  EdgeList list(num_nodes);
  for (const auto& [u, v] : edges) list.Add(u, v);
  return Graph::FromEdgeList(std::move(list));
}

// Reference model: a canonical (min, max) edge set.
using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> Canon(NodeId u, NodeId v) {
  return {std::min(u, v), std::max(u, v)};
}

// Full structural equivalence check: overlay vs a CSR rebuilt from the
// reference set.
void ExpectEquivalent(const OverlayGraph& overlay, const EdgeSet& reference,
                      NodeId min_nodes) {
  EdgeList list(std::max(min_nodes, overlay.num_nodes()));
  for (const auto& [u, v] : reference) list.Add(u, v);
  const Graph rebuilt = Graph::FromEdgeList(std::move(list));

  ASSERT_EQ(overlay.num_nodes(), rebuilt.num_nodes());
  ASSERT_EQ(overlay.num_edges(), rebuilt.num_edges());
  for (NodeId u = 0; u < rebuilt.num_nodes(); ++u) {
    ASSERT_EQ(overlay.degree(u), rebuilt.degree(u)) << "node " << u;
    std::vector<NodeId> got;
    overlay.ForEachNeighbor(u, [&](NodeId v) { got.push_back(v); });
    const auto want = rebuilt.Neighbors(u);
    ASSERT_EQ(got.size(), want.size()) << "node " << u;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "node " << u;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "node " << u;
    EXPECT_EQ(overlay.Neighbors(u), got);
  }
  // Materialize() must produce the canonical sorted edge list.
  const EdgeList materialized = overlay.Materialize();
  EXPECT_EQ(materialized.edges().size(), reference.size());
  EdgeSet from_overlay;
  for (const auto& [u, v] : materialized.edges()) {
    from_overlay.insert(Canon(u, v));
  }
  EXPECT_EQ(from_overlay, reference);
}

TEST(OverlayGraphTest, BasicInsertDeleteAndHasEdge) {
  OverlayGraph overlay(MakeBase({{0, 1}, {1, 2}}, 4));
  EXPECT_TRUE(overlay.HasEdge(0, 1));
  EXPECT_TRUE(overlay.HasEdge(1, 0));
  EXPECT_FALSE(overlay.HasEdge(0, 2));
  EXPECT_FALSE(overlay.HasEdge(0, 0));

  // Duplicate insert and absent delete are no-ops.
  EXPECT_FALSE(overlay.InsertEdge(0, 1));
  EXPECT_FALSE(overlay.DeleteEdge(0, 3));
  // Self loops are rejected.
  EXPECT_FALSE(overlay.InsertEdge(2, 2));

  EXPECT_TRUE(overlay.InsertEdge(0, 2));
  EXPECT_TRUE(overlay.HasEdge(2, 0));
  EXPECT_TRUE(overlay.DeleteEdge(1, 2));
  EXPECT_FALSE(overlay.HasEdge(1, 2));
  EXPECT_EQ(overlay.num_edges(), 2u);
  EXPECT_EQ(overlay.degree(1), 1u);
  EXPECT_EQ(overlay.degree(2), 1u);
}

TEST(OverlayGraphTest, ReinsertingDeletedBaseEdgeCancelsTheDiff) {
  OverlayGraph overlay(MakeBase({{0, 1}, {1, 2}, {2, 3}}, 4));
  EXPECT_TRUE(overlay.DeleteEdge(1, 2));
  EXPECT_GT(overlay.num_uncompacted(), 0u);
  // Re-inserting a base edge must cancel the removal diff, not create an
  // added-side duplicate of a base-side edge.
  EXPECT_TRUE(overlay.InsertEdge(2, 1));
  EXPECT_EQ(overlay.num_uncompacted(), 0u);
  EXPECT_TRUE(overlay.HasEdge(1, 2));
  EXPECT_EQ(overlay.num_edges(), 3u);
  std::vector<NodeId> got;
  overlay.ForEachNeighbor(1, [&](NodeId v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<NodeId>{0, 2}));

  // Deleting a just-inserted (non-base) edge likewise cancels.
  EXPECT_TRUE(overlay.InsertEdge(0, 3));
  EXPECT_TRUE(overlay.DeleteEdge(0, 3));
  EXPECT_EQ(overlay.num_uncompacted(), 0u);
  EXPECT_FALSE(overlay.HasEdge(0, 3));
}

TEST(OverlayGraphTest, NodeGrowthBeyondBaseRange) {
  OverlayGraph overlay(MakeBase({{0, 1}}, 2));
  EXPECT_FALSE(overlay.HasEdge(0, 7));  // out of range, not a crash
  EXPECT_TRUE(overlay.InsertEdge(1, 7));
  EXPECT_EQ(overlay.num_nodes(), 8u);
  EXPECT_EQ(overlay.degree(7), 1u);
  EXPECT_EQ(overlay.degree(5), 0u);
  EXPECT_TRUE(overlay.HasEdge(7, 1));

  EdgeSet reference{{0, 1}, {1, 7}};
  ExpectEquivalent(overlay, reference, 8);
}

TEST(OverlayGraphTest, RandomOpsMatchRebuiltCsrWithCompactionEverywhere) {
  std::mt19937 rng(98765);
  // compact_period == 0: never compact mid-run; otherwise compact every
  // N ops — together the boundaries cover "all diffs", "no diffs", and
  // every mixed state.
  for (const int compact_period : {0, 1, 3, 7}) {
    const NodeId base_nodes = 24;
    std::vector<std::pair<NodeId, NodeId>> base_edges;
    EdgeSet reference;
    for (int i = 0; i < 60; ++i) {
      const NodeId u = rng() % base_nodes;
      const NodeId v = rng() % base_nodes;
      if (u == v) continue;
      if (reference.insert(Canon(u, v)).second) {
        base_edges.push_back(Canon(u, v));
      }
    }
    OverlayGraph overlay(MakeBase(base_edges, base_nodes));
    ThreadPool pool(2);

    NodeId max_node = base_nodes;
    for (int op = 0; op < 400; ++op) {
      // Bias node choice so deletes often hit existing edges and inserts
      // often re-create recently deleted ones; occasionally grow the range.
      const NodeId span = (rng() % 16 == 0) ? max_node + 4 : max_node;
      const NodeId u = rng() % span;
      const NodeId v = rng() % span;
      if (rng() % 2 == 0) {
        const bool changed = overlay.InsertEdge(u, v);
        const bool expect_changed =
            u != v && reference.insert(Canon(u, v)).second;
        ASSERT_EQ(changed, expect_changed) << "insert " << u << "," << v;
      } else {
        const bool changed = overlay.DeleteEdge(u, v);
        const bool expect_changed =
            u != v && reference.erase(Canon(u, v)) > 0;
        ASSERT_EQ(changed, expect_changed) << "delete " << u << "," << v;
      }
      max_node = std::max(max_node, overlay.num_nodes());
      if (compact_period > 0 && op % compact_period == 0) {
        overlay.Compact(op % 2 == 0 ? &pool : nullptr);
        ASSERT_EQ(overlay.num_uncompacted(), 0u);
      }
      if (op % 25 == 0) {
        ExpectEquivalent(overlay, reference, max_node);
      }
    }
    ExpectEquivalent(overlay, reference, max_node);
    overlay.Compact(&pool);
    ExpectEquivalent(overlay, reference, max_node);
  }
}

TEST(OverlayGraphTest, CompactOnCleanOverlayIsANoOp) {
  OverlayGraph overlay(MakeBase({{0, 1}, {1, 2}}, 3));
  const size_t edges_before = overlay.num_edges();
  overlay.Compact(nullptr);
  EXPECT_EQ(overlay.num_edges(), edges_before);
  EXPECT_EQ(overlay.num_uncompacted(), 0u);
  EXPECT_TRUE(overlay.HasEdge(0, 1));
}

}  // namespace
}  // namespace reconcile
