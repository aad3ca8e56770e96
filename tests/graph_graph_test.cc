#include "reconcile/graph/graph.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/rng.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {
namespace {

Graph TriangleWithTail() {
  // 0-1, 1-2, 0-2 triangle; 2-3 tail.
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(0, 2);
  edges.Add(2, 3);
  return Graph::FromEdgeList(std::move(edges));
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphTest, BasicCounts) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree_sum(), 8u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(GraphTest, NeighborsSortedAscending) {
  Graph g = TriangleWithTail();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::span<const NodeId> nbrs = g.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
  std::span<const NodeId> n2 = g.Neighbors(2);
  ASSERT_EQ(n2.size(), 3u);
  EXPECT_EQ(n2[0], 0u);
  EXPECT_EQ(n2[1], 1u);
  EXPECT_EQ(n2[2], 3u);
}

TEST(GraphTest, HasEdge) {
  Graph g = TriangleWithTail();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(3, 3));
  EXPECT_FALSE(g.HasEdge(0, 99));  // out of range is just "no edge"
}

TEST(GraphTest, DuplicateAndLoopEdgesCollapse) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 0);
  edges.Add(0, 1);
  edges.Add(1, 1);
  Graph g = Graph::FromEdgeList(std::move(edges));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphTest, IsolatedNodesSupported) {
  EdgeList edges(10);
  edges.Add(0, 1);
  Graph g = Graph::FromEdgeList(std::move(edges));
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.degree(5), 0u);
  EXPECT_TRUE(g.Neighbors(5).empty());
}

TEST(GraphTest, CommonNeighborCount) {
  // 0 and 1 share neighbours {2}; 0 and 3 share {2}.
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.CommonNeighborCount(0, 1), 1u);  // both adjacent to 2
  EXPECT_EQ(g.CommonNeighborCount(0, 3), 1u);  // 2
  EXPECT_EQ(g.CommonNeighborCount(1, 3), 1u);  // 2
  EXPECT_EQ(g.CommonNeighborCount(2, 3), 0u);
}

TEST(GraphTest, CommonNeighborCountLargerCase) {
  // Star centre 0 with leaves 1..5; extra edge 1-2.
  EdgeList edges;
  for (NodeId leaf = 1; leaf <= 5; ++leaf) edges.Add(0, leaf);
  edges.Add(1, 2);
  Graph g = Graph::FromEdgeList(std::move(edges));
  EXPECT_EQ(g.CommonNeighborCount(1, 2), 1u);  // just 0
  EXPECT_EQ(g.CommonNeighborCount(3, 4), 1u);  // 0
  EXPECT_EQ(g.CommonNeighborCount(0, 1), 1u);  // 2
}

TEST(GraphTest, CopyAndMoveSemantics) {
  Graph g = TriangleWithTail();
  Graph copy = g;
  EXPECT_EQ(copy.num_edges(), g.num_edges());
  Graph moved = std::move(copy);
  EXPECT_EQ(moved.num_edges(), g.num_edges());
  EXPECT_TRUE(moved.HasEdge(0, 1));
}

// Edge lists that stress the owner-computes CSR build, where each worker
// slot fills one contiguous node range.
std::vector<EdgeList> BuildInputs() {
  std::vector<EdgeList> inputs;

  // Skewed random edges with self-loops and duplicates; a star hub
  // adjacent to every node below 1900; node 1950, whose neighbours are all
  // smaller (backward only); 1900..1949 and 1951..2036 isolated, including
  // a trailing run of isolated nodes past the last edge.
  Rng rng(321);
  EdgeList mixed(2037);
  for (int i = 0; i < 30000; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(1900));
    NodeId v = static_cast<NodeId>(rng.UniformInt(u % 50 == 0 ? 1900 : 100));
    mixed.Add(u, v);  // self-loops and duplicates included on purpose
  }
  const NodeId hub = 777;
  for (NodeId v = 0; v < 1900; ++v) mixed.Add(hub, v);
  for (NodeId u = 1000; u < 1900; u += 7) mixed.Add(1950, u);
  inputs.push_back(std::move(mixed));

  // A star whose hub is the last node: every edge is backward for it.
  EdgeList star;
  for (NodeId leaf = 0; leaf < 500; ++leaf) star.Add(leaf, 500);
  inputs.push_back(std::move(star));

  // Fewer nodes than ranges, a single edge, no edges, nothing at all.
  EdgeList tiny(3);
  tiny.Add(2, 0);
  inputs.push_back(std::move(tiny));
  EdgeList one;
  one.Add(0, 1);
  inputs.push_back(std::move(one));
  inputs.push_back(EdgeList(6));
  inputs.push_back(EdgeList());
  return inputs;
}

// The build must give the same graph for every pool, including sizes that
// split the nodes into uneven ranges, and that graph must match a set-based
// reference built straight from the raw edges.
TEST(GraphTest, ParallelBuildMatchesSerial) {
  for (const EdgeList& edges : BuildInputs()) {
    std::vector<std::set<NodeId>> reference(edges.num_nodes());
    for (const auto& [u, v] : edges.edges()) {
      if (u == v) continue;
      reference[u].insert(v);
      reference[v].insert(u);
    }
    const Graph serial = Graph::FromEdgeList(edges, nullptr);
    ASSERT_EQ(serial.num_nodes(), edges.num_nodes());
    size_t max_degree = 0;
    for (NodeId v = 0; v < serial.num_nodes(); ++v) {
      const auto nbrs = serial.Neighbors(v);
      ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), reference[v].begin(),
                             reference[v].end()))
          << "Neighbors differ from the reference at node " << v;
      max_degree = std::max(max_degree, reference[v].size());
    }
    EXPECT_EQ(serial.max_degree(), max_degree);

    for (int threads : {2, 3, 4, 5, 8}) {
      ThreadPool pool(threads);
      const Graph parallel = Graph::FromEdgeList(edges, &pool);
      ASSERT_EQ(parallel.num_nodes(), serial.num_nodes());
      ASSERT_EQ(parallel.num_edges(), serial.num_edges());
      EXPECT_EQ(parallel.max_degree(), serial.max_degree());
      for (NodeId v = 0; v < serial.num_nodes(); ++v) {
        ASSERT_EQ(parallel.degree(v), serial.degree(v)) << "node " << v;
        const auto a = serial.Neighbors(v);
        const auto b = parallel.Neighbors(v);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "Neighbors mismatch at node " << v << ", threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace reconcile
