#include "reconcile/graph/graph.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
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

// The CSR a graph must have, built per node straight from the raw edges:
// each node's distinct neighbours other than itself, ascending, with the
// offsets their prefix sums.
struct ReferenceCsr {
  std::vector<size_t> offsets{0};
  std::vector<NodeId> adjacency;
  NodeId max_degree = 0;
};

ReferenceCsr BuildReference(const EdgeList& edges) {
  std::vector<std::vector<NodeId>> neighbours(edges.num_nodes());
  for (const auto& [u, v] : edges.edges()) {
    if (u == v) continue;
    neighbours[u].push_back(v);
    neighbours[v].push_back(u);
  }
  ReferenceCsr csr;
  for (std::vector<NodeId>& list : neighbours) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    csr.adjacency.insert(csr.adjacency.end(), list.begin(), list.end());
    csr.offsets.push_back(csr.adjacency.size());
    csr.max_degree = std::max(csr.max_degree, static_cast<NodeId>(list.size()));
  }
  return csr;
}

// `g`'s offsets, read back through its neighbour spans, and its adjacency.
void ExpectSameCsr(const Graph& g, const ReferenceCsr& reference,
                   const std::string& what) {
  ASSERT_EQ(g.num_nodes() + size_t{1}, reference.offsets.size()) << what;
  ASSERT_EQ(g.degree_sum(), reference.adjacency.size()) << what;
  EXPECT_EQ(g.max_degree(), reference.max_degree) << what;
  if (g.num_nodes() == 0) return;
  const NodeId* base = g.Neighbors(0).data();
  std::vector<size_t> offsets{0};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const NodeId> nbrs = g.Neighbors(v);
    ASSERT_EQ(static_cast<size_t>(nbrs.data() - base), offsets.back())
        << what << ": slices are not contiguous at node " << v;
    offsets.push_back(offsets.back() + nbrs.size());
  }
  EXPECT_EQ(offsets, reference.offsets) << what;
  const std::span<const NodeId> adjacency(base, g.degree_sum());
  EXPECT_TRUE(std::equal(adjacency.begin(), adjacency.end(),
                         reference.adjacency.begin(),
                         reference.adjacency.end()))
      << what << ": adjacency differs";
}

// A generated graph's edges made messy: every edge in a random orientation,
// a tenth of them twice, a self-loop per hundred edges, in shuffled order,
// and 37 isolated nodes past the last id.
EdgeList MessyCopy(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> list;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u >= v) continue;
      list.emplace_back(u, v);
      if (rng.Bernoulli(0.1)) list.emplace_back(v, u);
      if (rng.Bernoulli(0.01)) list.emplace_back(u, u);
    }
  }
  for (Edge& e : list) {
    if (rng.Bernoulli(0.5)) std::swap(e.first, e.second);
  }
  for (size_t i = list.size(); i > 1; --i) {
    std::swap(list[i - 1], list[rng.UniformInt(i)]);
  }
  EdgeList edges(g.num_nodes() + 37);
  for (const auto& [u, v] : list) edges.Add(u, v);
  return edges;
}

// Edge lists that stress normalization and the owner-computes CSR build,
// where each worker slot fills one contiguous node range.
std::vector<std::pair<std::string, EdgeList>> BuildInputs() {
  std::vector<std::pair<std::string, EdgeList>> inputs;

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
  inputs.emplace_back("mixed", std::move(mixed));

  // A star whose hub is the last node: every edge is backward for it.
  EdgeList star;
  for (NodeId leaf = 0; leaf < 500; ++leaf) star.Add(leaf, 500);
  inputs.emplace_back("star", std::move(star));

  // Fewer nodes than ranges, a single edge, no edges, nothing at all.
  EdgeList tiny(3);
  tiny.Add(2, 0);
  inputs.emplace_back("tiny", std::move(tiny));
  EdgeList one;
  one.Add(0, 1);
  inputs.emplace_back("one edge", std::move(one));
  inputs.emplace_back("no edges", EdgeList(6));
  inputs.emplace_back("empty", EdgeList());

  // Erdős–Rényi, Chung–Lu and preferential-attachment graphs, above the
  // shared-pool threshold: messy, and as the writers emit them (sorted).
  const std::vector<std::pair<std::string, Graph>> models = {
      {"er", GenerateErdosRenyi(8000, 0.0015, 5)},
      {"chung-lu", GenerateChungLu(PowerLawWeights(8000, 2.3, 16.0), 6)},
      {"pa", GeneratePreferentialAttachment(8000, 5, 7)}};
  for (const auto& [name, g] : models) {
    EdgeList messy = MessyCopy(g, 11);
    EdgeList sorted(messy.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.Neighbors(u)) {
        if (u < v) sorted.Add(u, v);
      }
    }
    EXPECT_GT(sorted.size(), kParallelEdgeThreshold) << name;
    inputs.emplace_back(name + " messy", std::move(messy));
    inputs.emplace_back(name + " sorted", std::move(sorted));
  }
  return inputs;
}

// Every build form (the shared-pool default, no pool, and pools that split
// the nodes into uneven ranges) must give the offsets, adjacency and
// maximum degree of the per-node reference.
TEST(GraphTest, BuildMatchesPerNodeReference) {
  for (const auto& [name, edges] : BuildInputs()) {
    const ReferenceCsr reference = BuildReference(edges);
    ExpectSameCsr(Graph::FromEdgeList(edges), reference, name + ", default");
    ExpectSameCsr(Graph::FromEdgeList(edges, nullptr), reference,
                  name + ", no pool");
    for (int threads : {1, 2, 3, 4, 5, 7, 8}) {
      ThreadPool pool(threads);
      ExpectSameCsr(Graph::FromEdgeList(edges, &pool), reference,
                    name + ", threads " + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace reconcile
