#include "reconcile/graph/edge_list.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/radix_sort.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {
namespace {

TEST(EdgeListTest, StartsEmpty) {
  EdgeList edges;
  EXPECT_TRUE(edges.empty());
  EXPECT_EQ(edges.size(), 0u);
  EXPECT_EQ(edges.num_nodes(), 0u);
}

TEST(EdgeListTest, AddGrowsNodeRange) {
  EdgeList edges;
  edges.Add(3, 7);
  EXPECT_EQ(edges.num_nodes(), 8u);
  edges.Add(10, 2);
  EXPECT_EQ(edges.num_nodes(), 11u);
  EXPECT_EQ(edges.size(), 2u);
}

TEST(EdgeListTest, ExplicitNodeCountPreserved) {
  EdgeList edges(100);
  edges.Add(1, 2);
  EXPECT_EQ(edges.num_nodes(), 100u);
}

TEST(EdgeListTest, EnsureNumNodesNeverShrinks) {
  EdgeList edges(50);
  edges.EnsureNumNodes(10);
  EXPECT_EQ(edges.num_nodes(), 50u);
  edges.EnsureNumNodes(60);
  EXPECT_EQ(edges.num_nodes(), 60u);
}

TEST(EdgeListTest, NormalizeCanonicalizesEndpoints) {
  EdgeList edges;
  edges.Add(5, 2);
  edges.Normalize();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges.edges()[0], Edge(2, 5));
}

TEST(EdgeListTest, NormalizeRemovesDuplicates) {
  EdgeList edges;
  edges.Add(1, 2);
  edges.Add(2, 1);  // same undirected edge
  edges.Add(1, 2);
  edges.Normalize();
  EXPECT_EQ(edges.size(), 1u);
}

TEST(EdgeListTest, NormalizeRemovesSelfLoops) {
  EdgeList edges;
  edges.Add(4, 4);
  edges.Add(1, 2);
  edges.Add(9, 9);
  edges.Normalize();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges.edges()[0], Edge(1, 2));
}

TEST(EdgeListTest, NormalizeSortsEdges) {
  EdgeList edges;
  edges.Add(9, 3);
  edges.Add(0, 1);
  edges.Add(5, 2);
  edges.Normalize();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges.edges()[0], Edge(0, 1));
  EXPECT_EQ(edges.edges()[1], Edge(2, 5));
  EXPECT_EQ(edges.edges()[2], Edge(3, 9));
}

TEST(EdgeListTest, NormalizeIsIdempotent) {
  EdgeList edges;
  edges.Add(3, 1);
  edges.Add(1, 3);
  edges.Add(2, 2);
  edges.Normalize();
  std::vector<Edge> once = edges.edges();
  edges.Normalize();
  EXPECT_EQ(edges.edges(), once);
}

TEST(EdgeListTest, NormalizeOnEmptyListIsNoOp) {
  EdgeList edges;
  edges.Normalize();
  EXPECT_TRUE(edges.empty());
}

// --- Normalize against a reference written from the definition ---

// The normalized form: canonical (min, max) pairs, no self-loops, sorted,
// no duplicates.
std::vector<Edge> ReferenceNormalize(std::vector<Edge> edges) {
  for (Edge& e : edges) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::erase_if(edges, [](const Edge& e) { return e.first == e.second; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// Normalizes copies of `edges` with no pool and on pools of 1 to 7 threads;
// each must equal the reference, keep the node count, and be left as it is
// by a second Normalize.
void ExpectNormalizesLikeReference(const EdgeList& edges,
                                   const std::string& what) {
  const std::vector<Edge> expected = ReferenceNormalize(edges.edges());
  for (int threads = 0; threads <= 7; ++threads) {
    ThreadPool* pool = threads == 0 ? nullptr : &ThreadPool::Shared(threads);
    EdgeList copy = edges;
    copy.Normalize(pool);
    ASSERT_EQ(copy.edges(), expected) << what << ", threads " << threads;
    EXPECT_EQ(copy.num_nodes(), edges.num_nodes()) << what;
    copy.Normalize(pool);
    ASSERT_EQ(copy.edges(), expected) << what << ", again, threads "
                                      << threads;
  }
}

// Random multigraph on `num_nodes` ids: duplicates in both orientations and
// about 5% self-loops.
EdgeList MakeMessyEdges(size_t n, NodeId num_nodes, uint64_t seed) {
  Rng rng(seed);
  EdgeList edges(num_nodes);
  edges.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(num_nodes));
    NodeId v = rng.Bernoulli(0.05)
                   ? u
                   : static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (rng.Bernoulli(0.5)) std::swap(u, v);
    edges.Add(u, v);
  }
  return edges;
}

EdgeList FromEdges(NodeId num_nodes, const std::vector<Edge>& list) {
  EdgeList edges(num_nodes);
  for (const auto& [u, v] : list) edges.Add(u, v);
  return edges;
}

TEST(EdgeListNormalizeReferenceTest, RandomLists) {
  // Sizes around the radix sort's cutoff and far above it.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{100},
                   kRadixSortCutoff - 1, kRadixSortCutoff,
                   kRadixSortCutoff + 1, size_t{5000}, size_t{100000}}) {
    ExpectNormalizesLikeReference(MakeMessyEdges(n, 2000, 31 + n),
                                  "n=" + std::to_string(n));
  }
}

TEST(EdgeListNormalizeReferenceTest, HeavyRepeats) {
  // About 20 distinct edges and 4 distinct self-loops, each repeated
  // thousands of times: equal runs span every block.
  Rng rng(4242);
  EdgeList edges(64);
  for (size_t i = 0; i < 120000; ++i) {
    if (rng.Bernoulli(0.1)) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(4));
      edges.Add(u, u);
    } else {
      NodeId u = static_cast<NodeId>(rng.UniformInt(5));
      NodeId v = static_cast<NodeId>(5 + rng.UniformInt(4));
      if (rng.Bernoulli(0.5)) std::swap(u, v);
      edges.Add(u, v);
    }
  }
  ExpectNormalizesLikeReference(edges, "heavy repeats");
}

TEST(EdgeListNormalizeReferenceTest, AlreadyNormalizedLists) {
  for (size_t n : {size_t{1}, size_t{7}, size_t{300}, size_t{60000}}) {
    const EdgeList messy = MakeMessyEdges(n, 5000, 7 + n);
    const EdgeList normalized =
        FromEdges(messy.num_nodes(), ReferenceNormalize(messy.edges()));
    ExpectNormalizesLikeReference(normalized,
                                  "normalized, n=" + std::to_string(n));
  }
}

// A normalized list with one defect at a block boundary of a `threads`
// pool: the check runs one block per worker slot, and reads the boundary
// pairs only after its pass. A duplicate or descent across a boundary is
// invisible inside both blocks; a flipped pair must come out canonical; a
// self-loop must go.
TEST(EdgeListNormalizeReferenceTest, DefectAtEachBlockBoundary) {
  const EdgeList messy = MakeMessyEdges(1500, 400, 99);
  const std::vector<Edge> base = ReferenceNormalize(messy.edges());
  const size_t n = base.size();
  ASSERT_GE(n, 1000u);
  for (int threads = 1; threads <= 7; ++threads) {
    const size_t blocks = static_cast<size_t>(threads);
    for (size_t b = 1; b < blocks; ++b) {
      const size_t at = n * b / blocks;  // first pair of block b
      std::vector<std::pair<std::string, std::vector<Edge>>> cases;
      auto with = [&](const std::string& name, auto&& mutate) {
        std::vector<Edge> list = base;
        mutate(list);
        cases.emplace_back(name, std::move(list));
      };
      with("duplicate", [&](std::vector<Edge>& l) { l[at] = l[at - 1]; });
      with("flipped duplicate", [&](std::vector<Edge>& l) {
        l[at] = {l[at - 1].second, l[at - 1].first};
      });
      with("descent", [&](std::vector<Edge>& l) {
        std::swap(l[at - 1], l[at]);
      });
      for (size_t i : {at - 1, at}) {
        const std::string side = i == at ? " after" : " before";
        with("flipped" + side, [&](std::vector<Edge>& l) {
          std::swap(l[i].first, l[i].second);
        });
        with("self-loop" + side, [&](std::vector<Edge>& l) {
          l[i].second = l[i].first;
        });
      }
      for (const auto& [name, list] : cases) {
        EdgeList edges = FromEdges(messy.num_nodes(), list);
        edges.Normalize(&ThreadPool::Shared(threads));
        ASSERT_EQ(edges.edges(), ReferenceNormalize(list))
            << name << " at boundary " << b << " of " << threads
            << " blocks";
      }
    }
  }
}

TEST(EdgeListNormalizeReferenceTest, IdBitWidths) {
  // Ids of 1, 21 and 32 bits, the last up to 2^32 - 2: Normalize allocates
  // per edge, never per node, so a 2^32 - 1 node range costs nothing.
  for (int bits : {1, 21, 32}) {
    const uint64_t bound =
        bits == 32 ? uint64_t{kInvalidNode} : uint64_t{1} << bits;
    Rng rng(static_cast<uint64_t>(bits));
    EdgeList edges;
    for (int i = 0; i < 40000; ++i) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(bound));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(bound));
      edges.Add(u, rng.Bernoulli(0.02) ? u : v);
    }
    const NodeId top = static_cast<NodeId>(bound - 1);
    edges.Add(top, 0);
    edges.Add(top, top);
    edges.Add(0, top);
    const std::string what = std::to_string(bits) + "-bit ids";
    ExpectNormalizesLikeReference(edges, what);
    ExpectNormalizesLikeReference(
        FromEdges(edges.num_nodes(), ReferenceNormalize(edges.edges())),
        "normalized " + what);
  }
}

TEST(EdgeListNormalizeReferenceTest, AutoPathCrossesThreshold) {
  // Above the threshold Normalize() may use the shared pool.
  EdgeList edges = MakeMessyEdges(kParallelEdgeThreshold + 1000, 2000, 123);
  const std::vector<Edge> expected = ReferenceNormalize(edges.edges());
  edges.Normalize();
  EXPECT_EQ(edges.edges(), expected);
}

}  // namespace
}  // namespace reconcile
