// `IncrementalMatcher::ApplyBatch` nets each batch against the session's
// CSR and rebuilds every changed side by one sorted merge. After any batch
// the session's graphs must equal a CSR rebuilt from a test-side edge set
// that applies the batch by the documented rule, not by the session's code:
// records apply in order (self-loops dropped), and the node range grows to
// the largest endpoint of an edge present after the batch but not before
// it. So an insert the same batch deletes again grows nothing, and the
// range never shrinks. The served matching rests on these graphs
// (serve_incremental_differential_test checks it against a batch run).
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/rng.h"
#include "process_threads.h"

namespace reconcile {
namespace {

Edge Canon(NodeId u, NodeId v) { return {std::min(u, v), std::max(u, v)}; }

// The test's copy of one side.
struct SideModel {
  std::set<Edge> edges;  // (smaller, larger) id
  NodeId num_nodes = 0;

  // Applies the batch's records for `graph`; returns how many edges
  // changed presence.
  size_t Apply(const std::vector<EdgeDelta>& batch, int graph) {
    const std::set<Edge> before = edges;
    for (const EdgeDelta& d : batch) {
      if (d.graph != graph || d.u == d.v) continue;
      if (d.insert) {
        edges.insert(Canon(d.u, d.v));
      } else {
        edges.erase(Canon(d.u, d.v));
      }
    }
    size_t changed = 0;
    for (const Edge& e : edges) {
      if (before.count(e) != 0) continue;
      ++changed;
      num_nodes = std::max(num_nodes, e.second + 1);
    }
    for (const Edge& e : before) changed += edges.count(e) == 0;
    return changed;
  }

  Graph Build() const {
    EdgeList list(num_nodes);
    for (const auto& [u, v] : edges) list.Add(u, v);
    return Graph::FromEdgeList(std::move(list), nullptr);
  }
};

// The session's side equals the CSR rebuilt from the model: node and edge
// counts, every neighbour list, `HasEdge` past the end, and the
// materialized (u < v) list in ascending order.
void ExpectSideEquals(const OverlayGraph& side, const SideModel& model) {
  const Graph want = model.Build();
  const Graph& got = side.graph();
  ASSERT_EQ(side.num_nodes(), want.num_nodes());
  ASSERT_EQ(side.num_edges(), want.num_edges());
  ASSERT_EQ(got.max_degree(), want.max_degree());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    ASSERT_EQ(side.degree(u), want.degree(u)) << "node " << u;
    const auto neighbors = want.Neighbors(u);
    ASSERT_EQ(side.Neighbors(u),
              std::vector<NodeId>(neighbors.begin(), neighbors.end()))
        << "node " << u;
  }
  EXPECT_FALSE(side.HasEdge(0, want.num_nodes()));
  EXPECT_FALSE(side.HasEdge(want.num_nodes(), 0));
  const EdgeList materialized = side.Materialize();
  EXPECT_EQ(materialized.num_nodes(), want.num_nodes());
  EXPECT_EQ(materialized.edges(),
            std::vector<Edge>(model.edges.begin(), model.edges.end()));
}

SideModel RandomSide(NodeId num_nodes, size_t num_edges, Rng& rng) {
  SideModel model;
  model.num_nodes = num_nodes;
  while (model.edges.size() < num_edges) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (u != v) model.edges.insert(Canon(u, v));
  }
  return model;
}

// One batch of `size` draws over both sides: deletes of present edges,
// inserts of absent ones, repeats of an earlier record, self-loops,
// deletes of absent edges (ids past the end included), an insert and a
// delete of one edge (inside the range or past it), a delete and a
// re-insert of a present edge, re-inserts of edges deleted in earlier
// batches, and growth past the range.
std::vector<EdgeDelta> DrawBatch(Rng& rng, const SideModel (&sides)[2],
                                 std::vector<Edge> (&deleted)[2], int size) {
  std::vector<EdgeDelta> batch;
  for (int i = 0; i < size; ++i) {
    const int graph = 1 + static_cast<int>(rng.UniformInt(2));
    const SideModel& side = sides[graph - 1];
    const NodeId n = side.num_nodes;
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId past = n + static_cast<NodeId>(rng.UniformInt(4));
    auto push = [&](bool insert, NodeId a, NodeId b) {
      batch.push_back(EdgeDelta{graph, insert, a, b});
    };
    auto present = [&]() {
      auto it = side.edges.begin();
      std::advance(it, rng.UniformInt(side.edges.size()));
      return *it;
    };
    switch (rng.UniformInt(9)) {
      case 0: {  // delete a present edge
        if (side.edges.empty()) break;
        const Edge e = present();
        deleted[graph - 1].push_back(e);
        push(false, e.second, e.first);
        break;
      }
      case 1:  // insert an edge inside the range, mostly absent
        push(true, u, static_cast<NodeId>(rng.UniformInt(n)));
        break;
      case 2:  // repeat an earlier record
        if (!batch.empty()) {
          batch.push_back(batch[rng.UniformInt(batch.size())]);
        }
        break;
      case 3: {  // a self-loop, inside the range or past it
        const NodeId w = rng.Bernoulli(0.5) ? u : past;
        push(rng.Bernoulli(0.5), w, w);
        break;
      }
      case 4:  // delete an absent edge with one or both ids past the end
        push(false, rng.Bernoulli(0.5) ? u : past + 1, past);
        break;
      case 5: {  // insert and delete one edge: it ends absent, no growth
        const NodeId v =
            rng.Bernoulli(0.5) ? past : static_cast<NodeId>(rng.UniformInt(n));
        push(true, u, v);
        if (rng.Bernoulli(0.3)) push(true, v, u);
        push(false, v, u);
        break;
      }
      case 6: {  // delete a present edge and re-insert it
        if (side.edges.empty()) break;
        const Edge e = present();
        push(false, e.first, e.second);
        push(true, e.second, e.first);
        break;
      }
      case 7:  // re-insert an edge deleted in an earlier batch
        if (!deleted[graph - 1].empty()) {
          const auto& list = deleted[graph - 1];
          const Edge e = list[rng.UniformInt(list.size())];
          push(true, e.first, e.second);
        }
        break;
      case 8:  // grow the range
        push(true, u, past);
        break;
    }
  }
  return batch;
}

ServeConfig Config(int threads) {
  ServeConfig config;
  config.matcher.num_threads = threads;
  return config;
}

// Random streams against the model, on small graphs and on lists of more
// than 2^15 edges, under one and several threads.
TEST(ServeBatchApplyTest, RandomBatchesMatchTheEdgeSetModel) {
  struct Shape {
    NodeId nodes;
    size_t edges;
    int batches;
    int batch_size;
  };
  for (const Shape shape : {Shape{12, 20, 60, 6}, Shape{40, 120, 40, 24},
                            Shape{6000, 40000, 6, 400}}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE("nodes " + std::to_string(shape.nodes) + ", threads " +
                   std::to_string(threads));
      Rng rng(shape.nodes * 31 + threads);
      SideModel sides[2] = {RandomSide(shape.nodes, shape.edges, rng),
                            RandomSide(shape.nodes - 2, shape.edges, rng)};
      const std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
      IncrementalMatcher session(sides[0].Build(), sides[1].Build(), seeds,
                                 Config(threads));
      session.ApplyBatch({});
      std::vector<Edge> deleted[2];
      size_t grown = 0, unchanged = 0;
      for (int b = 0; b < shape.batches; ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        const std::vector<EdgeDelta> batch =
            DrawBatch(rng, sides, deleted, shape.batch_size);
        const NodeId nodes_before = sides[0].num_nodes + sides[1].num_nodes;
        const size_t applied = sides[0].Apply(batch, 1) +
                               sides[1].Apply(batch, 2);
        grown += sides[0].num_nodes + sides[1].num_nodes > nodes_before;
        unchanged += applied == 0;
        const ServeBatchStats stats = session.ApplyBatch(batch);
        ASSERT_EQ(stats.deltas_in, batch.size());
        ASSERT_EQ(stats.deltas_applied, applied);
        ASSERT_EQ(stats.replayed_rounds == 0, applied == 0);
        ASSERT_NO_FATAL_FAILURE(ExpectSideEquals(session.g1(), sides[0]));
        ASSERT_NO_FATAL_FAILURE(ExpectSideEquals(session.g2(), sides[1]));
        ASSERT_EQ(session.map_1to2().size(), sides[0].num_nodes);
        ASSERT_EQ(session.map_2to1().size(), sides[1].num_nodes);
      }
      EXPECT_GT(grown, 0u);
      if (shape.batch_size < 10) {
        EXPECT_GT(unchanged, 0u);
      }
    }
  }
}

TEST(ServeBatchApplyTest, GrowthPastTheRangeAndANettedOutInsertThere) {
  SideModel sides[2];
  sides[0].num_nodes = 4;
  sides[0].edges = {{0, 1}, {1, 2}};
  sides[1].num_nodes = 3;
  sides[1].edges = {{0, 2}};
  IncrementalMatcher session(sides[0].Build(), sides[1].Build(), {}, Config(2));
  session.ApplyBatch({});

  // Graph 1: an insert at 9 that the batch deletes again grows nothing;
  // the insert at 7 grows the range to 8. Graph 2: a delete past the end
  // and a self-loop past the end change nothing.
  const std::vector<EdgeDelta> batch = {
      {1, true, 1, 9}, {1, true, 7, 1}, {1, false, 9, 1},
      {2, false, 0, 5}, {2, true, 6, 6}};
  EXPECT_EQ(sides[0].Apply(batch, 1) + sides[1].Apply(batch, 2), 1u);
  const ServeBatchStats stats = session.ApplyBatch(batch);
  EXPECT_EQ(stats.deltas_applied, 1u);
  EXPECT_EQ(session.g1().num_nodes(), 8u);
  EXPECT_EQ(session.g2().num_nodes(), 3u);
  EXPECT_EQ(session.g1().degree(7), 1u);
  EXPECT_EQ(session.g1().degree(5), 0u);
  EXPECT_TRUE(session.g1().HasEdge(7, 1));
  EXPECT_FALSE(session.g1().HasEdge(1, 9));
  EXPECT_EQ(session.map_1to2().size(), 8u);
  ExpectSideEquals(session.g1(), sides[0]);
  ExpectSideEquals(session.g2(), sides[1]);

  // Deleting the new edge keeps the range: it never shrinks.
  const std::vector<EdgeDelta> undo = {{1, false, 1, 7}};
  sides[0].Apply(undo, 1);
  session.ApplyBatch(undo);
  EXPECT_EQ(session.g1().num_nodes(), 8u);
  ExpectSideEquals(session.g1(), sides[0]);
}

TEST(ServeBatchApplyTest, ReinsertOfADeletedEdge) {
  SideModel sides[2];
  sides[0].num_nodes = sides[1].num_nodes = 4;
  sides[0].edges = sides[1].edges = {{0, 1}, {1, 2}, {2, 3}};
  IncrementalMatcher session(sides[0].Build(), sides[1].Build(), {}, Config(1));
  session.ApplyBatch({});

  const std::vector<EdgeDelta> remove = {{1, false, 2, 1}};
  EXPECT_EQ(session.ApplyBatch(remove).deltas_applied, 1u);
  EXPECT_FALSE(session.g1().HasEdge(1, 2));
  EXPECT_EQ(session.g1().num_edges(), 2u);

  // Re-inserted in a later batch, the edge is back once, not twice.
  const std::vector<EdgeDelta> reinsert = {{1, true, 1, 2}, {1, true, 2, 1}};
  EXPECT_EQ(session.ApplyBatch(reinsert).deltas_applied, 1u);
  ExpectSideEquals(session.g1(), sides[0]);
  EXPECT_EQ(session.g1().Neighbors(1), (std::vector<NodeId>{0, 2}));
}

TEST(ServeBatchApplyTest, ABatchThatChangesNothing) {
  SideModel sides[2];
  sides[0].num_nodes = sides[1].num_nodes = 5;
  sides[0].edges = sides[1].edges = {{0, 1}, {1, 2}, {3, 4}};
  const std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  IncrementalMatcher session(sides[0].Build(), sides[1].Build(), seeds,
                             Config(1));
  session.ApplyBatch({});

  // A present edge inserted, an absent one deleted, a present one deleted
  // and re-inserted, an absent one inserted and deleted past the end, and
  // self-loops.
  const std::vector<EdgeDelta> batch = {
      {1, true, 1, 0},  {2, false, 0, 4}, {1, false, 3, 4}, {1, true, 4, 3},
      {2, true, 2, 11}, {2, false, 11, 2}, {1, true, 2, 2}, {2, false, 9, 9}};
  const ServeBatchStats stats = session.ApplyBatch(batch);
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.replayed_rounds, 0);
  EXPECT_EQ(stats.links_added + stats.links_removed, 0u);
  ExpectSideEquals(session.g1(), sides[0]);
  ExpectSideEquals(session.g2(), sides[1]);
}

// A session rebuilds its graphs and reruns the matcher on the process's
// pool of its thread count: a second session and its first batch start no
// thread.
TEST(ServeBatchApplyTest, ASecondSessionStartsNoThreads) {
  Rng rng(5);
  const SideModel side = RandomSide(60, 150, rng);
  const std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}, {1, 1}};
  IncrementalMatcher first(side.Build(), side.Build(), seeds, Config(3));
  first.ApplyBatch({});
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  IncrementalMatcher second(side.Build(), side.Build(), seeds, Config(3));
  second.ApplyBatch({});
  EXPECT_EQ(ProcessThreads(), before);
}

}  // namespace
}  // namespace reconcile
