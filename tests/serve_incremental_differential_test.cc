// THE serve correctness contract: after ANY sequence of delta batches the
// serve session's maps are bit-identical to a from-scratch 1-thread batch
// run (`UserMatching`) on the final graphs — across serve's thread count,
// through deletes, re-inserted edges, node growth, empty batches, a
// graceful stop mid-batch, and a snapshot round-trip mid-stream under
// another thread count.
// Every grid cell re-verifies after EVERY batch, so a divergence pins the
// batch that introduced it.
#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/shutdown.h"

namespace reconcile {
namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> Canon(NodeId u, NodeId v) {
  return {std::min(u, v), std::max(u, v)};
}

EdgeSet ToEdgeSet(const Graph& g) {
  EdgeSet out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) out.insert({u, v});
    }
  }
  return out;
}

Graph FromEdgeSet(const EdgeSet& edges, NodeId num_nodes) {
  EdgeList list(num_nodes);
  for (const auto& [u, v] : edges) list.Add(u, v);
  return Graph::FromEdgeList(std::move(list));
}

// Mirror of the side the matcher mutates, used to build the reference
// graphs for the from-scratch run.
struct SideModel {
  EdgeSet edges;
  NodeId num_nodes = 0;

  // Sequential application with the overlay's growth rule: only an
  // *effective* insert can extend the node range.
  void Apply(const EdgeDelta& d) {
    if (d.u == d.v) return;
    const auto key = Canon(d.u, d.v);
    if (d.insert) {
      if (edges.insert(key).second) {
        num_nodes = std::max({num_nodes, d.u + 1, d.v + 1});
      }
    } else {
      edges.erase(key);
    }
  }
};

struct GridCase {
  const char* name;
  int threads;
};

std::string CaseName(const testing::TestParamInfo<GridCase>& info) {
  return info.param.name;
}

// Deterministic delta script: several batches of deletes of present edges
// (graph 1 and 2), fresh inserts, re-inserts of previously deleted edges,
// node growth past the initial range, and one empty batch. Derived from the
// current models so deletes always hit real edges.
std::vector<std::vector<EdgeDelta>> MakeDeltaScript(SideModel model1,
                                                    SideModel model2,
                                                    uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<EdgeDelta>> script;
  std::vector<std::pair<NodeId, NodeId>> deleted1, deleted2;
  for (int b = 0; b < 6; ++b) {
    std::vector<EdgeDelta> batch;
    auto push = [&](int graph, bool insert, NodeId u, NodeId v) {
      EdgeDelta d;
      d.graph = graph;
      d.insert = insert;
      d.u = u;
      d.v = v;
      batch.push_back(d);
      (graph == 1 ? model1 : model2).Apply(d);
    };
    if (b == 3) {
      script.push_back(batch);  // empty batch: must be a strict no-op
      continue;
    }
    for (int g = 1; g <= 2; ++g) {
      SideModel& model = g == 1 ? model1 : model2;
      auto& deleted = g == 1 ? deleted1 : deleted2;
      // Delete ~8 present edges.
      std::vector<std::pair<NodeId, NodeId>> present(model.edges.begin(),
                                                     model.edges.end());
      for (int i = 0; i < 8 && !present.empty(); ++i) {
        const auto edge = present[rng() % present.size()];
        if (model.edges.count(edge) == 0) continue;
        deleted.push_back(edge);
        push(g, false, edge.first, edge.second);
      }
      // Insert ~6 fresh edges inside the current range.
      for (int i = 0; i < 6; ++i) {
        const NodeId u = rng() % model.num_nodes;
        const NodeId v = rng() % model.num_nodes;
        if (u == v) continue;
        push(g, true, u, v);
      }
      // Re-insert a couple of edges deleted in *earlier* batches.
      for (int i = 0; i < 2 && !deleted.empty(); ++i) {
        const auto edge = deleted[rng() % deleted.size()];
        push(g, true, edge.first, edge.second);
      }
    }
    if (b == 4) {
      // Grow both graphs: attach brand-new nodes to existing ones.
      push(1, true, model1.num_nodes + 2, rng() % model1.num_nodes);
      push(2, true, model2.num_nodes + 1, rng() % model2.num_nodes);
    }
    script.push_back(std::move(batch));
  }
  return script;
}

class ServeDifferentialTest : public testing::TestWithParam<GridCase> {};

TEST_P(ServeDifferentialTest, MatchesBatchRunAfterEveryBatch) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(700, 2.4, 12.0), 881),
                        {.s1 = 0.62, .s2 = 0.62}, 883);
  SeedOptions seed_options;
  seed_options.fraction = 0.09;
  const auto seeds = GenerateSeeds(pair, seed_options, 887);
  ASSERT_FALSE(seeds.empty());

  ServeConfig config;
  config.matcher.min_score = 2;
  config.matcher.num_iterations = 2;
  config.matcher.num_threads = param.threads;

  MatcherConfig reference = config.matcher;
  reference.num_threads = 1;

  SideModel model1{ToEdgeSet(pair.g1), pair.g1.num_nodes()};
  SideModel model2{ToEdgeSet(pair.g2), pair.g2.num_nodes()};
  const auto script = MakeDeltaScript(model1, model2, 100 + param.threads);

  IncrementalMatcher matcher(pair.g1, pair.g2, seeds, config);
  const ServeBatchStats initial = matcher.ApplyBatch({});
  EXPECT_EQ(initial.batch, 1);
  EXPECT_EQ(initial.skipped_rounds, 0);

  {
    // Initial serve match == plain batch run on the initial graphs.
    const MatchResult batch = UserMatching(pair.g1, pair.g2, seeds, reference);
    ASSERT_EQ(matcher.map_1to2(), batch.map_1to2);
    ASSERT_EQ(matcher.map_2to1(), batch.map_2to1);
  }

  for (size_t b = 0; b < script.size(); ++b) {
    for (const EdgeDelta& d : script[b]) {
      (d.graph == 1 ? model1 : model2).Apply(d);
    }
    const ServeBatchStats stats = matcher.ApplyBatch(script[b]);
    if (script[b].empty()) {
      EXPECT_EQ(stats.deltas_applied, 0u);
      EXPECT_EQ(stats.links_added, 0u);
      EXPECT_EQ(stats.links_removed, 0u);
      EXPECT_EQ(stats.replayed_rounds, 0);
    }

    const Graph g1_now = FromEdgeSet(model1.edges, model1.num_nodes);
    const Graph g2_now = FromEdgeSet(model2.edges, model2.num_nodes);
    ASSERT_EQ(matcher.g1().num_nodes(), g1_now.num_nodes()) << "batch " << b;
    ASSERT_EQ(matcher.g2().num_nodes(), g2_now.num_nodes()) << "batch " << b;
    ASSERT_EQ(matcher.g1().num_edges(), g1_now.num_edges()) << "batch " << b;
    ASSERT_EQ(matcher.g2().num_edges(), g2_now.num_edges()) << "batch " << b;

    const MatchResult batch = UserMatching(g1_now, g2_now, seeds, reference);
    ASSERT_EQ(matcher.map_1to2(), batch.map_1to2) << "batch " << b;
    ASSERT_EQ(matcher.map_2to1(), batch.map_2to1) << "batch " << b;
    EXPECT_EQ(matcher.num_links(),
              static_cast<size_t>(std::count_if(
                  batch.map_1to2.begin(), batch.map_1to2.end(),
                  [](NodeId v) { return v != kInvalidNode; })))
        << "batch " << b;
  }
}

TEST_P(ServeDifferentialTest, SnapshotRoundTripContinuesIdentically) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(500, 2.3, 10.0), 991),
                        {.s1 = 0.6, .s2 = 0.6}, 993);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  const auto seeds = GenerateSeeds(pair, seed_options, 997);

  ServeConfig config;
  config.matcher.num_threads = param.threads;

  SideModel model1{ToEdgeSet(pair.g1), pair.g1.num_nodes()};
  SideModel model2{ToEdgeSet(pair.g2), pair.g2.num_nodes()};
  const auto script = MakeDeltaScript(model1, model2, 17);

  IncrementalMatcher live(pair.g1, pair.g2, seeds, config);
  live.ApplyBatch({});
  live.ApplyBatch(script[0]);
  live.ApplyBatch(script[1]);

  const std::string path = testing::TempDir() + "/serve_roundtrip_" +
                           std::string(param.name) + ".ckpt";
  std::string error;
  ASSERT_TRUE(live.SaveSnapshot(path, &error)) << error;

  // A fresh process: constructed from the ORIGINAL inputs under another
  // thread count, then restored. Execution knobs never reach the snapshot.
  ServeConfig resume_config = config;
  resume_config.matcher.num_threads = param.threads == 1 ? 3 : 1;
  IncrementalMatcher restored(pair.g1, pair.g2, seeds, resume_config);
  ASSERT_TRUE(restored.LoadSnapshot(path, &error)) << error;
  EXPECT_EQ(restored.batches_applied(), live.batches_applied());
  EXPECT_EQ(restored.map_1to2(), live.map_1to2());
  EXPECT_EQ(restored.num_links(), live.num_links());

  // ApplyBatch({}) on a restored session is a pure no-op.
  const ServeBatchStats noop = restored.ApplyBatch({});
  EXPECT_EQ(noop.replayed_rounds, 0);
  EXPECT_EQ(noop.links_added + noop.links_removed, 0u);
  EXPECT_EQ(restored.map_1to2(), live.map_1to2());

  // Both sessions continue through the rest of the script in lockstep.
  for (size_t b = 2; b < script.size(); ++b) {
    live.ApplyBatch(script[b]);
    restored.ApplyBatch(script[b]);
    ASSERT_EQ(restored.map_1to2(), live.map_1to2()) << "batch " << b;
    ASSERT_EQ(restored.map_2to1(), live.map_2to1()) << "batch " << b;
  }

  // Config-mismatch snapshots are rejected with a diagnostic.
  ServeConfig other = config;
  other.matcher.min_score = config.matcher.min_score + 3;
  IncrementalMatcher wrong(pair.g1, pair.g2, seeds, other);
  EXPECT_FALSE(wrong.LoadSnapshot(path, &error));
  EXPECT_NE(error.find("semantics"), std::string::npos) << error;

  // A version-1 snapshot (the incremental-repair layout: its META led
  // with version 1 and carried the shard count and round-log sizes) is
  // rejected, so a resume falls back to an older file or a fresh start.
  SnapshotWriter v1;
  v1.BeginSection(1);  // META
  v1.AppendU32(1);     // serve state version
  v1.AppendU32(config.matcher.min_score);
  v1.AppendI32(config.matcher.num_iterations);
  v1.AppendU8(1);  // bucketing
  v1.AppendI32(config.matcher.min_bucket_exponent);
  v1.AppendU8(1);  // stop when stable
  v1.AppendI32(4);  // shards
  v1.AppendU64(pair.g1.num_nodes());  // pinned n1
  v1.AppendI32(1);  // batches applied
  v1.AppendU64(0);  // deltas consumed
  v1.AppendU64(seeds.size());
  v1.AppendU8(1);  // seeds emitted
  v1.AppendU64(seeds.size());  // links
  v1.AppendU64(0);  // rounds
  v1.EndSection();
  const std::string v1_path = testing::TempDir() + "/serve_v1_" +
                              std::string(param.name) + ".ckpt";
  ASSERT_TRUE(v1.Commit(v1_path, &error)) << error;
  IncrementalMatcher old_format(pair.g1, pair.g2, seeds, config);
  EXPECT_FALSE(old_format.LoadSnapshot(v1_path, &error));
  EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
}

TEST_P(ServeDifferentialTest, GracefulStopMidBatchStillServesFullMatching) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(600, 2.4, 12.0), 661),
                        {.s1 = 0.62, .s2 = 0.62}, 663);
  SeedOptions seed_options;
  seed_options.fraction = 0.09;
  const auto seeds = GenerateSeeds(pair, seed_options, 667);

  ServeConfig config;
  config.matcher.num_threads = param.threads;
  MatcherConfig reference = config.matcher;
  reference.num_threads = 1;

  SideModel model1{ToEdgeSet(pair.g1), pair.g1.num_nodes()};
  SideModel model2{ToEdgeSet(pair.g2), pair.g2.num_nodes()};
  const auto script = MakeDeltaScript(model1, model2, 31);
  for (const EdgeDelta& d : script[0]) {
    (d.graph == 1 ? model1 : model2).Apply(d);
  }

  IncrementalMatcher matcher(pair.g1, pair.g2, seeds, config);
  matcher.ApplyBatch({});
  // The stop lands after the overlays absorbed batch 2 and before the
  // matcher ran on them; the batch must still finish its matcher run.
  std::string error;
  ASSERT_TRUE(ArmFaults("stop:serve_apply=2", &error)) << error;
  const ServeBatchStats stats = matcher.ApplyBatch(script[0]);
  const bool stop_requested = GracefulStopRequested();
  DisarmFaults();
  ClearGracefulStop();
  EXPECT_TRUE(stop_requested);
  EXPECT_GT(stats.replayed_rounds, 1);

  const MatchResult batch =
      UserMatching(FromEdgeSet(model1.edges, model1.num_nodes),
                   FromEdgeSet(model2.edges, model2.num_nodes), seeds,
                   reference);
  EXPECT_GT(batch.NumNewLinks(), 0u);
  EXPECT_EQ(matcher.map_1to2(), batch.map_1to2);
  EXPECT_EQ(matcher.map_2to1(), batch.map_2to1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServeDifferentialTest,
    testing::Values(
        GridCase{"T1", 1}, GridCase{"T2", 2}, GridCase{"T5", 5}),
    CaseName);

}  // namespace
}  // namespace reconcile
