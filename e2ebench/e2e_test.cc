// Tests of the end-to-end benchmark's own code: the loader work-around for
// trailing isolated nodes, the output checks, and the traced run's spans.
// Workloads run here at a small fraction of their benchmark size.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "e2e.h"
#include "reconcile/core/matcher.h"
#include "reconcile/graph/io.h"

namespace e2e {
namespace {

using reconcile::EdgeList;
using reconcile::Graph;
using reconcile::kInvalidNode;

// The same workload with `factor` times the nodes.
Workload Scaled(Workload workload, double factor) {
  workload.nodes = static_cast<NodeId>(workload.nodes * factor);
  return workload;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = "e2e_test_scratch/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(LoadEdgeListTest, KeepsTrailingIsolatedNodes) {
  // Nodes 6..9 have no edges, so only the header knows they exist.
  EdgeList edges(10);
  for (NodeId u = 0; u < 5; ++u) edges.Add(u, u + 1);
  const Graph original = Graph::FromEdgeList(edges);
  ASSERT_EQ(original.num_nodes(), 10u);
  const std::string path = ScratchDir("trailing") + "/g.txt";
  ASSERT_TRUE(reconcile::WriteEdgeListText(original, path));

  EdgeList loaded;
  ASSERT_TRUE(LoadEdgeList(path, original.num_nodes(), &loaded, nullptr));
  const Graph g = Graph::FromEdgeList(loaded);
  EXPECT_EQ(g.num_nodes(), original.num_nodes());
  EXPECT_EQ(g.num_edges(), original.num_edges());

  // A seed on the last node is in range for the matcher.
  const Links seeds = {{0, 0}, {9, 9}};
  reconcile::MatcherConfig config;
  config.num_threads = 1;
  const reconcile::MatchResult result =
      reconcile::UserMatching(g, g, seeds, config);
  EXPECT_EQ(result.map_1to2[9], 9u);
  EXPECT_TRUE(CheckMatching(result.map_1to2, result.map_2to1, seeds));
}

TEST(LoadEdgeListTest, RejectsMoreNodesThanDeclared) {
  EdgeList edges;
  edges.Add(0, 7);
  const std::string path = ScratchDir("too_many") + "/g.txt";
  ASSERT_TRUE(reconcile::WriteEdgeListText(Graph::FromEdgeList(edges), path));
  EdgeList loaded;
  EXPECT_FALSE(LoadEdgeList(path, 4, &loaded, nullptr));
}

TEST(CheckMatchingTest, FlagsBrokenMatchings) {
  const std::vector<NodeId> map_1to2 = {1, 0, kInvalidNode};
  const std::vector<NodeId> map_2to1 = {1, 0, kInvalidNode};
  EXPECT_TRUE(CheckMatching(map_1to2, map_2to1, {{0, 1}}));
  // Missing seed.
  EXPECT_FALSE(CheckMatching(map_1to2, map_2to1, {{2, 2}}));
  // Not mutually inverse.
  EXPECT_FALSE(CheckMatching({1, 1, kInvalidNode}, map_2to1, {}));
  // g2 side maps a node the g1 side does not.
  EXPECT_FALSE(CheckMatching(map_1to2, {1, 0, 2}, {}));
}

TEST(SpanTest, ValidateSpansRejectsBadNesting) {
  std::string error;
  EXPECT_TRUE(ValidateSpans({{"a.x", 0, 2, -1}, {"b.y", 0.5, 1, 0}}, &error));
  EXPECT_FALSE(ValidateSpans({{"a.x", 0, 1, -1}, {"b.y", 0.5, 2, 0}}, &error));
  EXPECT_FALSE(ValidateSpans({{"a.x", 1, 0, -1}}, &error));
  EXPECT_FALSE(ValidateSpans(
      {{"a.x", 0, 3, -1}, {"b.y", 0, 2, 0}, {"b.z", 1, 3, 0}}, &error));
  EXPECT_FALSE(ValidateSpans({{"a.x", 0, 1, 1}, {"b.y", 0, 1, -1}}, &error));
}

TEST(SpanTest, SelfTimeSubtractsChildren) {
  Tracer tracer;
  const int root = tracer.Begin("bench.root");
  tracer.End(tracer.Begin("graph.child"));
  tracer.End(root);
  const double root_s = tracer.spans()[0].end - tracer.spans()[0].start;
  const double child_s = tracer.spans()[1].end - tracer.spans()[1].start;
  const auto layers = tracer.LayerSelfSeconds();
  EXPECT_DOUBLE_EQ(layers.at("bench"), root_s - child_s);
  EXPECT_DOUBLE_EQ(layers.at("graph"), child_s);
  EXPECT_DOUBLE_EQ(tracer.WallSeconds(), root_s);
}

class WorkloadTraceTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTraceTest, SpansNestAndCoverTheTracedWallTime) {
  const Workload& workload = GetParam();
  const std::string dir = ScratchDir(workload.name);
  Tracer setup_tracer;
  WriteInputs(workload, 7, dir, &setup_tracer);
  std::string error;
  EXPECT_TRUE(ValidateSpans(setup_tracer.spans(), &error)) << error;

  Tracer tracer;
  if (workload.serve) {
    const ServeReport report = Serve(dir, 7, 0.0, 12, 2, kThreads, &tracer);
    EXPECT_TRUE(report.identical);
    EXPECT_EQ(report.checks, 2u + 12u + 1u);
    EXPECT_EQ(report.failed_checks, 0u);
    EXPECT_EQ(report.batch_ms.size(), 12u);
    EXPECT_EQ(report.deltas_applied, 12u * kBatchDeltas);
  } else {
    const ReconcileReport report = Reconcile(dir, kThreads, &tracer);
    EXPECT_TRUE(report.matching_ok);
    EXPECT_GT(report.result.NumNewLinks(), 0u);
    EXPECT_GT(std::count_if(tracer.spans().begin(), tracer.spans().end(),
                            [](const Span& span) {
                              return span.name == "core.RunRound";
                            }),
              1);
    // Traced and untraced runs, and one thread against four, agree.
    EXPECT_EQ(Reconcile(dir, kThreads, nullptr).digest, report.digest);
    EXPECT_EQ(Reconcile(dir, 1, nullptr).digest, report.digest);
  }
  EXPECT_TRUE(ValidateSpans(tracer.spans(), &error)) << error;
  EXPECT_GE(tracer.Coverage(), 0.95);
  EXPECT_LE(tracer.Coverage(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SmallWorkloads, WorkloadTraceTest,
    ::testing::Values(Scaled(*FindWorkload("match-cl-200k"), 0.05),
                      Scaled(*FindWorkload("ingest-er-2m"), 0.005),
                      Scaled(*FindWorkload("serve-cl-20k"), 0.25)),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace e2e
