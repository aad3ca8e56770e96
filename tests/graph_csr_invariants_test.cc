// CSR representation invariants, checked across every generator: sorted
// adjacency, symmetry of edges, degree accounting and common-neighbour
// counts. These are the structural contracts the matcher's emission scans
// rely on (DESIGN.md §5).
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "reconcile/gen/affiliation.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/configuration.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/gen/sbm.h"
#include "reconcile/gen/watts_strogatz.h"
#include "reconcile/graph/graph.h"

namespace reconcile {
namespace {

enum class Generator {
  kErdosRenyi,
  kPreferentialAttachment,
  kChungLu,
  kRmat,
  kAffiliation,
  kWattsStrogatz,
  kConfiguration,
  kSbm,
};

std::string GeneratorName(const testing::TestParamInfo<Generator>& info) {
  switch (info.param) {
    case Generator::kErdosRenyi:
      return "ErdosRenyi";
    case Generator::kPreferentialAttachment:
      return "PreferentialAttachment";
    case Generator::kChungLu:
      return "ChungLu";
    case Generator::kRmat:
      return "Rmat";
    case Generator::kAffiliation:
      return "Affiliation";
    case Generator::kWattsStrogatz:
      return "WattsStrogatz";
    case Generator::kConfiguration:
      return "Configuration";
    case Generator::kSbm:
      return "Sbm";
  }
  return "Unknown";
}

Graph Make(Generator generator) {
  switch (generator) {
    case Generator::kErdosRenyi:
      return GenerateErdosRenyi(800, 0.02, 8001);
    case Generator::kPreferentialAttachment:
      return GeneratePreferentialAttachment(800, 6, 8003);
    case Generator::kChungLu:
      return GenerateChungLu(PowerLawWeights(800, 2.5, 12.0), 8005);
    case Generator::kRmat: {
      RmatParams params;
      params.scale = 10;
      params.edge_factor = 6.0;
      return GenerateRmat(params, 8007);
    }
    case Generator::kAffiliation: {
      AffiliationParams params;
      return AffiliationNetwork::Generate(params, 8009).Fold();
    }
    case Generator::kWattsStrogatz:
      return GenerateWattsStrogatz(800, 6, 0.2, 8011);
    case Generator::kConfiguration: {
      std::vector<NodeId> degrees(800, 5);
      return GenerateConfigurationModel(degrees, 8013);
    }
    case Generator::kSbm: {
      SbmParams params;
      params.block_sizes = {300, 300, 200};
      params.p_in = 0.05;
      params.p_out = 0.002;
      return GenerateSbm(params, 8015);
    }
  }
  return Graph();
}

class CsrInvariantsTest : public testing::TestWithParam<Generator> {};

TEST_P(CsrInvariantsTest, AdjacencyIsSortedAndLoopFree) {
  Graph g = Make(GetParam());
  ASSERT_GT(g.num_edges(), 0u);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nbrs = g.Neighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], u) << "self loop at " << u;
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]) << "unsorted/duplicate";
      }
    }
  }
}

TEST_P(CsrInvariantsTest, EdgesAreSymmetric) {
  Graph g = Make(GetParam());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      EXPECT_TRUE(g.HasEdge(v, u)) << u << "-" << v;
    }
  }
}

TEST_P(CsrInvariantsTest, DegreeAccountingConsistent) {
  Graph g = Make(GetParam());
  size_t degree_sum = 0;
  NodeId max_degree = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(g.degree(u), g.Neighbors(u).size());
    degree_sum += g.degree(u);
    max_degree = std::max(max_degree, g.degree(u));
  }
  EXPECT_EQ(degree_sum, g.degree_sum());
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
  EXPECT_EQ(max_degree, g.max_degree());
}

TEST_P(CsrInvariantsTest, CommonNeighborCountSymmetricAndExact) {
  Graph g = Make(GetParam());
  // Spot-check a grid of pairs against a brute-force intersection.
  const NodeId step = std::max<NodeId>(1, g.num_nodes() / 17);
  for (NodeId u = 0; u < g.num_nodes(); u += step) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 2 * step) {
      size_t brute = 0;
      for (NodeId w : g.Neighbors(u)) {
        if (g.HasEdge(v, w)) ++brute;
      }
      EXPECT_EQ(g.CommonNeighborCount(u, v), brute) << u << "," << v;
      EXPECT_EQ(g.CommonNeighborCount(v, u), brute);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, CsrInvariantsTest,
                         testing::Values(Generator::kErdosRenyi,
                                         Generator::kPreferentialAttachment,
                                         Generator::kChungLu, Generator::kRmat,
                                         Generator::kAffiliation,
                                         Generator::kWattsStrogatz,
                                         Generator::kConfiguration,
                                         Generator::kSbm),
                         GeneratorName);

}  // namespace
}  // namespace reconcile
