// Compares a `UserMatching` run with the paper-literal oracle
// (`user_matching_oracle.h`): the final maps, the round count, and per
// round the new links, the open pairs the accept pass tests and the
// emissions; and, after a round of a `MatcherState`, every unmatched node's
// best score and whether it is unique.
#ifndef RECONCILE_TESTS_ORACLE_CHECK_H_
#define RECONCILE_TESTS_ORACLE_CHECK_H_

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/core/matcher_state.h"
#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "user_matching_oracle.h"

namespace reconcile {

inline oracle::Settings OracleSettings(const MatcherConfig& config) {
  oracle::Settings settings;
  settings.min_score = config.min_score;
  settings.num_iterations = config.num_iterations;
  settings.use_degree_bucketing = config.use_degree_bucketing;
  settings.min_bucket_exponent = config.min_bucket_exponent;
  settings.stop_when_stable = config.stop_when_stable;
  return settings;
}

/// Empty when `engine` agrees with `expected`; otherwise the first
/// difference: a round's counters, the round count, or the maps. The
/// engine's `open_pairs` are the pairs its accept pass tests: the open pairs
/// whose score changed since the previous round of the iteration, or that
/// it made eligible, which the oracle counts as `new_open_pairs`.
inline std::string OracleDifference(const MatchResult& engine,
                                    const oracle::Result& expected) {
  std::ostringstream out;
  const size_t rounds = std::min(engine.phases.size(), expected.rounds.size());
  for (size_t r = 0; r < rounds; ++r) {
    const PhaseStats& got = engine.phases[r];
    const oracle::Round& want = expected.rounds[r];
    if (got.iteration != want.iteration ||
        got.bucket_exponent != want.bucket_exponent ||
        got.new_links != want.new_links.size() ||
        got.open_pairs != want.new_open_pairs ||
        got.emissions != want.emissions) {
      out << "round " << r + 1 << " (iteration, bucket, new_links, "
          << "open_pairs, emissions): engine (" << got.iteration << ", "
          << got.bucket_exponent << ", " << got.new_links << ", "
          << got.open_pairs << ", " << got.emissions << ") oracle ("
          << want.iteration << ", " << want.bucket_exponent << ", "
          << want.new_links.size() << ", " << want.new_open_pairs << ", "
          << want.emissions << ")";
      return out.str();
    }
  }
  if (engine.phases.size() != expected.rounds.size()) {
    out << "round count: engine " << engine.phases.size() << " oracle "
        << expected.rounds.size();
    return out.str();
  }
  if (engine.map_1to2 != expected.map_1to2 ||
      engine.map_2to1 != expected.map_2to1) {
    return "final maps differ";
  }
  return "";
}

/// Empty when the best tables of `state`, just after it ran the round
/// `want` describes, give every node unmatched after it the oracle's
/// standing; otherwise the first node that differs. The engine's g1 ids are
/// the oracle's times `stride` (`spread_ids.h`).
inline std::string BestsDifference(const MatcherState& state,
                                   const oracle::Round& want,
                                   NodeId stride = 1) {
  auto check = [](const AtomicBestTable& table,
                  const std::vector<std::pair<NodeId, oracle::NodeBest>>& nodes,
                  NodeId scale, const char* graph) -> std::string {
    for (const auto& [node, expected] : nodes) {
      const uint32_t best = table.BestScore(node * scale);
      const oracle::NodeBest got{best,
                                 best > 0 && table.IsUniqueBest(node * scale, best)};
      if (got == expected) continue;
      std::ostringstream out;
      out << graph << " node " << node << " (best, unique): engine (" << got.score
          << ", " << got.unique << ") oracle (" << expected.score << ", "
          << expected.unique << ")";
      return out.str();
    }
    return "";
  };
  const std::string first =
      check(state.selection().best1(), want.unmatched1, stride, "g1");
  return first.empty() ? check(state.selection().best2(), want.unmatched2, 1, "g2")
                       : first;
}

/// Runs both and expects agreement.
inline void ExpectMatchesOracle(
    const Graph& g1, const Graph& g2,
    std::span<const std::pair<NodeId, NodeId>> seeds,
    const MatcherConfig& config) {
  const MatchResult engine = UserMatching(g1, g2, seeds, config);
  const oracle::Result expected =
      oracle::UserMatching(g1, g2, seeds, OracleSettings(config));
  EXPECT_EQ(OracleDifference(engine, expected), "");
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_ORACLE_CHECK_H_
