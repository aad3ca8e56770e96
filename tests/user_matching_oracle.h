// A serial User-Matching (paper §3.2) written from the rule, not from the
// library's engine: every round lists every witness of every candidate pair
// from all current links, sorts the list and counts equal entries, then
// runs one mutual-unique-best pass over the counts. It shares no code with
// `core/` or `util/` (no packed keys, best tables, hash maps or thread
// pool), so a bug in the engine's shared machinery cannot hide by also
// being here.
//
// Where the paper leaves room, the comment at each step says whose reading
// the oracle takes: the paper's, or the repo's (`MatcherConfig`,
// `core/matcher.h`).
//
// `tests/core_oracle_fuzz_test.cc` checks `UserMatching` against it round
// by round; the engine suites compare with it on their own inputs.
#ifndef RECONCILE_TESTS_USER_MATCHING_ORACLE_H_
#define RECONCILE_TESTS_USER_MATCHING_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile::oracle {

/// The five settings that change what User-Matching computes.
struct Settings {
  uint32_t min_score = 2;  ///< T.
  int num_iterations = 2;  ///< k.
  bool use_degree_bucketing = true;
  int min_bucket_exponent = 0;
  bool stop_when_stable = true;
};

struct Round {
  int iteration = 0;
  int bucket_exponent = 0;
  /// Links accepted this round, in (g1 node, g2 node) order.
  std::vector<std::pair<NodeId, NodeId>> new_links;
  /// Eligible pairs scoring at least T with both endpoints unmatched.
  size_t open_pairs = 0;
  /// Witness pairs contributed by the links the previous round accepted
  /// (the seeds, in round 1), over nodes of degree at least
  /// 2^min_bucket_exponent: the delta an incremental engine adds.
  size_t emissions = 0;
};

struct Result {
  std::vector<NodeId> map_1to2;
  std::vector<NodeId> map_2to1;
  std::vector<Round> rounds;
};

namespace internal {

inline int FloorLog2(uint64_t x) {
  int log = 0;
  while (x > 1) {
    x >>= 1;
    ++log;
  }
  return log;
}

inline bool DegreeAtLeast(const Graph& g, NodeId node, int exponent) {
  return static_cast<uint64_t>(g.degree(node)) >= (uint64_t{1} << exponent);
}

// Witness pairs one link contributes over nodes of degree >= 2^exponent.
inline size_t WitnessPairs(const Graph& g1, const Graph& g2, NodeId a1,
                           NodeId a2, int exponent) {
  size_t left = 0;
  for (NodeId u : g1.Neighbors(a1)) left += DegreeAtLeast(g1, u, exponent);
  size_t right = 0;
  for (NodeId v : g2.Neighbors(a2)) right += DegreeAtLeast(g2, v, exponent);
  return left * right;
}

}  // namespace internal

/// Runs User-Matching from `seeds` (in range, one-to-one).
inline Result UserMatching(const Graph& g1, const Graph& g2,
                           std::span<const std::pair<NodeId, NodeId>> seeds,
                           const Settings& settings) {
  using internal::DegreeAtLeast;
  Result result;
  result.map_1to2.assign(g1.num_nodes(), kInvalidNode);
  result.map_2to1.assign(g2.num_nodes(), kInvalidNode);
  std::vector<std::pair<NodeId, NodeId>> links(seeds.begin(), seeds.end());
  for (const auto& [u, v] : links) {
    result.map_1to2[u] = v;
    result.map_2to1[v] = u;
  }
  std::vector<std::pair<NodeId, NodeId>> previous_round = links;

  // Schedule. The paper's sweep is j = log D ... 1, D the larger max
  // degree. Its floor is the repo's: `min_bucket_exponent`, default 0,
  // where the paper stops at 1. Without bucketing (the paper's ablation)
  // every iteration is one round at the floor.
  uint64_t max_degree = 0;
  for (NodeId u = 0; u < g1.num_nodes(); ++u) {
    max_degree = std::max<uint64_t>(max_degree, g1.degree(u));
  }
  for (NodeId v = 0; v < g2.num_nodes(); ++v) {
    max_degree = std::max<uint64_t>(max_degree, g2.degree(v));
  }
  const int floor = settings.min_bucket_exponent;
  const int top = internal::FloorLog2(max_degree);
  std::vector<int> buckets;
  if (settings.use_degree_bucketing) {
    for (int j = top; j >= std::min(floor, top); --j) buckets.push_back(j);
  } else {
    buckets.push_back(floor);
  }

  for (int iteration = 1; iteration <= settings.num_iterations; ++iteration) {
    size_t found_this_iteration = 0;
    for (int j : buckets) {
      Round round;
      round.iteration = iteration;
      round.bucket_exponent = j;
      for (const auto& [a1, a2] : previous_round) {
        round.emissions += internal::WitnessPairs(g1, g2, a1, a2, floor);
      }

      // Eligible pairs and their scores. The paper's reading: a round at
      // bucket j takes nodes of degree >= 2^j on both sides (here also at
      // least the floor). Scores are recounted from every current link,
      // as the paper writes it: score(u, v) is the number of links
      // (a1, a2) with a1 in N1(u) and a2 in N2(v).
      const int exponent = std::max(j, floor);
      std::vector<std::pair<NodeId, NodeId>> witnessed;
      for (const auto& [a1, a2] : links) {
        for (NodeId u : g1.Neighbors(a1)) {
          if (!DegreeAtLeast(g1, u, exponent)) continue;
          for (NodeId v : g2.Neighbors(a2)) {
            if (DegreeAtLeast(g2, v, exponent)) witnessed.emplace_back(u, v);
          }
        }
      }
      std::sort(witnessed.begin(), witnessed.end());
      std::vector<std::pair<std::pair<NodeId, NodeId>, uint32_t>> score;
      for (size_t i = 0; i < witnessed.size();) {
        size_t end = i + 1;
        while (end < witnessed.size() && witnessed[end] == witnessed[i]) ++end;
        score.emplace_back(witnessed[i], static_cast<uint32_t>(end - i));
        i = end;
      }

      // Best score per node and how many pairs reach it. The paper's
      // reading: a node's best is over "the pair with highest score in
      // which either u or v appear", so pairs whose partner is already
      // matched count too (they are the blockers that defeat impostors).
      std::vector<uint32_t> best1(g1.num_nodes(), 0);
      std::vector<uint32_t> best2(g2.num_nodes(), 0);
      std::vector<size_t> at_best1(g1.num_nodes(), 0);
      std::vector<size_t> at_best2(g2.num_nodes(), 0);
      auto observe = [](uint32_t s, uint32_t& best, size_t& at_best) {
        if (s > best) {
          best = s;
          at_best = 1;
        } else if (s == best) {
          ++at_best;
        }
      };
      for (const auto& [pair, s] : score) {
        observe(s, best1[pair.first], at_best1[pair.first]);
        observe(s, best2[pair.second], at_best2[pair.second]);
      }

      // Accept. "At least T" rather than "above T" is the repo's reading
      // (`MatcherConfig::min_score`). Rejecting ties, so a pair must be the
      // only one at both its endpoints' best, is the repo's reading
      // (`core/matcher.h`). Accepts commit together at the end of the
      // round.
      for (const auto& [pair, s] : score) {
        const auto [u, v] = pair;
        if (s < settings.min_score) continue;
        if (result.map_1to2[u] != kInvalidNode ||
            result.map_2to1[v] != kInvalidNode) {
          continue;
        }
        ++round.open_pairs;
        if (s == best1[u] && at_best1[u] == 1 && s == best2[v] &&
            at_best2[v] == 1) {
          round.new_links.emplace_back(u, v);
        }
      }
      for (const auto& [u, v] : round.new_links) {
        result.map_1to2[u] = v;
        result.map_2to1[v] = u;
        links.emplace_back(u, v);
      }
      found_this_iteration += round.new_links.size();
      previous_round = round.new_links;
      result.rounds.push_back(std::move(round));
    }
    // Stopping once an iteration adds nothing is the repo's reading
    // (`MatcherConfig::stop_when_stable`); the paper runs k iterations.
    if (settings.stop_when_stable && found_this_iteration == 0) break;
  }
  return result;
}

}  // namespace reconcile::oracle

#endif  // RECONCILE_TESTS_USER_MATCHING_ORACLE_H_
