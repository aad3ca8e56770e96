#include "reconcile/baseline/bp_matcher.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// One sweep's candidate graph, flattened. Side-1 nodes with at least one
// candidate are `active`, their candidate edges live in `[offsets[i],
// offsets[i+1])`; the reverse index groups the same edges by side-2 node so
// both message directions scan contiguous fixed-order ranges.
struct CandidateGraph {
  std::vector<NodeId> active;       // unmatched g1 nodes with candidates
  std::vector<size_t> offsets;      // active.size() + 1
  std::vector<NodeId> cand;         // per edge: the g2 candidate
  std::vector<double> weight;       // per edge: witnesses + degree prior
  std::vector<NodeId> rev_nodes;    // distinct g2 nodes, ascending
  std::vector<size_t> rev_offsets;  // rev_nodes.size() + 1
  std::vector<size_t> rev_edges;    // edge ids grouped by g2 node
  size_t num_edges() const { return cand.size(); }
};

// Per-node top-2 of incident messages, tracking the argmax edge so a
// message update can take "max over siblings excluding me" in O(1).
struct Top2 {
  double best = -1e300;
  double second = -1e300;
  size_t best_edge = ~size_t{0};
  void Observe(double value, size_t edge) {
    // Strict comparison: the first edge in scan order wins ties, and scan
    // order is fixed by the CSR layout — partition-independent.
    if (value > best) {
      second = best;
      best = value;
      best_edge = edge;
    } else if (value > second) {
      second = value;
    }
  }
  double MaxExcluding(size_t edge) const {
    return edge == best_edge ? second : best;
  }
};

// Discovers candidates for every unmatched g1 node: g2 nodes adjacent to
// the image of a matched neighbour, scored by witness count plus a degree
// similarity prior, strongest `max_candidates` kept. Pure function of
// (graphs, current matching) per node, so the parallel fill is
// partition-independent.
CandidateGraph DiscoverCandidates(const Graph& g1, const Graph& g2,
                                  const std::vector<NodeId>& map_1to2,
                                  const std::vector<NodeId>& map_2to1,
                                  const BpConfig& config, ThreadPool& pool) {
  const size_t n = g1.num_nodes();
  struct Scored {
    NodeId candidate;
    double weight;
  };
  std::vector<std::vector<Scored>> per_node(n);
  ParallelForWorkStealing(
      &pool, n, pool.GrainFor(n), [&](size_t begin, size_t end) {
        struct Acc {
          NodeId candidate;
          uint32_t witnesses;
        };
        std::vector<Acc> accs;
        for (size_t i = begin; i < end; ++i) {
          const NodeId u = static_cast<NodeId>(i);
          if (map_1to2[u] != kInvalidNode) continue;
          accs.clear();
          for (NodeId w : g1.Neighbors(u)) {
            const NodeId image = map_1to2[w];
            if (image == kInvalidNode) continue;
            for (NodeId v : g2.Neighbors(image)) {
              if (map_2to1[v] != kInvalidNode) continue;
              bool found = false;
              for (Acc& a : accs) {
                if (a.candidate == v) {
                  ++a.witnesses;
                  found = true;
                  break;
                }
              }
              if (!found) accs.push_back({v, 1});
            }
          }
          if (accs.empty()) continue;
          std::vector<Scored>& out = per_node[i];
          out.reserve(accs.size());
          const double du = static_cast<double>(std::max<NodeId>(1, g1.degree(u)));
          for (const Acc& a : accs) {
            const double dv =
                static_cast<double>(std::max<NodeId>(1, g2.degree(a.candidate)));
            const double similarity = std::min(du, dv) / std::max(du, dv);
            out.push_back({a.candidate, static_cast<double>(a.witnesses) +
                                            config.prior * similarity});
          }
          std::sort(out.begin(), out.end(), [](const Scored& a, const Scored& b) {
            if (a.weight != b.weight) return a.weight > b.weight;
            return a.candidate < b.candidate;
          });
          if (out.size() > config.max_candidates) {
            out.resize(config.max_candidates);
          }
        }
      });

  CandidateGraph graph;
  for (size_t i = 0; i < n; ++i) {
    if (!per_node[i].empty()) graph.active.push_back(static_cast<NodeId>(i));
  }
  graph.offsets.reserve(graph.active.size() + 1);
  graph.offsets.push_back(0);
  for (NodeId u : graph.active) {
    graph.offsets.push_back(graph.offsets.back() + per_node[u].size());
  }
  graph.cand.resize(graph.offsets.back());
  graph.weight.resize(graph.offsets.back());
  for (size_t i = 0; i < graph.active.size(); ++i) {
    size_t e = graph.offsets[i];
    for (const Scored& s : per_node[graph.active[i]]) {
      graph.cand[e] = s.candidate;
      graph.weight[e] = s.weight;
      ++e;
    }
  }

  // Reverse index: edges grouped by candidate, candidates ascending, edge
  // ids ascending within a group (edge id order == g1 node order).
  std::vector<std::pair<NodeId, size_t>> by_cand(graph.num_edges());
  for (size_t e = 0; e < graph.num_edges(); ++e) by_cand[e] = {graph.cand[e], e};
  std::sort(by_cand.begin(), by_cand.end());
  for (size_t k = 0; k < by_cand.size(); ++k) {
    if (k == 0 || by_cand[k].first != by_cand[k - 1].first) {
      graph.rev_nodes.push_back(by_cand[k].first);
      graph.rev_offsets.push_back(k);
    }
    graph.rev_edges.push_back(by_cand[k].second);
  }
  graph.rev_offsets.push_back(by_cand.size());
  return graph;
}

}  // namespace

MatchResult BpMatch(const Graph& g1, const Graph& g2,
                    std::span<const std::pair<NodeId, NodeId>> seeds,
                    const BpConfig& config) {
  RECONCILE_CHECK_GE(config.iterations, 1);
  RECONCILE_CHECK(config.damping >= 0.0 && config.damping < 1.0)
      << "bp damping must be in [0, 1): " << config.damping;
  RECONCILE_CHECK_GE(config.max_sweeps, 1);
  RECONCILE_CHECK_GE(config.max_candidates, 1u);

  Timer timer;
  MatchResult result;
  result.map_1to2.assign(g1.num_nodes(), kInvalidNode);
  result.map_2to1.assign(g2.num_nodes(), kInvalidNode);
  result.seeds.assign(seeds.begin(), seeds.end());
  for (const auto& [u, v] : seeds) {
    RECONCILE_CHECK_LT(u, g1.num_nodes());
    RECONCILE_CHECK_LT(v, g2.num_nodes());
    result.map_1to2[u] = v;
    result.map_2to1[v] = u;
  }

  const int threads =
      config.num_threads > 0 ? config.num_threads : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);

  for (int sweep = 0; sweep < config.max_sweeps; ++sweep) {
    Timer sweep_timer;
    const CandidateGraph graph = DiscoverCandidates(
        g1, g2, result.map_1to2, result.map_2to1, config, pool);
    const size_t edges = graph.num_edges();

    PhaseStats stats;
    stats.iteration = sweep + 1;
    stats.candidate_pairs = edges;
    stats.num_threads = threads;
    if (edges == 0) {
      stats.seconds = sweep_timer.Seconds();
      result.phases.push_back(stats);
      break;
    }

    // Min-sum BP for bipartite matching (Bayati–Shah–Sharma): along each
    // candidate edge keep one message per direction,
    //   m_{u→v} = w(u,v) - max_{v' != v} m_{v'→u}
    //   m_{v→u} = w(u,v) - max_{u' != u} m_{u'→v},
    // damped. Double-buffered: every update reads only the previous
    // iteration's arrays, so the result is bit-identical under any loop
    // partition.
    std::vector<double> to_v = graph.weight;  // m_{u→v}, init = w
    std::vector<double> to_u = graph.weight;  // m_{v→u}
    std::vector<double> next_to_v(edges), next_to_u(edges);
    std::vector<Top2> top_u(graph.active.size());
    std::vector<Top2> top_v(graph.rev_nodes.size());

    const size_t node_grain = pool.GrainFor(graph.active.size());
    const size_t rev_grain = pool.GrainFor(graph.rev_nodes.size());
    for (int iter = 0; iter < config.iterations; ++iter) {
      ParallelForWorkStealing(
          &pool, graph.active.size(), node_grain,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              Top2 top;
              for (size_t e = graph.offsets[i]; e < graph.offsets[i + 1];
                   ++e) {
                top.Observe(to_u[e], e);
              }
              top_u[i] = top;
            }
          });
      ParallelForWorkStealing(
          &pool, graph.rev_nodes.size(), rev_grain,
          [&](size_t begin, size_t end) {
            for (size_t j = begin; j < end; ++j) {
              Top2 top;
              for (size_t k = graph.rev_offsets[j];
                   k < graph.rev_offsets[j + 1]; ++k) {
                top.Observe(to_v[graph.rev_edges[k]], graph.rev_edges[k]);
              }
              top_v[j] = top;
            }
          });
      // Edge updates, iterated per side-1 node so each edge knows its
      // endpoints without a parallel binary search.
      ParallelForWorkStealing(
          &pool, graph.active.size(), node_grain,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              for (size_t e = graph.offsets[i]; e < graph.offsets[i + 1];
                   ++e) {
                // Competition at u: the strongest sibling message into u.
                const double rival_u = top_u[i].MaxExcluding(e);
                const double fresh_to_v =
                    graph.weight[e] - std::max(0.0, rival_u);
                next_to_v[e] = config.damping * to_v[e] +
                               (1.0 - config.damping) * fresh_to_v;
              }
            }
          });
      ParallelForWorkStealing(
          &pool, graph.rev_nodes.size(), rev_grain,
          [&](size_t begin, size_t end) {
            for (size_t j = begin; j < end; ++j) {
              for (size_t k = graph.rev_offsets[j];
                   k < graph.rev_offsets[j + 1]; ++k) {
                const size_t e = graph.rev_edges[k];
                const double rival_v = top_v[j].MaxExcluding(e);
                const double fresh_to_u =
                    graph.weight[e] - std::max(0.0, rival_v);
                next_to_u[e] = config.damping * to_u[e] +
                               (1.0 - config.damping) * fresh_to_u;
              }
            }
          });
      to_v.swap(next_to_v);
      to_u.swap(next_to_u);
    }

    // Acceptance: u's favourite candidate (by incoming message, ties to
    // the first edge in fixed order) must favour u back, and the combined
    // belief must clear the floor.
    std::vector<size_t> pick_u(graph.active.size(), ~size_t{0});
    ParallelForWorkStealing(
        &pool, graph.active.size(), node_grain,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            Top2 top;
            for (size_t e = graph.offsets[i]; e < graph.offsets[i + 1]; ++e) {
              top.Observe(to_u[e], e);
            }
            pick_u[i] = top.best_edge;
          }
        });
    std::vector<size_t> pick_v(graph.rev_nodes.size(), ~size_t{0});
    ParallelForWorkStealing(
        &pool, graph.rev_nodes.size(), rev_grain,
        [&](size_t begin, size_t end) {
          for (size_t j = begin; j < end; ++j) {
            Top2 top;
            for (size_t k = graph.rev_offsets[j];
                 k < graph.rev_offsets[j + 1]; ++k) {
              top.Observe(to_v[graph.rev_edges[k]], graph.rev_edges[k]);
            }
            pick_v[j] = top.best_edge;
          }
        });
    // Map each g2 node in the reverse index to its pick. rev_nodes is
    // ascending, so a binary search stands in for a hash map.
    const auto pick_of_v = [&](NodeId v) -> size_t {
      const auto it =
          std::lower_bound(graph.rev_nodes.begin(), graph.rev_nodes.end(), v);
      return pick_v[static_cast<size_t>(it - graph.rev_nodes.begin())];
    };

    size_t new_links = 0;
    for (size_t i = 0; i < graph.active.size(); ++i) {
      const size_t e = pick_u[i];
      if (e == ~size_t{0}) continue;
      const NodeId u = graph.active[i];
      const NodeId v = graph.cand[e];
      if (pick_of_v(v) != e) continue;  // not mutual
      const double belief = to_u[e] + to_v[e] - graph.weight[e];
      if (belief < config.min_belief) continue;
      if (result.map_1to2[u] != kInvalidNode ||
          result.map_2to1[v] != kInvalidNode) {
        continue;
      }
      result.map_1to2[u] = v;
      result.map_2to1[v] = u;
      ++new_links;
    }

    stats.new_links = new_links;
    stats.seconds = sweep_timer.Seconds();
    result.phases.push_back(stats);
    if (new_links == 0) break;
  }
  result.total_seconds = timer.Seconds();
  return result;
}

}  // namespace reconcile
