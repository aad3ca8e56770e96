#include "reconcile/core/selection.h"

#include <atomic>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/timer.h"

namespace reconcile {

SelectionEngine::SelectionEngine(size_t n1, size_t n2, bool parallel)
    : parallel_(parallel),
      best1_(parallel ? 0 : n1),
      best2_(parallel ? 0 : n2),
      atomic_best1_(parallel ? n1 : 0),
      atomic_best2_(parallel ? n2 : 0) {}

size_t SelectionEngine::SelectAndCommit(const std::vector<ScoreUnit>& units,
                                        const SelectionContext& ctx,
                                        PhaseStats* stats) {
  return parallel_ ? SelectParallel(units, ctx, stats)
                   : SelectSerial(units, ctx, stats);
}

size_t SelectionEngine::SelectSerial(const std::vector<ScoreUnit>& units,
                                     const SelectionContext& ctx,
                                     PhaseStats* stats) {
  Timer timer;
  best1_.NextEpoch();
  best2_.NextEpoch();
  size_t candidate_pairs = 0;
  size_t observed_pairs = 0;
  for (const ScoreUnit& unit : units) {
    unit.ForEach([this, &ctx, &candidate_pairs, &observed_pairs](
                     uint64_t key, uint32_t score) {
      ++candidate_pairs;
      // Only pairs that can win reach the tables (see the class comment).
      if (score < ctx.min_score) return;
      ++observed_pairs;
      best1_.Observe(PairFirst(key), score);
      best2_.Observe(PairSecond(key), score);
    });
  }
  stats->candidate_pairs = candidate_pairs;
  stats->observed_pairs = observed_pairs;
  stats->scan_seconds = timer.Seconds();

  timer.Reset();
  std::vector<NodeId>& map_1to2 = *ctx.map_1to2;
  std::vector<NodeId>& map_2to1 = *ctx.map_2to1;
  std::vector<std::pair<NodeId, NodeId>> accepted;
  size_t open_pairs = 0;
  for (const ScoreUnit& unit : units) {
    unit.ForEach([this, &ctx, &map_1to2, &map_2to1, &accepted,
                  &open_pairs](uint64_t key, uint32_t score) {
      if (score < ctx.min_score) return;
      NodeId u = PairFirst(key);
      NodeId v = PairSecond(key);
      // Already-matched nodes stay in the scored pool as *blockers* (their
      // pairs keep outcompeting impostors — this is what defeats the sybil
      // attack) but are never re-matched.
      if (map_1to2[u] != kInvalidNode || map_2to1[v] != kInvalidNode) {
        return;
      }
      ++open_pairs;
      if (best1_.IsUniqueBest(u, score) && best2_.IsUniqueBest(v, score)) {
        accepted.emplace_back(u, v);
      }
    });
  }
  stats->open_pairs = open_pairs;
  for (const auto& [u, v] : accepted) {
    RECONCILE_CHECK_EQ(map_1to2[u], kInvalidNode);
    RECONCILE_CHECK_EQ(map_2to1[v], kInvalidNode);
    map_1to2[u] = v;
    map_2to1[v] = u;
    ctx.links->emplace_back(u, v);
  }
  stats->select_seconds = timer.Seconds();
  return accepted.size();
}

size_t SelectionEngine::SelectParallel(const std::vector<ScoreUnit>& units,
                                       const SelectionContext& ctx,
                                       PhaseStats* stats) {
  Timer timer;
  atomic_best1_.NextEpoch();
  atomic_best2_.NextEpoch();
  // Both passes claim units one at a time from the work-stealing loop, so
  // a handful of huge hub-level units does not pin the round on whichever
  // worker drew them. The observe fold is a CAS-max — commutative — and
  // each unit's open list is written only by the task that claimed it, so
  // the schedule is unobservable in the result. Pairs below the threshold
  // are counted but never observed, as in the serial engine.
  //
  // The observe pass also keeps each unit's open pairs: score >= T with
  // both endpoints unmatched, the only pairs the accept pass can take. The
  // maps change only in the commit pass, so these are exactly the pairs a
  // second scan of the unit would reach, in the same order, and the accept
  // pass reads them instead of the store.
  std::vector<NodeId>& map_1to2 = *ctx.map_1to2;
  std::vector<NodeId>& map_2to1 = *ctx.map_2to1;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> open_per_unit(
      units.size());
  std::atomic<size_t> candidate_pairs{0};
  std::atomic<size_t> observed_pairs{0};
  ParallelForEach(
      ctx.pool, units.size(),
      [this, &ctx, &units, &map_1to2, &map_2to1, &open_per_unit,
       &candidate_pairs, &observed_pairs](size_t i) {
        size_t local_pairs = 0;
        size_t local_observed = 0;
        auto& open = open_per_unit[i];
        units[i].ForEach([this, &ctx, &map_1to2, &map_2to1, &open,
                          &local_pairs, &local_observed](uint64_t key,
                                                         uint32_t score) {
          ++local_pairs;
          if (score < ctx.min_score) return;
          ++local_observed;
          const NodeId u = PairFirst(key);
          const NodeId v = PairSecond(key);
          atomic_best1_.Observe(u, score);
          atomic_best2_.Observe(v, score);
          if (map_1to2[u] == kInvalidNode && map_2to1[v] == kInvalidNode) {
            open.emplace_back(key, score);
          }
        });
        candidate_pairs.fetch_add(local_pairs, std::memory_order_relaxed);
        observed_pairs.fetch_add(local_observed, std::memory_order_relaxed);
      });
  stats->candidate_pairs = candidate_pairs.load();
  stats->observed_pairs = observed_pairs.load();
  size_t open_pairs = 0;
  for (const auto& open : open_per_unit) open_pairs += open.size();
  stats->open_pairs = open_pairs;
  stats->scan_seconds = timer.Seconds();

  timer.Reset();
  // Accept pass: reads the unit's open list and the sealed best tables,
  // writes only its own unit's accept list.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> accepted_per_unit(
      units.size());
  ParallelForEach(
      ctx.pool, units.size(),
      [this, &open_per_unit, &accepted_per_unit](size_t i) {
        auto& list = accepted_per_unit[i];
        for (const auto& [key, score] : open_per_unit[i]) {
          const NodeId u = PairFirst(key);
          const NodeId v = PairSecond(key);
          if (atomic_best1_.IsUniqueBest(u, score) &&
              atomic_best2_.IsUniqueBest(v, score)) {
            list.emplace_back(u, v);
          }
        }
      });

  // Commit pass, in parallel: an exclusive prefix sum assigns unit i the
  // link-log slots the serial loop would have given it; unique best on
  // both sides means no two units accept the same g1 or g2 node, so the
  // map writes are per-slot exclusive and the scatter is race-free. Layout
  // is byte-identical to committing the lists serially in unit order.
  std::vector<size_t> offsets(units.size() + 1, 0);
  for (size_t i = 0; i < units.size(); ++i) {
    offsets[i + 1] = offsets[i] + accepted_per_unit[i].size();
  }
  const size_t accepted = offsets.back();
  std::vector<std::pair<NodeId, NodeId>>& links = *ctx.links;
  const size_t base = links.size();
  links.resize(base + accepted);
  ParallelForEach(
      ctx.pool, units.size(),
      [&accepted_per_unit, &offsets, &links, &map_1to2, &map_2to1,
       base](size_t i) {
        size_t slot = base + offsets[i];
        for (const auto& [u, v] : accepted_per_unit[i]) {
          RECONCILE_CHECK_EQ(map_1to2[u], kInvalidNode);
          RECONCILE_CHECK_EQ(map_2to1[v], kInvalidNode);
          map_1to2[u] = v;
          map_2to1[v] = u;
          links[slot++] = {u, v};
        }
      });
  stats->select_seconds = timer.Seconds();
  return accepted;
}

}  // namespace reconcile
