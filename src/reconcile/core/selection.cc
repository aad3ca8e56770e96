#include "reconcile/core/selection.h"

#include <atomic>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/timer.h"

namespace reconcile {

SelectionEngine::SelectionEngine(size_t n1, size_t n2)
    : best1_(n1), best2_(n2) {}

size_t SelectionEngine::SelectAndCommit(
    const std::vector<const TieredCountRuns*>& cells,
    const SelectionContext& ctx, PhaseStats* stats) {
  Timer timer;
  best1_.NextEpoch();
  best2_.NextEpoch();
  // Both passes claim cells one at a time from the work-stealing loop, so
  // a handful of huge hub-level cells does not pin the round on whichever
  // worker drew them. The observe fold is a CAS-max — commutative — and
  // each cell's open list is written only by the task that claimed it, so
  // the schedule is unobservable in the result. Pairs below the threshold
  // are counted but never observed (the cell's `ForEach` screens most of
  // them on their count bytes alone).
  //
  // The observe pass also keeps each cell's open pairs: score >= T with
  // both endpoints unmatched, the only pairs the accept pass can take. The
  // maps change only in the commit pass, so these are exactly the pairs a
  // second scan of the cell would reach, in the same order, and the accept
  // pass reads them instead of the store.
  std::vector<NodeId>& map_1to2 = *ctx.map_1to2;
  std::vector<NodeId>& map_2to1 = *ctx.map_2to1;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> open_per_cell(
      cells.size());
  std::atomic<size_t> candidate_pairs{0};
  std::atomic<size_t> observed_pairs{0};
  ParallelForEach(
      ctx.pool, cells.size(),
      [this, &ctx, &cells, &map_1to2, &map_2to1, &open_per_cell,
       &candidate_pairs, &observed_pairs](size_t i) {
        size_t local_observed = 0;
        auto& open = open_per_cell[i];
        const size_t local_pairs = cells[i]->ForEach(
            ctx.min_score, [this, &map_1to2, &map_2to1, &open,
                            &local_observed](NodeId u, NodeId v,
                                             uint32_t score) {
              ++local_observed;
              best1_.Observe(u, score);
              best2_.Observe(v, score);
              if (map_1to2[u] == kInvalidNode &&
                  map_2to1[v] == kInvalidNode) {
                open.emplace_back(PackPair(u, v), score);
              }
            });
        candidate_pairs.fetch_add(local_pairs, std::memory_order_relaxed);
        observed_pairs.fetch_add(local_observed, std::memory_order_relaxed);
      });
  stats->candidate_pairs = candidate_pairs.load();
  stats->observed_pairs = observed_pairs.load();
  size_t open_pairs = 0;
  for (const auto& open : open_per_cell) open_pairs += open.size();
  stats->open_pairs = open_pairs;
  stats->scan_seconds = timer.Seconds();

  timer.Reset();
  // Accept pass: reads the cell's open list and the sealed best tables,
  // writes only its own cell's accept list.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> accepted_per_cell(
      cells.size());
  ParallelForEach(
      ctx.pool, cells.size(),
      [this, &open_per_cell, &accepted_per_cell](size_t i) {
        auto& list = accepted_per_cell[i];
        for (const auto& [key, score] : open_per_cell[i]) {
          const NodeId u = PairFirst(key);
          const NodeId v = PairSecond(key);
          if (best1_.IsUniqueBest(u, score) &&
              best2_.IsUniqueBest(v, score)) {
            list.emplace_back(u, v);
          }
        }
      });

  // Commit pass, in parallel: an exclusive prefix sum assigns cell i the
  // link-log slots after cells 0..i-1; unique best on both sides means no
  // two cells accept the same g1 or g2 node, so the map writes are
  // per-slot exclusive and the scatter is race-free. Layout is
  // byte-identical to committing the lists serially in cell order.
  std::vector<size_t> offsets(cells.size() + 1, 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    offsets[i + 1] = offsets[i] + accepted_per_cell[i].size();
  }
  const size_t accepted = offsets.back();
  std::vector<std::pair<NodeId, NodeId>>& links = *ctx.links;
  const size_t base = links.size();
  links.resize(base + accepted);
  ParallelForEach(
      ctx.pool, cells.size(),
      [&accepted_per_cell, &offsets, &links, &map_1to2, &map_2to1,
       base](size_t i) {
        size_t slot = base + offsets[i];
        for (const auto& [u, v] : accepted_per_cell[i]) {
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
