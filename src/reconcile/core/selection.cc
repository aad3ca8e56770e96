#include "reconcile/core/selection.h"

#include <atomic>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/timer.h"

namespace reconcile {

SelectionEngine::SelectionEngine(size_t n1, size_t n2)
    : best1_(n1), best2_(n2) {}

void SelectionEngine::StartIteration() {
  best1_.NextEpoch();
  best2_.NextEpoch();
}

void SelectionEngine::Scan(std::vector<SelectionCell>& cells,
                           const SelectionContext& ctx, bool keep_open,
                           size_t* reads, size_t* folds) {
  // Cells are claimed one at a time from the loop's shared cursor, so a
  // handful of huge hub-level cells does not pin the round on whichever
  // worker drew them. The fold is a CAS-max — commutative — and each cell's
  // open list is written only by the task that claimed it, so the schedule
  // is unobservable in the result. Pairs below the threshold are counted
  // but never observed (the cell's `ForEach` screens most of them on their
  // count bytes alone). The maps change only in the commit pass, so the
  // open pairs kept here are those the accept pass would find.
  const std::vector<NodeId>& map_1to2 = *ctx.map_1to2;
  const std::vector<NodeId>& map_2to1 = *ctx.map_2to1;
  std::atomic<size_t> total_reads{0};
  std::atomic<size_t> total_folds{0};
  ParallelForEach(
      ctx.pool, cells.size(),
      [this, &ctx, &cells, &map_1to2, &map_2to1, keep_open, &total_reads,
       &total_folds](size_t i) {
        if (cells[i].scan == nullptr) return;
        size_t local_folds = 0;
        auto& open = cells[i].open;
        const size_t local_reads = cells[i].scan->ForEach(
            ctx.min_score, [this, &map_1to2, &map_2to1, &open, keep_open,
                            &local_folds](NodeId u, NodeId v, uint32_t score) {
              ++local_folds;
              best1_.Observe(u, score);
              best2_.Observe(v, score);
              if (keep_open && map_1to2[u] == kInvalidNode &&
                  map_2to1[v] == kInvalidNode) {
                open.emplace_back(PackPair(u, v), score);
              }
            });
        total_reads.fetch_add(local_reads, std::memory_order_relaxed);
        total_folds.fetch_add(local_folds, std::memory_order_relaxed);
      });
  *reads += total_reads.load();
  *folds += total_folds.load();
}

void SelectionEngine::Reseed(std::vector<SelectionCell>& cells,
                             const SelectionContext& ctx) {
  size_t reads = 0, folds = 0;
  Scan(cells, ctx, /*keep_open=*/false, &reads, &folds);
}

size_t SelectionEngine::SelectAndCommit(std::vector<SelectionCell>& cells,
                                        const SelectionContext& ctx,
                                        PhaseStats* stats) {
  Timer timer;
  Scan(cells, ctx, /*keep_open=*/true, &stats->candidate_pairs,
       &stats->observed_pairs);
  size_t open_pairs = 0;
  for (const SelectionCell& cell : cells) open_pairs += cell.open.size();
  stats->open_pairs = open_pairs;
  stats->scan_seconds = timer.Seconds();

  timer.Reset();
  // Accept pass: reads the cell's open list and the sealed best tables,
  // writes only its own cell's accept list.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> accepted_per_cell(
      cells.size());
  ParallelForEach(
      ctx.pool, cells.size(), [this, &cells, &accepted_per_cell](size_t i) {
        auto& list = accepted_per_cell[i];
        for (const auto& [key, score] : cells[i].open) {
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
  std::vector<NodeId>& map_1to2 = *ctx.map_1to2;
  std::vector<NodeId>& map_2to1 = *ctx.map_2to1;
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
