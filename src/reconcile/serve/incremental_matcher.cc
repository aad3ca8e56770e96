#include "reconcile/serve/incremental_matcher.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Mirrors core/matcher_state.cc: degree levels partition candidate pairs
// by the first bucket in which they become eligible.
constexpr int kNumLevels = 33;

int FloorLog2(NodeId x) {
  int log = 0;
  while (x > 1) {
    x >>= 1;
    ++log;
  }
  return log;
}

uint8_t LevelOf(NodeId degree) {
  return static_cast<uint8_t>(FloorLog2(std::max<NodeId>(1, degree)));
}

// Fold visible to no round: retraction never touched a stamp.
constexpr uint32_t kNoDirtyStamp = ~0u;

// Serve snapshot section ids and state version (independent of the batch
// matcher's — the two checkpoint families never cross-load).
constexpr uint32_t kServeStateVersion = 1;
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionGraph1 = 2;
constexpr uint32_t kSectionGraph2 = 3;
constexpr uint32_t kSectionLinks = 4;
constexpr uint32_t kSectionRounds = 5;
constexpr uint32_t kSectionScores = 6;

}  // namespace

IncrementalMatcher::IncrementalMatcher(
    Graph g1, Graph g2, std::span<const std::pair<NodeId, NodeId>> seeds,
    const ServeConfig& config)
    : config_(config),
      pool_(config.matcher.num_threads > 0 ? config.matcher.num_threads
                                           : ThreadPool::DefaultThreads()),
      num_shards_(config.matcher.num_shards > 0
                      ? config.matcher.num_shards
                      : std::max(4, pool_.num_threads())),
      o1_(std::move(g1)),
      o2_(std::move(g2)),
      selection_(o1_.num_nodes(), o2_.num_nodes(),
                 config.matcher.use_parallel_selection) {
  RECONCILE_CHECK_GE(config_.matcher.num_iterations, 1);
  RECONCILE_CHECK_GE(config_.matcher.min_bucket_exponent, 0);
  n1_pinned_ = o1_.num_nodes();
  cells_.resize(static_cast<size_t>(kNumLevels) *
                static_cast<size_t>(num_shards_));
  touched_cells_.assign(cells_.size(), 0);
  SyncDerivedState();
  num_seeds_ = seeds.size();
  seeds_.assign(seeds.begin(), seeds.end());
  links_.reserve(seeds.size());
  for (const auto& [u, v] : seeds) {
    RECONCILE_CHECK_LT(u, o1_.num_nodes());
    RECONCILE_CHECK_LT(v, o2_.num_nodes());
    RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode)
        << "duplicate seed for g1 node " << u;
    RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode)
        << "duplicate seed for g2 node " << v;
    map_1to2_[u] = v;
    map_2to1_[v] = u;
    links_.emplace_back(u, v);
  }
}

IncrementalMatcher::~IncrementalMatcher() = default;

void IncrementalMatcher::SyncDerivedState() {
  const NodeId n1 = o1_.num_nodes();
  const NodeId n2 = o2_.num_nodes();
  // Levels are recomputed wholesale: any node's degree may have moved.
  level1_.resize(n1);
  for (NodeId u = 0; u < n1; ++u) level1_[u] = LevelOf(o1_.degree(u));
  level2_.resize(n2);
  for (NodeId v = 0; v < n2; ++v) level2_[v] = LevelOf(o2_.degree(v));
  map_1to2_.resize(n1, kInvalidNode);
  map_2to1_.resize(n2, kInvalidNode);
  // The shard of an existing node never changes (the stored score runs
  // keyed under it must stay in their cells); new nodes extend the pinned
  // range partition, clamped into [0, S).
  const size_t old_n1 = shard1_.size();
  shard1_.resize(n1);
  const uint64_t denom = std::max<uint64_t>(1, n1_pinned_);
  for (NodeId u = static_cast<NodeId>(old_n1); u < n1; ++u) {
    shard1_[u] = static_cast<uint32_t>(
        std::min<uint64_t>(static_cast<uint64_t>(num_shards_) - 1,
                           static_cast<uint64_t>(u) *
                               static_cast<uint64_t>(num_shards_) / denom));
  }
  selection_.EnsureNodeCapacity(n1, n2);
}

size_t IncrementalMatcher::EmitLinks(
    std::span<const std::pair<NodeId, NodeId>> links, uint32_t stamp,
    int32_t sign, PhaseStats* stats, bool mark_dirty,
    const std::vector<uint8_t>* changed1, const std::vector<uint8_t>* changed2) {
  if (links.empty()) return 0;
  const NodeId dmin = static_cast<NodeId>(1u)
                      << config_.matcher.min_bucket_exponent;
  struct RadixDelta {
    std::vector<std::vector<std::vector<uint64_t>>> keys;  // [level][shard]
    uint64_t emissions = 0;
  };
  const size_t num_items = links.size();

  Timer emit_timer;
  // Same shape as the batch matcher's radix emission, over the overlay's
  // merged adjacency. The overlay iterates ascending by id (no
  // degree-descending order without a CSR), so the dmin cut is a filter
  // rather than a prefix break; SortAndCount absorbs any key order.
  //
  // With `changed1`/`changed2` set (the batch-apply retraction/re-emission
  // passes), the product is restricted to pairs with a changed-edge
  // endpoint on either side. That is exactly the set of pairs whose
  // contribution from this link can differ between the old and new graph
  // state: a pair's count depends on the link endpoints' adjacency (only
  // changed-endpoint members appear or vanish) and on each member's
  // degree — its level cell and dmin cut — which only moves for
  // changed-edge endpoints. Retracting and re-emitting just this slice
  // nets to the same per-(key, stamp) fold as the full product while
  // keeping the emission O(deg) per dirty link instead of O(deg^2) — and,
  // since the slice's pair levels are capped by the changed node's level,
  // low-degree churn stays out of high-level cells, which is what lets
  // high-bucket replay rounds keep fast-forwarding.
  auto emit_range = [this, links, dmin, changed1, changed2](
                        RadixDelta& delta, size_t lo, size_t hi) {
    if (delta.keys.empty()) delta.keys.resize(kNumLevels);
    auto& keys = delta.keys;
    auto in = [](const std::vector<uint8_t>* set, NodeId node) {
      return static_cast<size_t>(node) < set->size() &&
             (*set)[node] != 0;
    };
    std::vector<NodeId> changed_v;  // N(a2) ∩ changed2, per link
    for (size_t item = lo; item < hi; ++item) {
      const auto [a1, a2] = links[item];
      const bool restricted = changed1 != nullptr;
      if (restricted) {
        changed_v.clear();
        o2_.ForEachNeighbor(a2, [&](NodeId v) {
          if (o2_.degree(v) >= dmin && in(changed2, v)) {
            changed_v.push_back(v);
          }
        });
      }
      o1_.ForEachNeighbor(a1, [&](NodeId u) {
        if (o1_.degree(u) < dmin) return;
        const uint8_t lu = level1_[u];
        const uint32_t shard = shard1_[u];
        auto emit_pair = [&](NodeId v) {
          const uint8_t level = std::min(lu, level2_[v]);
          if (keys[level].empty()) {
            keys[level].resize(static_cast<size_t>(num_shards_));
          }
          keys[level][shard].push_back(PackPair(u, v));
          ++delta.emissions;
        };
        if (restricted && !in(changed1, u)) {
          // Unchanged g1 member: only pairs against changed g2 members.
          for (NodeId v : changed_v) emit_pair(v);
          return;
        }
        o2_.ForEachNeighbor(a2, [&](NodeId v) {
          if (o2_.degree(v) < dmin) return;
          emit_pair(v);
        });
      });
    }
  };
  const size_t grain =
      ThreadPool::GrainSize(num_items, pool_.num_threads(), 1, 64);
  std::vector<RadixDelta> deltas =
      ParallelProduce<RadixDelta>(&pool_, num_items, grain, emit_range);
  if (stats != nullptr) stats->emit_seconds += emit_timer.Seconds();

  Timer merge_timer;
  std::vector<uint8_t> call_touched;
  if (mark_dirty) call_touched.assign(cells_.size(), 0);
  uint8_t* const call_touched_ptr =
      call_touched.empty() ? nullptr : call_touched.data();
  ParallelForEach(
      &pool_, cells_.size(),
      [this, &deltas, stamp, sign, call_touched_ptr](size_t cell) {
        const size_t level = cell / static_cast<size_t>(num_shards_);
        const size_t shard = cell % static_cast<size_t>(num_shards_);
        size_t total = 0;
        for (const RadixDelta& delta : deltas) {
          if (delta.keys.empty()) continue;
          const auto& level_keys = delta.keys[level];
          if (level_keys.empty()) continue;
          total += level_keys[shard].size();
        }
        if (total == 0) return;
        std::vector<uint64_t> raw;
        raw.reserve(total);
        for (const RadixDelta& delta : deltas) {
          if (delta.keys.empty()) continue;
          const auto& level_keys = delta.keys[level];
          if (level_keys.empty()) continue;
          const auto& chunk = level_keys[shard];
          raw.insert(raw.end(), chunk.begin(), chunk.end());
        }
        std::vector<uint64_t> scratch;
        SortedCountRun run = SortAndCount(std::move(raw), scratch);
        cells_[cell].Append(stamp, std::move(run), sign);
        touched_cells_[cell] = 1;
        if (call_touched_ptr != nullptr) call_touched_ptr[cell] = 1;
      });
  if (mark_dirty) {
    for (size_t cell = 0; cell < call_touched.size(); ++cell) {
      if (call_touched[cell] == 0) continue;
      const size_t level = cell / static_cast<size_t>(num_shards_);
      level_dirty_stamp_[level] = std::min(level_dirty_stamp_[level], stamp);
    }
  }
  if (stats != nullptr) stats->merge_seconds += merge_timer.Seconds();

  size_t emissions = 0;
  for (const RadixDelta& delta : deltas) {
    emissions += static_cast<size_t>(delta.emissions);
  }
  if (stats != nullptr) stats->emissions += emissions;
  return emissions;
}

ServeBatchStats IncrementalMatcher::ApplyBatch(
    const std::vector<EdgeDelta>& deltas) {
  Timer timer;
  ServeBatchStats stats;
  stats.batch = batches_applied_ + 1;
  stats.deltas_in = deltas.size();
  std::fill(touched_cells_.begin(), touched_cells_.end(), 0);
  level_dirty_stamp_.assign(static_cast<size_t>(kNumLevels), kNoDirtyStamp);

  const NodeId old_n1 = o1_.num_nodes();
  const NodeId old_n2 = o2_.num_nodes();

  // (1) Net out the batch: per canonical edge key, the presence before the
  // batch and after it. Only edges whose presence *changed* end-to-end act
  // on the session — an insert/delete pair inside one batch, a re-insert
  // of a present edge, or a delete of an absent one are all no-ops.
  std::unordered_map<uint64_t, bool> initial[2], current[2];
  for (const EdgeDelta& d : deltas) {
    if (d.u == d.v) continue;  // self-loops never enter the graphs
    const int g = d.graph == 1 ? 0 : 1;
    const OverlayGraph& o = g == 0 ? o1_ : o2_;
    const uint64_t key = PackPair(std::min(d.u, d.v), std::max(d.u, d.v));
    auto [it, inserted] = current[g].try_emplace(key, false);
    if (inserted) {
      const bool present = o.HasEdge(d.u, d.v);
      initial[g].emplace(key, present);
      it->second = present;
    }
    it->second = d.insert;
  }
  std::vector<uint64_t> changed1, changed2;
  for (const auto& [key, now] : current[0]) {
    if (now != initial[0][key]) changed1.push_back(key);
  }
  for (const auto& [key, now] : current[1]) {
    if (now != initial[1][key]) changed2.push_back(key);
  }
  // Hash order is not deterministic; the rest of the batch is.
  std::sort(changed1.begin(), changed1.end());
  std::sort(changed2.begin(), changed2.end());
  stats.deltas_applied = changed1.size() + changed2.size();

  // (2) Dirty node sets over the *old* node range: the endpoints of
  // changed edges plus their old neighbours. A link's emission depends on
  // its endpoint's adjacency and on each neighbour's degree (level, dmin
  // cut); both kinds of change are covered — an adjacency change dirties
  // the endpoint itself, a neighbour's degree change dirties every node
  // adjacent to it.
  std::vector<uint8_t> dirty1(old_n1, 0), dirty2(old_n2, 0);
  auto mark_dirty = [](const OverlayGraph& o, NodeId node, NodeId old_n,
                       std::vector<uint8_t>& dirty) {
    if (node >= old_n) return;  // new node: no old links can touch it
    dirty[node] = 1;
    o.ForEachNeighbor(node, [&dirty](NodeId w) { dirty[w] = 1; });
  };
  for (uint64_t key : changed1) {
    mark_dirty(o1_, PairFirst(key), old_n1, dirty1);
    mark_dirty(o1_, PairSecond(key), old_n1, dirty1);
  }
  for (uint64_t key : changed2) {
    mark_dirty(o2_, PairFirst(key), old_n2, dirty2);
    mark_dirty(o2_, PairSecond(key), old_n2, dirty2);
  }
  stats.dirty_nodes =
      static_cast<size_t>(std::count(dirty1.begin(), dirty1.end(), 1)) +
      static_cast<size_t>(std::count(dirty2.begin(), dirty2.end(), 1));

  // Changed-edge endpoint flags (id-stable across the mutation), the
  // EmitLinks restriction sets: a dirty link's contribution differs
  // between old and new state only at pairs involving one of these nodes.
  std::vector<uint8_t> changed_nodes1, changed_nodes2;
  auto flag_endpoints = [](const std::vector<uint64_t>& changed,
                           std::vector<uint8_t>& flags) {
    for (uint64_t key : changed) {
      const NodeId hi = std::max(PairFirst(key), PairSecond(key));
      if (flags.size() <= static_cast<size_t>(hi)) {
        flags.resize(static_cast<size_t>(hi) + 1, 0);
      }
      flags[PairFirst(key)] = 1;
      flags[PairSecond(key)] = 1;
    }
  };
  flag_endpoints(changed1, changed_nodes1);
  flag_endpoints(changed2, changed_nodes2);

  // (3) Dirty links, grouped by the stamp they emitted at (seeds: 0; the
  // links of round k: k+1). On a fresh session nothing has emitted yet, so
  // there is nothing to retract — the replay emits everything.
  const size_t num_stamps = rounds_.size() + 1;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> dirty_by_stamp(
      num_stamps);
  if (seeds_emitted_) {
    size_t round = 0;
    for (size_t i = 0; i < links_.size(); ++i) {
      uint32_t stamp = 0;
      if (i >= num_seeds_) {
        while (round < rounds_.size() &&
               i >= rounds_[round].first_link + rounds_[round].num_links) {
          ++round;
        }
        RECONCILE_CHECK_LT(round, rounds_.size());
        stamp = static_cast<uint32_t>(round) + 1;
      }
      const auto [a1, a2] = links_[i];
      if (dirty1[a1] || dirty2[a2]) {
        dirty_by_stamp[stamp].push_back(links_[i]);
        ++stats.dirty_links;
      }
    }
  }

  // (4) Retraction: negative mirrors of the changed slice of every dirty
  // link's contributions — pairs with a changed-edge endpoint, the only
  // ones whose count or cell can differ — at the original stamps, against
  // the *old* graph state.
  for (size_t s = 0; s < num_stamps; ++s) {
    if (!dirty_by_stamp[s].empty()) {
      EmitLinks(dirty_by_stamp[s], static_cast<uint32_t>(s), -1, nullptr,
                /*mark_dirty=*/true, &changed_nodes1, &changed_nodes2);
    }
  }

  // (5) Apply the net deltas to the overlays (deterministic key order).
  for (uint64_t key : changed1) {
    const NodeId u = PairFirst(key), v = PairSecond(key);
    RECONCILE_CHECK(current[0][key] ? o1_.InsertEdge(u, v)
                                    : o1_.DeleteEdge(u, v));
  }
  for (uint64_t key : changed2) {
    const NodeId u = PairFirst(key), v = PairSecond(key);
    RECONCILE_CHECK(current[1][key] ? o2_.InsertEdge(u, v)
                                    : o2_.DeleteEdge(u, v));
  }

  // (6) Degrees moved: refresh levels, grow maps/shards/selection tables.
  SyncDerivedState();

  // Mid-batch fault hook: retraction is on disk-visible state (score runs)
  // but re-emission and replay have not happened. A `crash:serve_apply=k`
  // kill here is the worst case the checkpoint/resume contract must cover.
  FaultValuePoint("serve_apply", stats.batch);

  // (7) Re-emit the same changed slice of the dirty links at their
  // original stamps against the *new* state — every round's fold now sees
  // them as if they had always been emitted on the new graphs.
  for (size_t s = 0; s < num_stamps; ++s) {
    if (!dirty_by_stamp[s].empty()) {
      EmitLinks(dirty_by_stamp[s], static_cast<uint32_t>(s), +1, nullptr,
                /*mark_dirty=*/true, &changed_nodes1, &changed_nodes2);
    }
  }

  // (8) Fold each cell's runs within their stamps (retract + re-emit pairs
  // collapse; zero-net keys drop). Never across stamps — that would
  // destroy the "as of round r" cut.
  ParallelForEach(&pool_, cells_.size(),
                  [this](size_t cell) { cells_[cell].CompactStamps(); });

  // (9) Re-run the round schedule against the repaired score state.
  Replay(&stats);

  // (10) Bookkeeping.
  ++batches_applied_;
  stats.rescored_units = static_cast<size_t>(
      std::count(touched_cells_.begin(), touched_cells_.end(), 1));
  stats.num_links = links_.size();

  // (11) Overlay compaction cadence (scan speed only; results identical).
  if (config_.compact_overlay_every > 0 &&
      batches_applied_ % config_.compact_overlay_every == 0) {
    o1_.Compact(&pool_);
    o2_.Compact(&pool_);
  }
  stats.seconds = timer.Seconds();
  return stats;
}

void IncrementalMatcher::Replay(ServeBatchStats* stats) {
  const std::vector<std::pair<NodeId, NodeId>> old_links = std::move(links_);
  const std::vector<ServeRound> old_rounds = std::move(rounds_);
  links_.assign(old_links.begin(),
                old_links.begin() + static_cast<ptrdiff_t>(num_seeds_));
  rounds_.clear();
  std::fill(map_1to2_.begin(), map_1to2_.end(), kInvalidNode);
  std::fill(map_2to1_.begin(), map_2to1_.end(), kInvalidNode);
  for (const auto& [u, v] : links_) {
    map_1to2_[u] = v;
    map_2to1_[v] = u;
  }
  if (!seeds_emitted_) {
    EmitLinks(std::span(links_).first(num_seeds_), 0, +1, nullptr);
    seeds_emitted_ = true;
  }

  auto truncate_from = [this](uint32_t stamp) {
    ParallelForEach(&pool_, cells_.size(), [this, stamp](size_t cell) {
      cells_[cell].TruncateFrom(stamp);
    });
  };

  // Two-level accumulated fold, the serve analogue of an LSM memtable/L1
  // split: each cell keeps a large *cold* fold plus a small *hot* fold, the
  // two covering disjoint stamp windows up to the cell's watermark. Every
  // live round folds the newly visible stamps into the hot side
  // (`AccumulateInto` — O(hot + window), both small), and selection scans
  // cold + hot as a plain 2-way merge of sorted positive runs
  // (`ScoreUnit`), so the per-pair scan cost matches the batch engine's
  // tier scan instead of re-folding every stamp on every round. When the
  // hot side rivals the cold one it is *promoted* (`MergeFrom`) — an
  // O(cold) copy paid geometrically rarely; in a typical replay that
  // happens exactly once, at the first live round, where the window is the
  // whole pre-divergence history and cold is still empty (a free move).
  // Splitting an arbitrary stamp window off the prefix fold is sound
  // because retraction is stamp-local, so per-stamp — hence per-window —
  // nets are >= 0 (see AccumulateInto). The watermark advances even over
  // empty windows, keeping every stamp covered exactly once; the scanned
  // fold is identical whatever the promotion cadence, so matchings are
  // unaffected by it. A divergence truncation only drops stamps above
  // every watermark (the folds never run ahead of the round cursor), so
  // they never hold retracted state. Fast-forwarded rounds skip all of
  // this; the first live round's window covers the gap.
  std::vector<FoldedRun> fold_cold(cells_.size());
  std::vector<FoldedRun> fold_hot(cells_.size());
  std::vector<int> fold_watermark(cells_.size(), -1);
  auto advance_fold = [this, &fold_cold, &fold_hot, &fold_watermark](int k) {
    ParallelForEach(
        &pool_, cells_.size(),
        [this, &fold_cold, &fold_hot, &fold_watermark, k](size_t cell) {
          const int watermark = fold_watermark[cell];
          if (k <= watermark) return;
          const uint32_t from = static_cast<uint32_t>(watermark + 1);
          cells_[cell].AccumulateInto(from, static_cast<uint32_t>(k),
                                      &fold_hot[cell]);
          fold_watermark[cell] = k;
          FoldedRun& hot = fold_hot[cell];
          FoldedRun& cold = fold_cold[cell];
          if (hot.keys.size() < std::max<size_t>(cold.keys.size() / 2, 1)) {
            return;  // hot still small; scans 2-way-merge it with cold
          }
          // Promotion. First, dead-key prune the cold fold with
          // `CompactScores`' predicate: a pair with both endpoints matched
          // influences only best-table slots that blocked queries never
          // read, so dropping it cannot change any accepted link — and
          // matched stays matched for the rest of the replay. The batch
          // engine prunes its tiers the same way; serve must leave `cells_`
          // intact for retraction, so the prune lives here, on the
          // transient fold. (A pruned key re-entering from a later window
          // carries a partial net; the selection scan's blocker check
          // rejects it regardless.)
          size_t out = 0;
          for (size_t i = 0; i < cold.keys.size(); ++i) {
            const uint64_t key = cold.keys[i];
            if (map_1to2_[PairFirst(key)] == kInvalidNode ||
                map_2to1_[PairSecond(key)] == kInvalidNode) {
              cold.keys[out] = key;
              cold.counts[out] = cold.counts[i];
              ++out;
            }
          }
          cold.keys.resize(out);
          cold.counts.resize(out);
          cold.MergeFrom(std::move(hot));
        });
  };

  // Per-bucket fast-forward threshold: round k at bucket b scans levels
  // [b, kNumLevels) only, so it reproduces the logged links as long as no
  // dirty stamp <= k landed in those levels (and the incoming maps match —
  // `aligned`). `clean_above[b]` is the suffix-min of level_dirty_stamp_,
  // i.e. the first round index at which some scanned level becomes dirty.
  // Dirty scores below the round's bucket — the common case for churn on
  // low-degree nodes — no longer force high-bucket rounds live.
  std::vector<uint32_t> clean_above(static_cast<size_t>(kNumLevels) + 1,
                                    kNoDirtyStamp);
  for (int level = kNumLevels - 1; level >= 0; --level) {
    clean_above[static_cast<size_t>(level)] =
        std::min(clean_above[static_cast<size_t>(level) + 1],
                 level_dirty_stamp_[static_cast<size_t>(level)]);
  }

  // The cursor mirrors MatcherState exactly: buckets top..bottom per outer
  // iteration (single min-bucket round without bucketing), stop at the
  // iteration cap or on a stable iteration.
  const MatcherConfig& mc = config_.matcher;
  const NodeId max_degree = std::max(o1_.MaxDegree(), o2_.MaxDegree());
  const int top =
      mc.use_degree_bucketing && max_degree > 0 ? FloorLog2(max_degree) : 0;
  const int bottom = std::min(mc.min_bucket_exponent, top);
  int iteration = 1;
  int bucket = mc.use_degree_bucketing ? top : mc.min_bucket_exponent;
  size_t new_links_this_iteration = 0;
  // `aligned` holds while every round so far re-committed exactly the old
  // round's links at the old schedule position — the invariant that makes
  // both the fast-forward and the no-re-emission cases sound.
  bool aligned = true;
  int k = 0;
  bool done = false;
  while (!done) {
    const bool have_old = k < static_cast<int>(old_rounds.size());
    const bool coords_match = have_old &&
                              old_rounds[k].iteration == iteration &&
                              old_rounds[k].bucket == bucket;
    size_t accepted = 0;
    const size_t ff_bucket = static_cast<size_t>(
        std::clamp(bucket, 0, kNumLevels));
    if (aligned && coords_match &&
        static_cast<uint32_t>(k) < clean_above[ff_bucket]) {
      // Fast-forward: every score this round folds (stamps <= k, levels >=
      // bucket) is untouched by the batch and the incoming maps are
      // identical, so selection would reproduce the logged links verbatim.
      // Apply them from the log without selecting.
      const ServeRound& r = old_rounds[k];
      const size_t first = links_.size();
      RECONCILE_CHECK_EQ(first, static_cast<size_t>(r.first_link));
      for (uint64_t i = r.first_link; i < r.first_link + r.num_links; ++i) {
        const auto [u, v] = old_links[i];
        RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode);
        RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode);
        map_1to2_[u] = v;
        map_2to1_[v] = u;
        links_.push_back(old_links[i]);
      }
      rounds_.push_back(ServeRound{iteration, bucket,
                                   static_cast<uint64_t>(first),
                                   r.num_links});
      accepted = static_cast<size_t>(r.num_links);
      ++stats->skipped_rounds;
    } else {
      // Live round: full selection over the fold as of stamp k.
      Timer round_timer;
      PhaseStats phase;
      phase.iteration = iteration;
      phase.bucket_exponent = bucket;
      phase.links_in = links_.size();
      phase.num_threads = pool_.num_threads();
      advance_fold(k);
      std::vector<ScoreUnit> units;
      units.reserve(static_cast<size_t>(kNumLevels - bucket) *
                    static_cast<size_t>(num_shards_));
      for (int level = bucket; level < kNumLevels; ++level) {
        for (int shard = 0; shard < num_shards_; ++shard) {
          const size_t cell =
              static_cast<size_t>(level) * static_cast<size_t>(num_shards_) +
              static_cast<size_t>(shard);
          units.push_back(ScoreUnit(&fold_cold[cell], &fold_hot[cell]));
        }
      }
      SelectionContext ctx;
      ctx.pool = &pool_;
      ctx.min_score = mc.min_score;
      ctx.map_1to2 = &map_1to2_;
      ctx.map_2to1 = &map_2to1_;
      ctx.links = &links_;
      const size_t first = links_.size();
      accepted = selection_.SelectAndCommit(units, ctx, &phase);
      // Canonical round order: sort by g1 endpoint (unique within a round),
      // so the comparison against the old log is plain range equality and
      // the log layout is identical however selection was scheduled.
      std::sort(links_.begin() + static_cast<ptrdiff_t>(first), links_.end());
      rounds_.push_back(ServeRound{iteration, bucket,
                                   static_cast<uint64_t>(first),
                                   static_cast<uint64_t>(accepted)});
      ++stats->replayed_rounds;

      bool emit_fresh = true;
      if (aligned && coords_match) {
        const ServeRound& r = old_rounds[k];
        const bool equal =
            accepted == static_cast<size_t>(r.num_links) &&
            std::equal(links_.begin() + static_cast<ptrdiff_t>(first),
                       links_.end(),
                       old_links.begin() +
                           static_cast<ptrdiff_t>(r.first_link));
        if (equal) {
          // Same links as last time: their stamp-(k+1) contributions are
          // already in the cells (re-emitted if dirty) — emitting again
          // would double-count.
          emit_fresh = false;
        } else {
          aligned = false;
          stats->diverged_at = k;
          // Every later stamp reflects the old chain of rounds; drop them
          // all — the live continuation re-emits as it goes.
          truncate_from(static_cast<uint32_t>(k) + 1);
        }
      } else if (aligned) {
        aligned = false;
        if (have_old) {
          // Schedule shape changed at k (degree growth moved the top
          // bucket): the old log is stale from here on.
          stats->diverged_at = k;
          truncate_from(static_cast<uint32_t>(k) + 1);
        }
        // Past the old log's end: nothing stale to drop.
      }
      if (emit_fresh) {
        EmitLinks(std::span<const std::pair<NodeId, NodeId>>(links_)
                      .subspan(first),
                  static_cast<uint32_t>(k) + 1, +1, &phase);
      }
      phase.new_links = accepted;
      phase.seconds = round_timer.Seconds();
      stats->rounds.push_back(phase);
    }
    new_links_this_iteration += accepted;
    ++k;
    if (mc.use_degree_bucketing && bucket > bottom) {
      --bucket;
    } else if ((mc.stop_when_stable && new_links_this_iteration == 0) ||
               iteration >= mc.num_iterations) {
      done = true;
    } else {
      ++iteration;
      new_links_this_iteration = 0;
      bucket = mc.use_degree_bucketing ? top : mc.min_bucket_exponent;
    }
  }
  stats->total_rounds = k;
  // The new schedule ended while still aligned but the old one ran longer
  // (shrunk top bucket / earlier stability): the old tail's stamps are
  // stale.
  if (aligned && static_cast<int>(old_rounds.size()) > k) {
    truncate_from(static_cast<uint32_t>(k) + 1);
  }

  std::unordered_set<uint64_t> old_set;
  old_set.reserve(old_links.size());
  for (const auto& [u, v] : old_links) old_set.insert(PackPair(u, v));
  for (const auto& [u, v] : links_) {
    if (old_set.erase(PackPair(u, v)) == 0) ++stats->links_added;
  }
  stats->links_removed = old_set.size();
}

MatchResult IncrementalMatcher::Result() const {
  MatchResult result;
  result.seeds.assign(links_.begin(),
                      links_.begin() + static_cast<ptrdiff_t>(num_seeds_));
  result.map_1to2 = map_1to2_;
  result.map_2to1 = map_2to1_;
  return result;
}

// --- Snapshots -----------------------------------------------------------

bool IncrementalMatcher::SaveSnapshot(const std::string& path,
                                      std::string* error) const {
  SnapshotWriter writer;

  writer.BeginSection(kSectionMeta);
  writer.AppendU32(kServeStateVersion);
  writer.AppendU32(config_.matcher.min_score);
  writer.AppendI32(config_.matcher.num_iterations);
  writer.AppendU8(config_.matcher.use_degree_bucketing ? 1 : 0);
  writer.AppendI32(config_.matcher.min_bucket_exponent);
  writer.AppendU8(config_.matcher.stop_when_stable ? 1 : 0);
  writer.AppendI32(num_shards_);
  writer.AppendU64(n1_pinned_);
  writer.AppendI32(batches_applied_);
  writer.AppendU64(deltas_consumed_);
  writer.AppendU64(num_seeds_);
  writer.AppendU8(seeds_emitted_ ? 1 : 0);
  writer.AppendU64(links_.size());
  writer.AppendU64(rounds_.size());
  writer.EndSection();

  // Self-contained: the snapshot carries both graphs (canonical edge
  // lists), so a resume needs no replay of the delta stream to rebuild
  // them.
  writer.BeginSection(kSectionGraph1);
  writer.AppendU64(o1_.num_nodes());
  writer.AppendVector(o1_.Materialize().edges());
  writer.EndSection();
  writer.BeginSection(kSectionGraph2);
  writer.AppendU64(o2_.num_nodes());
  writer.AppendVector(o2_.Materialize().edges());
  writer.EndSection();

  writer.BeginSection(kSectionLinks);
  writer.AppendVector(links_);
  writer.EndSection();

  writer.BeginSection(kSectionRounds);
  for (const ServeRound& r : rounds_) {
    writer.AppendI32(r.iteration);
    writer.AppendI32(r.bucket);
    writer.AppendU64(r.first_link);
    writer.AppendU64(r.num_links);
  }
  writer.EndSection();

  writer.BeginSection(kSectionScores);
  for (const StampedRuns& cell : cells_) {
    writer.AppendU32(static_cast<uint32_t>(cell.num_runs()));
    for (const StampedRun& run : cell.runs()) {
      writer.AppendU32(run.stamp);
      writer.AppendVector(run.keys);
      writer.AppendVector(run.counts);
    }
  }
  writer.EndSection();

  return writer.Commit(path, error);
}

bool IncrementalMatcher::LoadSnapshot(const std::string& path,
                                      std::string* error) {
  SnapshotReader reader;
  if (!reader.Open(path, error)) return false;

  SnapshotReader::Section* meta = reader.Find(kSectionMeta);
  if (meta == nullptr) {
    *error = "snapshot has no META section";
    return false;
  }
  uint32_t version = 0, min_score = 0;
  int32_t num_iterations = 0, min_bucket_exponent = 0, num_shards = 0;
  int32_t batches_applied = 0;
  uint8_t bucketing = 0, stop_when_stable = 0, seeds_emitted = 0;
  uint64_t n1_pinned = 0, deltas_consumed = 0, num_seeds = 0, num_links = 0,
           num_rounds = 0;
  meta->ReadU32(&version);
  meta->ReadU32(&min_score);
  meta->ReadI32(&num_iterations);
  meta->ReadU8(&bucketing);
  meta->ReadI32(&min_bucket_exponent);
  meta->ReadU8(&stop_when_stable);
  meta->ReadI32(&num_shards);
  meta->ReadU64(&n1_pinned);
  meta->ReadI32(&batches_applied);
  meta->ReadU64(&deltas_consumed);
  meta->ReadU64(&num_seeds);
  meta->ReadU8(&seeds_emitted);
  meta->ReadU64(&num_links);
  meta->ReadU64(&num_rounds);
  if (!meta->ok() || !meta->AtEnd()) {
    *error = "META section malformed";
    return false;
  }
  if (version != kServeStateVersion) {
    *error = "serve state version mismatch";
    return false;
  }
  const MatcherConfig& mc = config_.matcher;
  if (min_score != mc.min_score || num_iterations != mc.num_iterations ||
      (bucketing != 0) != mc.use_degree_bucketing ||
      min_bucket_exponent != mc.min_bucket_exponent ||
      (stop_when_stable != 0) != mc.stop_when_stable) {
    *error = "snapshot was taken under different matching semantics";
    return false;
  }
  if (num_shards != num_shards_) {
    *error = "snapshot shard count " + std::to_string(num_shards) +
             " != configured " + std::to_string(num_shards_) +
             " (pass --shards explicitly to resume)";
    return false;
  }
  if (num_seeds != seeds_.size()) {
    *error = "snapshot seed count mismatch";
    return false;
  }
  if (num_seeds > num_links) {
    *error = "snapshot link log shorter than its seed prefix";
    return false;
  }

  auto load_graph = [&reader, error](uint32_t id, const char* name,
                                     Graph* out) -> bool {
    SnapshotReader::Section* section = reader.Find(id);
    if (section == nullptr) {
      *error = std::string("snapshot has no ") + name + " section";
      return false;
    }
    uint64_t num_nodes = 0;
    std::vector<Edge> edges;
    if (!section->ReadU64(&num_nodes) || !section->ReadVector(&edges) ||
        !section->AtEnd()) {
      *error = std::string(name) + " section malformed";
      return false;
    }
    EdgeList list(static_cast<NodeId>(num_nodes));
    list.Reserve(edges.size());
    for (const auto& [u, v] : edges) {
      if (u >= num_nodes || v >= num_nodes || u == v) {
        *error = std::string(name) + " section has an out-of-range edge";
        return false;
      }
      list.Add(u, v);
    }
    *out = Graph::FromEdgeList(std::move(list), nullptr);
    if (out->num_nodes() != num_nodes || out->num_edges() != edges.size()) {
      *error = std::string(name) + " section has duplicate edges";
      return false;
    }
    return true;
  };
  Graph g1, g2;
  if (!load_graph(kSectionGraph1, "GRAPH1", &g1)) return false;
  if (!load_graph(kSectionGraph2, "GRAPH2", &g2)) return false;

  SnapshotReader::Section* links_section = reader.Find(kSectionLinks);
  if (links_section == nullptr) {
    *error = "snapshot has no LINKS section";
    return false;
  }
  std::vector<std::pair<NodeId, NodeId>> links;
  if (!links_section->ReadVector(&links) || !links_section->AtEnd() ||
      links.size() != num_links) {
    *error = "LINKS section malformed";
    return false;
  }
  for (size_t i = 0; i < seeds_.size(); ++i) {
    if (links[i] != seeds_[i]) {
      *error = "snapshot seed prefix does not match the provided seeds";
      return false;
    }
  }
  std::vector<NodeId> map_1to2(g1.num_nodes(), kInvalidNode);
  std::vector<NodeId> map_2to1(g2.num_nodes(), kInvalidNode);
  for (const auto& [u, v] : links) {
    if (u >= g1.num_nodes() || v >= g2.num_nodes() ||
        map_1to2[u] != kInvalidNode || map_2to1[v] != kInvalidNode) {
      *error = "LINKS section is not a one-to-one in-range matching";
      return false;
    }
    map_1to2[u] = v;
    map_2to1[v] = u;
  }

  SnapshotReader::Section* rounds_section = reader.Find(kSectionRounds);
  if (rounds_section == nullptr) {
    *error = "snapshot has no ROUNDS section";
    return false;
  }
  std::vector<ServeRound> rounds;
  rounds.reserve(static_cast<size_t>(num_rounds));
  uint64_t cursor = num_seeds;
  for (uint64_t i = 0; i < num_rounds; ++i) {
    ServeRound r;
    rounds_section->ReadI32(&r.iteration);
    rounds_section->ReadI32(&r.bucket);
    rounds_section->ReadU64(&r.first_link);
    rounds_section->ReadU64(&r.num_links);
    if (!rounds_section->ok() || r.first_link != cursor ||
        r.num_links > num_links - cursor) {
      *error = "ROUNDS section does not tile the link log";
      return false;
    }
    cursor += r.num_links;
    rounds.push_back(r);
  }
  if (!rounds_section->AtEnd() || cursor != num_links) {
    *error = "ROUNDS section does not tile the link log";
    return false;
  }

  SnapshotReader::Section* scores = reader.Find(kSectionScores);
  if (scores == nullptr) {
    *error = "snapshot has no SCORES section";
    return false;
  }
  std::vector<StampedRuns> cells(cells_.size());
  bool scores_valid = true;
  for (StampedRuns& cell : cells) {
    uint32_t runs = 0;
    if (!scores->ReadU32(&runs)) {
      scores_valid = false;
      break;
    }
    for (uint32_t i = 0; i < runs && scores_valid; ++i) {
      StampedRun run;
      scores->ReadU32(&run.stamp);
      scores->ReadVector(&run.keys);
      scores->ReadVector(&run.counts);
      if (!scores->ok() || run.keys.size() != run.counts.size() ||
          run.stamp > num_rounds) {
        scores_valid = false;
        break;
      }
      cell.AppendRaw(std::move(run));
    }
    if (!scores_valid) break;
  }
  if (!scores_valid || !scores->ok() || !scores->AtEnd()) {
    *error = "SCORES section malformed";
    return false;
  }

  // Everything validated — commit.
  o1_ = OverlayGraph(std::move(g1));
  o2_ = OverlayGraph(std::move(g2));
  n1_pinned_ = n1_pinned;
  shard1_.clear();
  map_1to2_ = std::move(map_1to2);
  map_2to1_ = std::move(map_2to1);
  links_ = std::move(links);
  rounds_ = std::move(rounds);
  cells_ = std::move(cells);
  touched_cells_.assign(cells_.size(), 0);
  seeds_emitted_ = seeds_emitted != 0;
  batches_applied_ = batches_applied;
  deltas_consumed_ = deltas_consumed;
  SyncDerivedState();
  return true;
}

}  // namespace reconcile
