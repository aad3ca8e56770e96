#include "reconcile/core/matcher_state.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>

#include "reconcile/mr/mapreduce.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Degree levels partition candidate pairs by the first bucket in which
// they become eligible: level(u, v) = min(log2 d1(u), log2 d2(v)), so the
// pairs eligible at bucket threshold 2^j are exactly those stored at levels
// >= j.
constexpr int kNumLevels = 33;

int FloorLog2(NodeId x) {
  int log = 0;
  while (x > 1) {
    x >>= 1;
    ++log;
  }
  return log;
}

// Nodes/edges/degree-sequence mix binding a snapshot to its graph pair. A
// sanity check against resuming into the wrong run, not a collision-proof
// content hash.
uint64_t GraphFingerprint(const Graph& g) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) mix(g.degree(v));
  return h;
}

// Snapshot section ids (see SaveSnapshot for the layout).
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionLinks = 2;
constexpr uint32_t kSectionScoresHash = 3;
constexpr uint32_t kSectionScoresRadix = 4;

// Bumped whenever the META/LINKS/SCORES payloads change shape.
constexpr uint32_t kMatcherStateVersion = 1;

// floor(log2(max(1, degree))) per node — the per-node half of the level
// function above.
std::vector<uint8_t> DegreeLevels(const Graph& g) {
  std::vector<uint8_t> levels(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    levels[v] =
        static_cast<uint8_t>(FloorLog2(std::max<NodeId>(1, g.degree(v))));
  }
  return levels;
}

std::vector<uint32_t> RadixShardTable(NodeId n1, int num_shards) {
  // Range partition on the high key bits (the g1 node id): shard(u, v) =
  // u * S / n1, precomputed per node so the emission loop pays one array
  // load instead of a hash mix or a 64-bit divide. Each shard owns a
  // contiguous key interval, so per-shard runs stay disjoint and their
  // concatenation is globally sorted.
  const uint64_t n = std::max<uint64_t>(1, n1);
  std::vector<uint32_t> table(n1);
  for (NodeId u = 0; u < n1; ++u) {
    table[u] = static_cast<uint32_t>(static_cast<uint64_t>(u) *
                                     static_cast<uint64_t>(num_shards) / n);
  }
  return table;
}

// The score state's shard width: one shard per 512 g1 nodes, clamped to
// [1, 256]. It depends on n1 alone, never on the thread count, so a run's
// SCORES layout is fixed by the graph pair its snapshots are fingerprinted
// against and a snapshot resumes under any thread count. Each round's
// sort-and-merge and selection scan run one (level, shard) cell per claim,
// so the width is what lets the hot levels spread over the workers. The
// constants come from a sweep on the e2ebench workloads (DESIGN.md §2.3).
int ShardWidth(NodeId n1) {
  constexpr NodeId kNodesPerShard = 512;
  constexpr NodeId kMaxShards = 256;
  return static_cast<int>(
      std::clamp<NodeId>(n1 / kNodesPerShard, 1, kMaxShards));
}

// The top degree-bucket exponent of the round schedule (0 when bucketing is
// off or both graphs are empty).
int TopBucketExponent(const Graph& g1, const Graph& g2,
                      const MatcherConfig& config) {
  const NodeId max_degree = std::max(g1.max_degree(), g2.max_degree());
  return config.use_degree_bucketing && max_degree > 0 ? FloorLog2(max_degree)
                                                       : 0;
}

}  // namespace

MatcherState::MatcherState(const Graph& g1, const Graph& g2,
                           const MatcherConfig& config)
    : g1_(g1),
      g2_(g2),
      config_(config),
      pool_(config.num_threads > 0 ? config.num_threads
                                   : ThreadPool::DefaultThreads()),
      tier_policy_{config.lsm_max_tiers, config.lsm_size_ratio},
      num_shards_(ShardWidth(g1.num_nodes())),
      map_1to2_(g1.num_nodes(), kInvalidNode),
      map_2to1_(g2.num_nodes(), kInvalidNode),
      selection_(g1.num_nodes(), g2.num_nodes(),
                 config.use_parallel_selection) {
  RECONCILE_CHECK_GE(config.min_bucket_exponent, 0);
  RECONCILE_CHECK_LE(config.min_bucket_exponent, 31);
  level1_ = DegreeLevels(g1);
  level2_ = DegreeLevels(g2);
  if (config.use_incremental_scoring) {
    if (config.scoring_backend == ScoringBackend::kRadixSort) {
      runs_.resize(kNumLevels);
      for (auto& level : runs_) {
        level.resize(static_cast<size_t>(num_shards_));
      }
    } else {
      scores_.resize(kNumLevels);
      for (auto& level : scores_) {
        level = std::vector<FlatCountMap>(static_cast<size_t>(num_shards_));
      }
    }
  }
  if (config.scoring_backend == ScoringBackend::kRadixSort) {
    radix_shard1_ = RadixShardTable(g1.num_nodes(), num_shards_);
  }
  if (config.memory_budget_bytes > 0) {
    // The budget is enforced by spilling radix tier stacks; the hash
    // backend's open-addressed shards have no flat spillable form, and the
    // recompute engine keeps no cross-round score state to spill. Both
    // cases run unbudgeted with a one-line note rather than failing — the
    // budget is a resource knob, not a semantic one.
    if (!config.use_incremental_scoring ||
        config.scoring_backend != ScoringBackend::kRadixSort) {
      std::fprintf(stderr,
                   "warning: --memory-budget requires the incremental radix "
                   "backend; running unbudgeted\n");
    } else if (config.score_dir.empty()) {
      std::fprintf(stderr,
                   "warning: --memory-budget without --score-dir; running "
                   "unbudgeted\n");
    } else {
      spill_store_ = std::make_unique<SpillStore>(config.score_dir);
    }
  }
  graph_fp1_ = GraphFingerprint(g1);
  graph_fp2_ = GraphFingerprint(g2);

  top_exponent_ = TopBucketExponent(g1, g2, config);
  bottom_exponent_ = std::min(config.min_bucket_exponent, top_exponent_);
  current_bucket_ = config.use_degree_bucketing ? top_exponent_
                                                : config.min_bucket_exponent;
}

MatcherState::~MatcherState() = default;

void MatcherState::SeedLinks(
    std::span<const std::pair<NodeId, NodeId>> seeds) {
  RECONCILE_CHECK(!seeded_) << "SeedLinks called twice";
  RECONCILE_CHECK_EQ(links_.size(), 0u);
  seeded_ = true;
  num_seeds_ = seeds.size();
  for (const auto& [u, v] : seeds) {
    RECONCILE_CHECK_LT(u, g1_.num_nodes());
    RECONCILE_CHECK_LT(v, g2_.num_nodes());
    RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode)
        << "duplicate seed for g1 node " << u;
    RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode)
        << "duplicate seed for g2 node " << v;
    map_1to2_[u] = v;
    map_2to1_[v] = u;
    links_.emplace_back(u, v);
  }
}

size_t MatcherState::RunRound() {
  RECONCILE_CHECK(seeded_) << "RunRound before SeedLinks";
  RECONCILE_CHECK(!done_) << "RunRound on a finished state";
  const size_t accepted = Round(iteration_, current_bucket_);
  ++completed_rounds_;
  new_links_this_iteration_ += accepted;
  AdvanceCursor();
  return accepted;
}

// Advances the flattened (iteration, bucket) cursor past the round that
// just ran — the exact schedule the old driver loop produced: buckets
// top..bottom per iteration (one round per iteration without bucketing),
// stop at the iteration cap or on a stable iteration, compact the score
// state between iterations.
void MatcherState::AdvanceCursor() {
  if (config_.use_degree_bucketing && current_bucket_ > bottom_exponent_) {
    --current_bucket_;
    return;
  }
  // The round that just ran closed iteration `iteration_`.
  if ((config_.stop_when_stable && new_links_this_iteration_ == 0) ||
      iteration_ >= config_.num_iterations) {
    done_ = true;
    return;
  }
  CompactScores();
  ++iteration_;
  new_links_this_iteration_ = 0;
  current_bucket_ = config_.use_degree_bucketing ? top_exponent_
                                                 : config_.min_bucket_exponent;
}

// One scoring round at bucket exponent `bucket_exponent` (candidates must
// have degree >= 2^bucket_exponent on both sides). Returns links accepted.
size_t MatcherState::Round(int iteration, int bucket_exponent) {
  return config_.use_incremental_scoring
             ? RoundIncremental(iteration, bucket_exponent)
             : RoundRecompute(iteration, bucket_exponent);
}

// Drops dead entries (pairs with a matched endpoint) from the persistent
// score maps; called between outer iterations to keep scans and memory
// proportional to the live frontier.
void MatcherState::CompactScores() {
  if (!config_.use_incremental_scoring) return;
  const size_t cells =
      static_cast<size_t>(kNumLevels) * static_cast<size_t>(num_shards_);
  if (config_.scoring_backend == ScoringBackend::kRadixSort) {
    // Tier stacks compact with an in-place filtering sweep per tier — no
    // rebuild, no rehash, order preserved. The liveness predicate depends
    // on the key alone, so filtering tiers independently preserves every
    // key's cross-tier total.
    ParallelForEach(&pool_, cells, [this](size_t cell) {
      TieredCountRuns& store = runs_[cell / static_cast<size_t>(num_shards_)]
                                    [cell % static_cast<size_t>(num_shards_)];
      if (store.empty()) return;
      store.Filter([this](uint64_t key, uint32_t) {
        return map_1to2_[PairFirst(key)] == kInvalidNode ||
               map_2to1_[PairSecond(key)] == kInvalidNode;
      });
    });
    return;
  }
  ParallelForEach(&pool_, cells, [this](size_t cell) {
    FlatCountMap& shard = scores_[cell / static_cast<size_t>(num_shards_)]
                                 [cell % static_cast<size_t>(num_shards_)];
    if (shard.empty()) return;
    FlatCountMap compacted(shard.size());
    shard.ForEach([this, &compacted](uint64_t key, uint32_t count) {
      if (map_1to2_[PairFirst(key)] == kInvalidNode ||
          map_2to1_[PairSecond(key)] == kInvalidNode) {
        compacted.AddCount(key, count);
      }
    });
    shard = std::move(compacted);
  });
}

MatchResult MatcherState::TakeResult(double total_seconds) {
  MatchResult result;
  result.seeds.assign(links_.begin(),
                      links_.begin() + static_cast<ptrdiff_t>(num_seeds_));
  result.map_1to2 = std::move(map_1to2_);
  result.map_2to1 = std::move(map_2to1_);
  result.phases = std::move(phases_);
  result.total_seconds = total_seconds;
  return result;
}

// Applies the mutual-unique-best rule over the scored pairs held in
// `units` through the shared `SelectionEngine` (`core/selection.h`), which
// commits accepted links directly into the maps and the link log.
size_t MatcherState::SelectAndCommit(const std::vector<ScoreUnit>& units,
                                     PhaseStats* stats) {
  SelectionContext ctx;
  ctx.pool = &pool_;
  ctx.min_score = config_.min_score;
  ctx.map_1to2 = &map_1to2_;
  ctx.map_2to1 = &map_2to1_;
  ctx.links = &links_;
  return selection_.SelectAndCommit(units, ctx, stats);
}

// --- Incremental engine --------------------------------------------------
// Witness scores are additive over links, so each link's neighbour-pair
// contributions are emitted exactly once — when the link enters L — into
// persistent per-level score maps. A bucket-j round scans levels >= j.
// This is result-identical to the recompute path (verified by tests) and
// removes the per-bucket rescoring factor from the running time.

// Folds links_[emitted_links_ ..) into the persistent score state of the
// configured backend, filling `stats`' emission count plus the time split:
// `emit_seconds` covers witness enumeration (the map phase), and
// `merge_seconds` covers folding the deltas into the persistent state
// (hash merges / radix sort + tier compaction) — the part that used to
// hide inside emit.
void MatcherState::EmitPendingLinks(PhaseStats* stats) {
  if (config_.scoring_backend == ScoringBackend::kRadixSort) {
    EmitPendingLinksRadix(stats);
  } else {
    EmitPendingLinksHash(stats);
  }
}

// Chunk size the work-stealing emission loop claims per lock acquisition.
// Per-item cost is heavy-tailed on skewed graphs (a hub link emits
// deg(hub)^2-ish pairs), so the grain aims at 64 claims per worker; claims
// are a spinlock pop, so the extra traffic is cheap.
size_t MatcherState::EmitGrain(size_t num_items) const {
  return ThreadPool::GrainSize(num_items, pool_.num_threads(), 1, 64);
}

// Hash backend: every emission probes a per-(level, shard) FlatCountMap.
void MatcherState::EmitPendingLinksHash(PhaseStats* stats) {
  const size_t begin = emitted_links_;
  const size_t end = links_.size();
  if (begin == end) return;
  emitted_links_ = end;

  const int min_level = config_.min_bucket_exponent;
  struct Delta {
    std::vector<std::vector<FlatCountMap>> maps;  // [level][shard]
    uint64_t emissions = 0;
  };
  const size_t num_items = end - begin;

  // One delta set per worker slot (`ParallelProduce`). The merge sums
  // counts commutatively, so which items land in which delta is
  // unobservable.
  Timer emit_timer;
  auto emit_range = [this, begin, min_level](Delta& delta, size_t lo,
                                             size_t hi) {
    if (delta.maps.empty()) delta.maps.resize(kNumLevels);
    auto& maps = delta.maps;
    for (size_t item = lo; item < hi; ++item) {
      const auto [a1, a2] = links_[begin + item];
      for (NodeId u : g1_.Neighbors(a1)) {
        const uint8_t lu = level1_[u];
        if (lu < min_level) continue;  // degree(u) < 2^min_bucket_exponent
        for (NodeId v : g2_.Neighbors(a2)) {
          const uint8_t lv = level2_[v];
          if (lv < min_level) continue;
          const uint8_t level = std::min(lu, lv);
          const uint64_t key = PackPair(u, v);
          if (maps[level].empty()) {
            maps[level] =
                std::vector<FlatCountMap>(static_cast<size_t>(num_shards_));
          }
          maps[level][static_cast<size_t>(mr::ShardOfKey(key, num_shards_))]
              .AddCount(key, 1);
          ++delta.emissions;
        }
      }
    }
  };
  std::vector<Delta> deltas = ParallelProduce<Delta>(
      &pool_, num_items, EmitGrain(num_items), emit_range);
  stats->emit_seconds += emit_timer.Seconds();

  // Merge deltas into the persistent maps: one (level, shard) cell at a
  // time, pre-sized from the delta sizes so the merge never rehashes
  // mid-loop.
  Timer merge_timer;
  ParallelForEach(
      &pool_,
      static_cast<size_t>(kNumLevels) * static_cast<size_t>(num_shards_),
      [this, &deltas](size_t cell) {
        const size_t level = cell / static_cast<size_t>(num_shards_);
        const size_t shard = cell % static_cast<size_t>(num_shards_);
        FlatCountMap& target = scores_[level][shard];
        size_t expected = target.size();
        for (const Delta& delta : deltas) {
          if (delta.maps.empty()) continue;
          const auto& level_maps = delta.maps[level];
          if (level_maps.empty()) continue;
          expected += level_maps[shard].size();
        }
        if (expected == target.size()) return;
        target.Reserve(expected);
        for (const Delta& delta : deltas) {
          if (delta.maps.empty()) continue;
          const auto& level_maps = delta.maps[level];
          if (level_maps.empty()) continue;
          level_maps[shard].ForEach([&target](uint64_t key, uint32_t count) {
            target.AddCount(key, count);
          });
        }
      });
  stats->merge_seconds += merge_timer.Seconds();

  for (const Delta& delta : deltas) {
    stats->emissions += static_cast<size_t>(delta.emissions);
  }
}

// Radix backend: emissions append packed keys into per-(level, shard) flat
// buffers (one array store each — the shard is a precomputed per-node
// lookup, no hashing); each touched (level, shard) cell then sorts its
// delta, run-length-encodes it and appends it to the cell's LSM tier
// stack, which folds tiers into the big persistent run only when the
// size-ratio policy trips.
void MatcherState::EmitPendingLinksRadix(PhaseStats* stats) {
  const size_t begin = emitted_links_;
  const size_t end = links_.size();
  if (begin == end) return;
  emitted_links_ = end;

  const int min_level = config_.min_bucket_exponent;
  struct RadixDelta {
    std::vector<std::vector<std::vector<uint64_t>>> keys;  // [level][shard]
    uint64_t emissions = 0;
  };
  const size_t num_items = end - begin;

  Timer emit_timer;
  auto emit_range = [this, begin, min_level](RadixDelta& delta, size_t lo,
                                             size_t hi) {
    if (delta.keys.empty()) delta.keys.resize(kNumLevels);
    auto& keys = delta.keys;
    for (size_t item = lo; item < hi; ++item) {
      const auto [a1, a2] = links_[begin + item];
      for (NodeId u : g1_.Neighbors(a1)) {
        const uint8_t lu = level1_[u];
        if (lu < min_level) continue;  // degree(u) < 2^min_bucket_exponent
        const uint32_t shard = radix_shard1_[u];
        for (NodeId v : g2_.Neighbors(a2)) {
          const uint8_t lv = level2_[v];
          if (lv < min_level) continue;
          const uint8_t level = std::min(lu, lv);
          if (keys[level].empty()) {
            keys[level].resize(static_cast<size_t>(num_shards_));
          }
          keys[level][shard].push_back(PackPair(u, v));
          ++delta.emissions;
        }
      }
    }
  };
  std::vector<RadixDelta> deltas = ParallelProduce<RadixDelta>(
      &pool_, num_items, EmitGrain(num_items), emit_range);
  stats->emit_seconds += emit_timer.Seconds();

  // Sort-and-append: one touched (level, shard) cell at a time.
  // Concatenate the producer chunks, radix-sort, run-length-encode, then
  // append the round delta as a new LSM tier (compaction per the
  // size-ratio policy — late low-yield rounds usually stop here without
  // touching the big run).
  Timer merge_timer;
  ParallelForEach(
      &pool_,
      static_cast<size_t>(kNumLevels) * static_cast<size_t>(num_shards_),
      [this, &deltas](size_t cell) {
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
        SortedCountRun delta_run = SortAndCount(std::move(raw), scratch);
        runs_[level][shard].Append(std::move(delta_run), tier_policy_);
      });
  stats->merge_seconds += merge_timer.Seconds();

  for (const RadixDelta& delta : deltas) {
    stats->emissions += static_cast<size_t>(delta.emissions);
  }
}

// --- Memory-budget enforcement -------------------------------------------
// Runs after a round's emission, before selection: while the resident tier
// payload exceeds the budget, spill the largest resident tiers to the
// score directory (largest-first frees the most RAM per file; ties break
// on (level, shard, tier index) so the spill schedule — and thus the fault
// points any injected failure lands on — is deterministic). Selection then
// streams spilled tiers through the same `ForEach` fold, so the matching
// is unchanged by construction; only the resident footprint moves.
//
// Failure policy (the robustness contract): a failed spill leaves its tier
// resident and is worth one stderr line; after `kMaxSpillFailures` the
// store disables itself and the run continues all-resident. Running over
// budget is a degraded mode, never an error — the alternative (aborting a
// long matching because /tmp filled up) loses work for nothing.
void MatcherState::EnforceMemoryBudget(PhaseStats* stats) {
  if (spill_store_ == nullptr) return;
  constexpr size_t kMaxSpillFailures = 8;

  size_t resident = 0;
  size_t spilled_bytes = 0;
  struct Candidate {
    size_t bytes;
    size_t level;
    size_t shard;
    size_t tier;
  };
  std::vector<Candidate> candidates;
  for (size_t level = 0; level < runs_.size(); ++level) {
    for (size_t shard = 0; shard < runs_[level].size(); ++shard) {
      const TieredCountRuns& store = runs_[level][shard];
      resident += store.resident_bytes();
      for (size_t t = 0; t < store.num_tiers(); ++t) {
        const size_t bytes =
            TieredCountRuns::BytesForEntries(store.tier_size(t));
        if (store.tier_spilled(t)) {
          spilled_bytes += bytes;
        } else if (bytes > 0) {
          candidates.push_back(Candidate{bytes, level, shard, t});
        }
      }
    }
  }

  const uint64_t budget = config_.memory_budget_bytes;
  if (resident > budget && !spill_store_->disabled()) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.bytes != b.bytes) return a.bytes > b.bytes;
                if (a.level != b.level) return a.level < b.level;
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.tier < b.tier;
              });
    for (const Candidate& c : candidates) {
      if (resident <= budget) break;
      std::string spill_error;
      if (runs_[c.level][c.shard].SpillTier(c.tier, *spill_store_,
                                            &spill_error)) {
        resident -= c.bytes;
        spilled_bytes += c.bytes;
        ++stats->tiers_spilled;
      } else {
        std::fprintf(stderr,
                     "warning: spill of score tier (level %zu, shard %zu) "
                     "failed, keeping it resident: %s\n",
                     c.level, c.shard, spill_error.c_str());
        if (spill_store_->stats().spill_failures >= kMaxSpillFailures) {
          std::fprintf(stderr,
                       "warning: %zu spill failures; disabling the score "
                       "spill layer, continuing over budget\n",
                       spill_store_->stats().spill_failures);
          spill_store_->Disable();
          break;
        }
      }
    }
  }
  stats->resident_score_bytes = resident;
  stats->spilled_score_bytes = spilled_bytes;
}

size_t MatcherState::RoundIncremental(int iteration, int bucket_exponent) {
  Timer timer;
  PhaseStats stats;
  stats.iteration = iteration;
  stats.bucket_exponent = bucket_exponent;
  stats.links_in = links_.size();
  stats.num_threads = pool_.num_threads();

  EmitPendingLinks(&stats);
  EnforceMemoryBudget(&stats);

  std::vector<ScoreUnit> units;
  units.reserve(static_cast<size_t>(kNumLevels - bucket_exponent) *
                static_cast<size_t>(num_shards_));
  if (config_.scoring_backend == ScoringBackend::kRadixSort) {
    for (int level = bucket_exponent; level < kNumLevels; ++level) {
      for (const TieredCountRuns& store : runs_[static_cast<size_t>(level)]) {
        units.push_back(ScoreUnit(&store));
      }
    }
  } else {
    for (int level = bucket_exponent; level < kNumLevels; ++level) {
      for (const FlatCountMap& shard : scores_[static_cast<size_t>(level)]) {
        units.push_back(ScoreUnit(&shard));
      }
    }
  }
  size_t accepted = SelectAndCommit(units, &stats);

  stats.new_links = accepted;
  stats.seconds = timer.Seconds();
  phases_.push_back(stats);
  return accepted;
}

// --- Reference scoring engine ----------------------------------------
// Literal transcription of the paper's inner loop: rebuild the witness
// counts for the current bucket from *all* current links via one
// MapReduce round. Kept as the semantics reference; the incremental
// engine must produce identical results.
size_t MatcherState::RoundRecompute(int iteration, int bucket_exponent) {
  Timer timer;
  PhaseStats stats;
  stats.iteration = iteration;
  stats.bucket_exponent = bucket_exponent;
  stats.links_in = links_.size();
  stats.num_threads = pool_.num_threads();

  Timer emit_timer;
  std::atomic<uint64_t> emissions{0};
  const int num_map_shards = num_shards_ * 4;
  auto map_fn = [this, bucket_exponent, &emissions](size_t item, auto emit) {
    const auto [a1, a2] = links_[item];
    uint64_t local_emissions = 0;
    for (NodeId u : g1_.Neighbors(a1)) {
      if (level1_[u] < bucket_exponent) continue;  // degree < 2^bucket
      for (NodeId v : g2_.Neighbors(a2)) {
        if (level2_[v] < bucket_exponent) continue;
        emit(PackPair(u, v));
        ++local_emissions;
      }
    }
    emissions.fetch_add(local_emissions, std::memory_order_relaxed);
  };

  std::vector<FlatCountMap> scores;
  std::vector<SortedCountRun> runs;
  std::vector<ScoreUnit> units;
  if (config_.scoring_backend == ScoringBackend::kRadixSort) {
    runs = mr::SortCountByKey(
        &pool_, links_.size(), num_map_shards, num_shards_, map_fn,
        [this](uint64_t key) { return radix_shard1_[PairFirst(key)]; },
        &stats.merge_seconds);
    units.reserve(runs.size());
    for (const SortedCountRun& run : runs) units.push_back(ScoreUnit(&run));
  } else {
    scores = mr::CountByKey(&pool_, links_.size(), num_map_shards,
                            num_shards_, map_fn, &stats.merge_seconds);
    units.reserve(scores.size());
    for (const FlatCountMap& shard : scores) {
      units.push_back(ScoreUnit(&shard));
    }
  }
  stats.emissions = emissions.load();
  // The mr round's reduce time is reported as merge; the map phase is the
  // emit proper.
  stats.emit_seconds =
      std::max(0.0, emit_timer.Seconds() - stats.merge_seconds);

  size_t accepted = SelectAndCommit(units, &stats);

  stats.new_links = accepted;
  stats.seconds = timer.Seconds();
  phases_.push_back(stats);
  return accepted;
}

// --- Snapshot serialization ----------------------------------------------

bool MatcherState::SaveSnapshot(const std::string& path,
                                std::string* error) const {
  SnapshotWriter writer;

  writer.BeginSection(kSectionMeta);
  writer.AppendU32(kMatcherStateVersion);
  // Graph fingerprint: a snapshot only resumes against the pair it was
  // taken from.
  writer.AppendU64(g1_.num_nodes());
  writer.AppendU64(g1_.num_edges());
  writer.AppendU64(graph_fp1_);
  writer.AppendU64(g2_.num_nodes());
  writer.AppendU64(g2_.num_edges());
  writer.AppendU64(graph_fp2_);
  // Config fingerprint: the knobs that change what the matcher computes or
  // how the score state is laid out. Execution-only knobs (threads, LSM
  // tier policy) are matching-invariant and intentionally absent — see the
  // class comment.
  writer.AppendU32(config_.min_score);
  writer.AppendI32(config_.num_iterations);
  writer.AppendU8(config_.use_degree_bucketing ? 1 : 0);
  writer.AppendI32(config_.min_bucket_exponent);
  writer.AppendU8(config_.stop_when_stable ? 1 : 0);
  writer.AppendU8(config_.use_incremental_scoring ? 1 : 0);
  writer.AppendU8(
      config_.scoring_backend == ScoringBackend::kRadixSort ? 1 : 0);
  // The shard width shapes the SCORES layout. It follows from n1, which the
  // graph fingerprint already binds, so this check only rejects snapshots
  // written under another width rule.
  writer.AppendI32(num_shards_);
  // Round cursor.
  writer.AppendI32(iteration_);
  writer.AppendI32(current_bucket_);
  writer.AppendI32(top_exponent_);
  writer.AppendI32(bottom_exponent_);
  writer.AppendU64(new_links_this_iteration_);
  writer.AppendI32(completed_rounds_);
  writer.AppendU8(done_ ? 1 : 0);
  writer.AppendU64(num_seeds_);
  writer.AppendU64(emitted_links_);
  writer.AppendU64(links_.size());
  writer.EndSection();

  writer.BeginSection(kSectionLinks);
  writer.AppendVector(links_);
  writer.EndSection();

  if (config_.use_incremental_scoring) {
    if (config_.scoring_backend == ScoringBackend::kRadixSort) {
      writer.BeginSection(kSectionScoresRadix);
      for (const auto& level : runs_) {
        for (const TieredCountRuns& store : level) {
          writer.AppendU32(static_cast<uint32_t>(store.num_tiers()));
          // Tier contents are serialized through views, so a spilled tier
          // streams its bytes straight from the mmap and the snapshot is
          // byte-identical whether the store is resident, spilled or
          // mixed. Snapshots stay self-contained: spill files are scratch,
          // never referenced by durable state.
          store.ForEachTier([&writer](RunView tier) {
            writer.AppendU64(tier.size);
            writer.AppendBytes(tier.keys, tier.size * sizeof(uint64_t));
            writer.AppendU64(tier.size);
            writer.AppendBytes(tier.counts, tier.size * sizeof(uint32_t));
          });
        }
      }
      writer.EndSection();
    } else {
      writer.BeginSection(kSectionScoresHash);
      for (const auto& level : scores_) {
        for (const FlatCountMap& shard : level) {
          writer.AppendU64(shard.size());
          shard.ForEach([&writer](uint64_t key, uint32_t count) {
            writer.AppendU64(key);
            writer.AppendU32(count);
          });
        }
      }
      writer.EndSection();
    }
  }

  return writer.Commit(path, error);
}

bool MatcherState::RebuildMaps(
    const std::vector<std::pair<NodeId, NodeId>>& links,
    std::vector<NodeId>* map_1to2, std::vector<NodeId>* map_2to1,
    std::string* error) const {
  map_1to2->assign(g1_.num_nodes(), kInvalidNode);
  map_2to1->assign(g2_.num_nodes(), kInvalidNode);
  for (const auto& [u, v] : links) {
    if (u >= g1_.num_nodes() || v >= g2_.num_nodes()) {
      *error = "link (" + std::to_string(u) + ", " + std::to_string(v) +
               ") out of range";
      return false;
    }
    if ((*map_1to2)[u] != kInvalidNode || (*map_2to1)[v] != kInvalidNode) {
      *error = "link (" + std::to_string(u) + ", " + std::to_string(v) +
               ") conflicts with an earlier link";
      return false;
    }
    (*map_1to2)[u] = v;
    (*map_2to1)[v] = u;
  }
  return true;
}

bool MatcherState::LoadSnapshot(const std::string& path, std::string* error) {
  RECONCILE_CHECK(seeded_) << "LoadSnapshot before SeedLinks";

  SnapshotReader reader;
  if (!reader.Open(path, error)) return false;

  SnapshotReader::Section* meta = reader.Find(kSectionMeta);
  if (meta == nullptr) {
    *error = path + ": missing META section";
    return false;
  }

  // META: parse and validate everything before touching any member.
  uint32_t state_version = 0;
  if (!meta->ReadU32(&state_version)) {
    *error = path + ": truncated META";
    return false;
  }
  if (state_version != kMatcherStateVersion) {
    *error = path + ": matcher state version " +
             std::to_string(state_version) + " (want " +
             std::to_string(kMatcherStateVersion) + ")";
    return false;
  }
  uint64_t n1 = 0, e1 = 0, fp1 = 0, n2 = 0, e2 = 0, fp2 = 0;
  meta->ReadU64(&n1);
  meta->ReadU64(&e1);
  meta->ReadU64(&fp1);
  meta->ReadU64(&n2);
  meta->ReadU64(&e2);
  meta->ReadU64(&fp2);
  uint32_t min_score = 0;
  int32_t num_iterations = 0, min_bucket_exponent = 0, snap_shards = 0;
  uint8_t bucketing = 0, stop_when_stable = 0, incremental = 0, radix = 0;
  meta->ReadU32(&min_score);
  meta->ReadI32(&num_iterations);
  meta->ReadU8(&bucketing);
  meta->ReadI32(&min_bucket_exponent);
  meta->ReadU8(&stop_when_stable);
  meta->ReadU8(&incremental);
  meta->ReadU8(&radix);
  meta->ReadI32(&snap_shards);
  int32_t iteration = 0, current_bucket = 0, top_exponent = 0,
          bottom_exponent = 0, completed_rounds = 0;
  uint64_t new_links_this_iteration = 0, num_seeds = 0, emitted_links = 0,
           num_links = 0;
  uint8_t done = 0;
  meta->ReadI32(&iteration);
  meta->ReadI32(&current_bucket);
  meta->ReadI32(&top_exponent);
  meta->ReadI32(&bottom_exponent);
  meta->ReadU64(&new_links_this_iteration);
  meta->ReadI32(&completed_rounds);
  meta->ReadU8(&done);
  meta->ReadU64(&num_seeds);
  meta->ReadU64(&emitted_links);
  if (!meta->ReadU64(&num_links) || !meta->ok()) {
    *error = path + ": truncated META";
    return false;
  }

  if (n1 != g1_.num_nodes() || e1 != g1_.num_edges() || fp1 != graph_fp1_ ||
      n2 != g2_.num_nodes() || e2 != g2_.num_edges() || fp2 != graph_fp2_) {
    *error = path + ": snapshot was taken against a different graph pair";
    return false;
  }
  const bool config_matches =
      min_score == config_.min_score &&
      num_iterations == config_.num_iterations &&
      (bucketing != 0) == config_.use_degree_bucketing &&
      min_bucket_exponent == config_.min_bucket_exponent &&
      (stop_when_stable != 0) == config_.stop_when_stable &&
      (incremental != 0) == config_.use_incremental_scoring &&
      (radix != 0) ==
          (config_.scoring_backend == ScoringBackend::kRadixSort) &&
      snap_shards == num_shards_;
  if (!config_matches) {
    *error = path +
             ": snapshot config mismatch (threshold/iterations/bucketing/"
             "backend/shards differ from this run — resume with the "
             "configuration the checkpoint was written under)";
    return false;
  }
  const bool cursor_sane =
      top_exponent == top_exponent_ && bottom_exponent == bottom_exponent_ &&
      iteration >= 1 && iteration <= num_iterations &&
      (bucketing != 0
           ? current_bucket >= bottom_exponent && current_bucket <= top_exponent
           : current_bucket == min_bucket_exponent) &&
      completed_rounds >= 0 && num_seeds <= num_links &&
      emitted_links <= num_links;
  if (!cursor_sane) {
    *error = path + ": snapshot round cursor is inconsistent";
    return false;
  }
  if (num_seeds != num_seeds_) {
    *error = path + ": snapshot has " + std::to_string(num_seeds) +
             " seeds, this run has " + std::to_string(num_seeds_);
    return false;
  }

  // LINKS: the committed link log; its seed prefix must equal this run's
  // seeds, and the log must rebuild into a consistent one-to-one mapping.
  SnapshotReader::Section* links_section = reader.Find(kSectionLinks);
  if (links_section == nullptr) {
    *error = path + ": missing LINKS section";
    return false;
  }
  std::vector<std::pair<NodeId, NodeId>> links;
  if (!links_section->ReadVector(&links) || links.size() != num_links) {
    *error = path + ": LINKS section does not match its declared size";
    return false;
  }
  for (size_t i = 0; i < num_seeds_; ++i) {
    if (links[i] != links_[i]) {
      *error = path + ": snapshot seed links differ from this run's seeds";
      return false;
    }
  }
  std::vector<NodeId> map_1to2, map_2to1;
  if (!RebuildMaps(links, &map_1to2, &map_2to1, error)) {
    *error = path + ": " + *error;
    return false;
  }

  // SCORES: staged fully before commit.
  std::vector<std::vector<TieredCountRuns>> runs;
  std::vector<std::vector<FlatCountMap>> scores;
  if (config_.use_incremental_scoring) {
    if (config_.scoring_backend == ScoringBackend::kRadixSort) {
      SnapshotReader::Section* section = reader.Find(kSectionScoresRadix);
      if (section == nullptr) {
        *error = path + ": missing radix SCORES section";
        return false;
      }
      runs.resize(kNumLevels);
      for (auto& level : runs) {
        level.resize(static_cast<size_t>(num_shards_));
        for (TieredCountRuns& store : level) {
          uint32_t num_tiers = 0;
          if (!section->ReadU32(&num_tiers)) {
            *error = path + ": truncated radix SCORES section";
            return false;
          }
          // Rebuild the exact tier stack (no policy folding): tier
          // boundaries affect when future compactions run, and the resumed
          // process must replay them identically.
          TierPolicy keep_all{std::numeric_limits<int>::max(), 0.0};
          for (uint32_t t = 0; t < num_tiers; ++t) {
            SortedCountRun tier;
            if (!section->ReadVector(&tier.keys) ||
                !section->ReadVector(&tier.counts) ||
                tier.keys.size() != tier.counts.size() || tier.empty()) {
              *error = path + ": malformed radix SCORES tier";
              return false;
            }
            store.Append(std::move(tier), keep_all);
          }
        }
      }
      if (!section->AtEnd()) {
        *error = path + ": trailing bytes in radix SCORES section";
        return false;
      }
    } else {
      SnapshotReader::Section* section = reader.Find(kSectionScoresHash);
      if (section == nullptr) {
        *error = path + ": missing hash SCORES section";
        return false;
      }
      scores.resize(kNumLevels);
      for (auto& level : scores) {
        level = std::vector<FlatCountMap>(static_cast<size_t>(num_shards_));
        for (FlatCountMap& shard : level) {
          uint64_t entries = 0;
          if (!section->ReadU64(&entries) ||
              entries > section->Remaining() / 12) {
            *error = path + ": truncated hash SCORES section";
            return false;
          }
          shard.Reserve(static_cast<size_t>(entries));
          for (uint64_t i = 0; i < entries; ++i) {
            uint64_t key = 0;
            uint32_t count = 0;
            section->ReadU64(&key);
            if (!section->ReadU32(&count)) {
              *error = path + ": truncated hash SCORES section";
              return false;
            }
            if (key == FlatCountMap::kEmptyKey) {
              *error = path + ": reserved key in hash SCORES section";
              return false;
            }
            shard.AddCount(key, count);
          }
        }
      }
      if (!section->AtEnd()) {
        *error = path + ": trailing bytes in hash SCORES section";
        return false;
      }
    }
  }

  // Everything validated — commit.
  links_ = std::move(links);
  map_1to2_ = std::move(map_1to2);
  map_2to1_ = std::move(map_2to1);
  runs_ = std::move(runs);
  scores_ = std::move(scores);
  emitted_links_ = static_cast<size_t>(emitted_links);
  iteration_ = iteration;
  current_bucket_ = current_bucket;
  new_links_this_iteration_ = static_cast<size_t>(new_links_this_iteration);
  completed_rounds_ = completed_rounds;
  done_ = done != 0;
  phases_.clear();
  return true;
}

}  // namespace reconcile
