#include "reconcile/core/matcher_state.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "reconcile/util/checkpoint.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Degree levels partition candidate pairs by the first bucket in which
// they become eligible: level(u, v) = min(log2 d1(u), log2 d2(v)), so the
// pairs eligible at bucket threshold 2^j are exactly those stored at levels
// >= j.
constexpr int kNumLevels = 33;
static_assert(kNumLevels <= 64, "the row merge keeps one bit per level");

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

// Snapshot section ids (see SaveSnapshot for the layout). Ids 3 and 4 held
// score state (state versions 1 and 2) and are not reused.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionLinks = 2;

// Bumped whenever the META/LINKS payloads change shape. Version 2 dropped
// version 1's engine and backend bytes from META; version 3 dropped the
// shard width from META and the score section, which a load now rebuilds
// from the links.
constexpr uint32_t kMatcherStateVersion = 3;

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

std::vector<uint32_t> ShardTable(NodeId n1, int num_shards) {
  // Range partition on the high key bits (the g1 node id): shard(u, v) =
  // u * S / n1, precomputed per node so the emission loop pays one array
  // load instead of a hash mix or a 64-bit divide. Each shard owns a
  // contiguous key interval, so per-shard runs stay disjoint and their
  // concatenation is globally sorted.
  // Shard s owns u in [ceil(s * n1 / S), ceil((s + 1) * n1 / S)), so the
  // table fills range by range, with two divides per shard, not one per node.
  const uint64_t n = n1;
  const uint64_t shards = static_cast<uint64_t>(num_shards);
  std::vector<uint32_t> table(n1);
  auto first = [n, shards](uint64_t shard) {
    return static_cast<ptrdiff_t>((shard * n + shards - 1) / shards);
  };
  for (uint64_t shard = 0; shard < shards; ++shard) {
    std::fill(table.begin() + first(shard), table.begin() + first(shard + 1),
              static_cast<uint32_t>(shard));
  }
  return table;
}

// The score state's shard width: one shard per 512 g1 nodes, clamped to
// [1, 256]. It depends on n1 alone, never on the thread count. Each round's
// row merge runs one shard per claim, and its cell append and selection scan
// one (level, shard) cell per claim, so the width is what lets the hot
// levels spread over the workers. The constants come from a sweep on the
// e2ebench workloads (DESIGN.md §2.3).
int ShardWidth(NodeId n1) {
  constexpr NodeId kNodesPerShard = 512;
  constexpr NodeId kMaxShards = 256;
  return static_cast<int>(
      std::clamp<NodeId>(n1 / kNodesPerShard, 1, kMaxShards));
}

bool TestBit(const std::vector<uint64_t>& bits, NodeId x) {
  return (bits[x >> 6] >> (x & 63)) & 1;
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
      pool_(ThreadPool::Shared(config.num_threads)),
      num_shards_(ShardWidth(g1.num_nodes())),
      map_1to2_(g1.num_nodes(), kInvalidNode),
      map_2to1_(g2.num_nodes(), kInvalidNode),
      matched1_((g1.num_nodes() + 63) / 64, 0),
      matched2_((g2.num_nodes() + 63) / 64, 0),
      selection_(g1.num_nodes(), g2.num_nodes()) {
  RECONCILE_CHECK_GE(config.min_bucket_exponent, 0);
  RECONCILE_CHECK_LE(config.min_bucket_exponent, 31);
  level1_ = DegreeLevels(g1);
  level2_ = DegreeLevels(g2);
  runs_.resize(kNumLevels);
  for (auto& level : runs_) level.resize(static_cast<size_t>(num_shards_));
  shard1_ = ShardTable(g1.num_nodes(), num_shards_);
  if (config.memory_budget_bytes > 0) {
    // The budget is a resource knob, not a semantic one: without a scratch
    // directory the run goes unbudgeted with a one-line note.
    if (config.score_dir.empty()) {
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
  MarkMatched(0);
}

void MatcherState::MarkMatched(size_t first_link) {
  for (size_t i = first_link; i < links_.size(); ++i) {
    const auto [u, v] = links_[i];
    matched1_[u >> 6] |= uint64_t{1} << (u & 63);
    matched2_[v >> 6] |= uint64_t{1} << (v & 63);
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
// stop at the iteration cap or on a stable iteration.
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
  ++iteration_;
  new_links_this_iteration_ = 0;
  current_bucket_ = config_.use_degree_bucketing ? top_exponent_
                                                 : config_.min_bucket_exponent;
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

// --- Scoring --------------------------------------------------------------
// Witness scores are additive over links, so each link's neighbour-pair
// contributions are emitted exactly once — in the first round after the
// link enters L — into persistent per-level score state. A bucket-j round
// scans levels >= j. `tests/core_oracle_fuzz_test.cc` checks this against
// a serial recount from all links every round.

// Chunk size the emission loop claims at a time. Per-item cost is
// heavy-tailed on skewed graphs (a hub link emits deg(hub)^2-ish pairs), so
// the grain aims at 64 claims per worker; a claim is one `fetch_add` on the
// loop's cursor, so the extra traffic is cheap.
size_t MatcherState::EmitGrain(size_t num_items) const {
  return ThreadPool::GrainSize(num_items, pool_.num_threads(), 1, 64);
}

namespace {

// Sifts `heap[i]` down a binary min-heap of `n` words.
void SiftDown(uint64_t* heap, size_t n, size_t i) {
  const uint64_t x = heap[i];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
    if (heap[child] >= x) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = x;
}

// Merges one score row: the ascending, duplicate-free g2 adjacency lists of
// the pending partners in u's row. Calls `fn(v, count)` once per distinct v,
// in ascending order, where count is the number of lists holding v. One
// list streams as it is; several go through a binary min-heap of
// (v << 32 | list) words over the list heads. Every list must be non-empty.
class RowMerger {
 public:
  template <typename Fn>
  void Merge(const Graph& g2, std::span<const uint64_t> row, Fn&& fn) {
    if (row.size() == 1) {
      for (NodeId v : g2.Neighbors(PairSecond(row[0]))) fn(v, 1);
      return;
    }
    lists_.clear();
    heap_.clear();
    for (uint64_t entry : row) {
      const std::span<const NodeId> list = g2.Neighbors(PairSecond(entry));
      heap_.push_back((static_cast<uint64_t>(list[0]) << 32) | lists_.size());
      lists_.push_back({list.data() + 1, list.data() + list.size()});
    }
    uint64_t* heap = heap_.data();
    size_t size = heap_.size();
    for (size_t i = size / 2; i-- > 0;) SiftDown(heap, size, i);
    NodeId current = static_cast<NodeId>(heap[0] >> 32);
    uint32_t count = 0;
    while (size > 0) {
      const uint64_t top = heap[0];
      const NodeId v = static_cast<NodeId>(top >> 32);
      if (v != current) {
        fn(current, count);
        current = v;
        count = 0;
      }
      ++count;
      Cursor& cursor = lists_[static_cast<uint32_t>(top)];
      if (cursor.next != cursor.end) {
        heap[0] = (static_cast<uint64_t>(*cursor.next++) << 32) |
                  static_cast<uint32_t>(top);
      } else {
        heap[0] = heap[--size];
      }
      SiftDown(heap, size, 0);
    }
    fn(current, count);
  }

 private:
  struct Cursor {
    const NodeId* next;
    const NodeId* end;
  };
  std::vector<Cursor> lists_;
  std::vector<uint64_t> heap_;
};

}  // namespace

// Emits the witnesses of links_[begin, end): a round's pending links, or,
// on a snapshot load, every link emitted before it (`RebuildScores`).
// The score deltas are computed row by row, as in Gustavson's sparse
// matrix product, instead of emitting one key per witness and sorting. A pending link (a1, a2) witnesses (u, v) exactly
// when a1 is in N1(u) and v is in N2(a2), so u's row of the delta is the
// merge of the g2 adjacency lists of its newly linked neighbours' partners,
// and the count of v in that merge is the number of pending witnesses of
// (u, v): the multiplicity a per-witness emission would give the key.
//
//  1. Gather (per pending link): for each u in N1(a1) at or above the
//     degree floor, record (u, a2) in u's shard. Links whose g2 endpoint
//     has no neighbours contribute nothing and are skipped, so every
//     gathered list is non-empty. The volume is the sum of deg1(a1), not
//     the emission count.
//  2. Row merge (per shard): sort the shard's (u, a2) entries, then merge
//     each u's lists into ascending (v, count) and route every v at or
//     above the degree floor to cell min(level1(u), level2(v)). The shard
//     walks u in ascending order and each row's v ascend, so every
//     (level, shard) cell's delta comes out as rows (`RowRun`), sorted and
//     counted. A dead pair, one whose ends are both matched, counts as an
//     emission but is not stored. It cannot be accepted, and the bests it
//     feeds are those of matched nodes, which no accept reads, so leaving
//     it out is exact. Only a row of a matched u can hold one, and the test
//     reads the matched-node bitsets, not the maps: it is asked about every
//     emitted pair of such a row, and at 1/32 of a map's size a bitset
//     stays in cache. This is the only place a dead pair is left out: one
//     that dies after it is stored stays in its cell.
//  3. Append (per cell): the delta becomes the base of an empty cell, or
//     joins the cell's delta tier, which folds into the base run once it
//     reaches a quarter of it. A cell at a level `covered` or up, one the
//     best tables already hold, first hands each delta pair's total after
//     the append to selection (`ForEachAfterAppend` into
//     `SelectionEngine::DeltaObserver`), which keeps the cell's open pairs
//     in `(*observed)[level * width + shard]` and counts the pairs as read.
//
// Each cell thus receives the live part of the run that sorting and
// counting the per-witness keys would give, once per round, so the cells
// do not depend on how the delta was built, and their union does not
// depend on the partition width. `emit_seconds` covers steps 1 and 2;
// `merge_seconds` is step 3, the lookups included.
void MatcherState::EmitLinks(size_t begin, size_t end, PhaseStats* stats,
                             int covered,
                             std::vector<SelectionCell>* observed) {
  if (begin == end) return;

  const int min_level = config_.min_bucket_exponent;
  const size_t num_shards = static_cast<size_t>(num_shards_);
  const size_t num_items = end - begin;

  Timer emit_timer;
  using Gathered = std::vector<std::vector<uint64_t>>;  // [shard]
  auto gather_range = [this, begin, min_level, num_shards](
                          Gathered& gathered, size_t lo, size_t hi) {
    if (gathered.empty()) gathered.resize(num_shards);
    for (size_t item = lo; item < hi; ++item) {
      const auto [a1, a2] = links_[begin + item];
      if (g2_.degree(a2) == 0) continue;
      for (NodeId u : g1_.Neighbors(a1)) {
        if (level1_[u] < min_level) continue;  // degree(u) < 2^min_level
        gathered[shard1_[u]].push_back(PackPair(u, a2));
      }
    }
  };
  const std::vector<Gathered> gathered = ParallelProduce<Gathered>(
      &pool_, num_items, EmitGrain(num_items), gather_range);

  // Per shard: the round's delta run for each level (no runs when the shard
  // gathered nothing), and its emission count.
  std::vector<std::vector<RowRun>> cells(num_shards);
  std::vector<uint64_t> shard_emissions(num_shards, 0);
  ParallelForEach(&pool_, num_shards, [this, &gathered, &cells,
                                       &shard_emissions,
                                       min_level](size_t shard) {
    size_t total = 0;
    for (const Gathered& g : gathered) {
      if (!g.empty()) total += g[shard].size();
    }
    if (total == 0) return;
    std::vector<uint64_t> entries;
    entries.reserve(total);
    for (const Gathered& g : gathered) {
      if (g.empty()) continue;
      entries.insert(entries.end(), g[shard].begin(), g[shard].end());
    }
    std::vector<uint64_t> scratch;
    RadixSortU64(entries, scratch);

    std::vector<RowRun>& shard_cells = cells[shard];
    shard_cells.resize(kNumLevels);
    RowMerger merger;
    uint64_t emissions = 0;
    for (size_t i = 0; i < entries.size();) {
      const NodeId u = PairFirst(entries[i]);
      size_t j = i + 1;
      while (j < entries.size() && PairFirst(entries[j]) == u) ++j;
      const uint8_t lu = level1_[u];
      const bool row_may_die = TestBit(matched1_, u);
      uint64_t levels = 0;  // the cells row u wrote to, one bit each
      merger.Merge(g2_, std::span<const uint64_t>(entries).subspan(i, j - i),
                   [this, &shard_cells, &emissions, &levels, lu, row_may_die,
                    min_level](NodeId v, uint32_t count) {
                     const uint8_t lv = level2_[v];
                     if (lv < min_level) return;
                     emissions += count;
                     if (row_may_die && TestBit(matched2_, v)) return;
                     const int level = std::min(lu, lv);
                     shard_cells[level].PushEntry(v, count);
                     levels |= uint64_t{1} << level;
                   });
      for (; levels != 0; levels &= levels - 1) {
        shard_cells[std::countr_zero(levels)].CloseRow(u);
      }
      i = j;
    }
    shard_emissions[shard] = emissions;
  });
  stats->emit_seconds += emit_timer.Seconds();

  Timer merge_timer;
  // One claim per non-empty delta, not per cell of the partition.
  std::vector<std::pair<size_t, size_t>> deltas;  // (level, shard)
  for (size_t shard = 0; shard < num_shards; ++shard) {
    for (size_t level = 0; level < cells[shard].size(); ++level) {
      if (!cells[shard][level].empty()) deltas.emplace_back(level, shard);
    }
  }
  const SelectionContext ctx = Context();
  std::vector<size_t> reads(deltas.size(), 0), folds(deltas.size(), 0);
  ParallelForEach(&pool_, deltas.size(), [&](size_t i) {
    const auto [level, shard] = deltas[i];
    RowRun& run = cells[shard][level];
    TieredCountRuns& store = runs_[level][shard];
    if (static_cast<int>(level) >= covered) {
      reads[i] = run.size();
      store.ForEachAfterAppend(
          run.view(),
          selection_.DeltaObserver(
              ctx, &(*observed)[level * num_shards + shard].open, &folds[i]));
    }
    store.Append(std::move(run));
  });
  for (size_t i = 0; i < deltas.size(); ++i) {
    stats->candidate_pairs += reads[i];
    stats->observed_pairs += folds[i];
  }
  stats->merge_seconds += merge_timer.Seconds();

  for (uint64_t emissions : shard_emissions) {
    stats->emissions += static_cast<size_t>(emissions);
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
        const size_t bytes = store.tier_bytes(t);
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

// The lowest level the best tables already hold: earlier rounds of this
// iteration made levels [CoveredLevel(), kNumLevels) eligible. kNumLevels
// (nothing) in an iteration's first round, which without bucketing is every
// round.
int MatcherState::CoveredLevel() const {
  const bool first =
      !config_.use_degree_bucketing || current_bucket_ == top_exponent_;
  return first ? kNumLevels : current_bucket_ + 1;
}

SelectionContext MatcherState::Context() {
  SelectionContext ctx;
  ctx.pool = &pool_;
  ctx.min_score = config_.min_score;
  ctx.map_1to2 = &map_1to2_;
  ctx.map_2to1 = &map_2to1_;
  ctx.links = &links_;
  return ctx;
}

// One scoring round at bucket exponent `bucket_exponent` (candidates must
// have degree >= 2^bucket_exponent on both sides). Returns links accepted.
//
// The best tables live for the iteration (`core/selection.h`), so the round
// folds in only what changed: (ii) just before each cell's append, the new
// totals of the delta's pairs on the levels the tables already hold; (i)
// after the append, every pair of the levels this round makes eligible,
// [bucket, CoveredLevel()). `merge_seconds` covers (ii), `scan_seconds` (i).
size_t MatcherState::Round(int iteration, int bucket_exponent) {
  Timer timer;
  PhaseStats stats;
  stats.iteration = iteration;
  stats.bucket_exponent = bucket_exponent;
  stats.links_in = links_.size();
  stats.num_threads = pool_.num_threads();

  const int covered = CoveredLevel();
  if (covered == kNumLevels) selection_.StartIteration();
  const size_t num_shards = static_cast<size_t>(num_shards_);
  // Every cell of the partition, in (level, shard) order.
  std::vector<SelectionCell> cells(kNumLevels * num_shards);

  EmitLinks(emitted_links_, links_.size(), &stats, covered, &cells);
  emitted_links_ = links_.size();
  EnforceMemoryBudget(&stats);

  for (int level = bucket_exponent; level < covered; ++level) {
    for (size_t shard = 0; shard < num_shards; ++shard) {
      const TieredCountRuns& store = runs_[static_cast<size_t>(level)][shard];
      if (!store.empty()) {
        cells[static_cast<size_t>(level) * num_shards + shard].scan = &store;
      }
    }
  }
  // A cell with nothing to read or test accepts nothing, so leaving it out
  // keeps the link log and saves the passes a claim per empty cell of a
  // wide partition.
  std::erase_if(cells, [](const SelectionCell& c) {
    return c.scan == nullptr && c.open.empty();
  });
  const size_t accepted = selection_.SelectAndCommit(cells, Context(), &stats);
  MarkMatched(links_.size() - accepted);

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
  // Config fingerprint: the knobs that change what the matcher computes.
  // The thread count is matching-invariant and intentionally absent — see
  // the class comment.
  AppendMatchingSemantics(config_, &writer);
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

  return writer.Commit(path, error);
}

bool MatcherState::LoadSnapshot(const std::string& path, std::string* error) {
  RECONCILE_CHECK(seeded_) << "LoadSnapshot before SeedLinks";

  SnapshotReader reader;
  if (!reader.Open(path, error)) return false;
  auto reject = [&path, error](const std::string& why) {
    *error = path + ": " + why;
    return false;
  };

  SnapshotReader::Section* meta = reader.Find(kSectionMeta);
  if (meta == nullptr) return reject("missing META section");

  // META: parse and validate everything before touching any member.
  uint32_t state_version = 0;
  if (!meta->ReadU32(&state_version)) return reject("truncated META");
  if (state_version != kMatcherStateVersion) {
    return reject("matcher state version " + std::to_string(state_version) +
                  " (want " + std::to_string(kMatcherStateVersion) + ")");
  }
  uint64_t n1 = 0, e1 = 0, fp1 = 0, n2 = 0, e2 = 0, fp2 = 0;
  meta->ReadU64(&n1);
  meta->ReadU64(&e1);
  meta->ReadU64(&fp1);
  meta->ReadU64(&n2);
  meta->ReadU64(&e2);
  meta->ReadU64(&fp2);
  const bool same_semantics = ReadMatchingSemantics(meta, config_);
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
    return reject("truncated META");
  }

  if (n1 != g1_.num_nodes() || e1 != g1_.num_edges() || fp1 != graph_fp1_ ||
      n2 != g2_.num_nodes() || e2 != g2_.num_edges() || fp2 != graph_fp2_) {
    return reject("snapshot was taken against a different graph pair");
  }
  if (!same_semantics) return reject(kSemanticsMismatch);
  const bool cursor_sane =
      top_exponent == top_exponent_ && bottom_exponent == bottom_exponent_ &&
      iteration >= 1 && iteration <= config_.num_iterations &&
      (config_.use_degree_bucketing
           ? current_bucket >= bottom_exponent && current_bucket <= top_exponent
           : current_bucket == config_.min_bucket_exponent) &&
      completed_rounds >= 0 && num_seeds <= num_links &&
      emitted_links <= num_links;
  if (!cursor_sane) return reject("snapshot round cursor is inconsistent");
  if (num_seeds != num_seeds_) {
    return reject("snapshot has " + std::to_string(num_seeds) +
                  " seeds, this run has " + std::to_string(num_seeds_));
  }

  // LINKS: the committed link log; its seed prefix must equal this run's
  // seeds, and the log must rebuild into a consistent one-to-one mapping.
  SnapshotReader::Section* links_section = reader.Find(kSectionLinks);
  if (links_section == nullptr) return reject("missing LINKS section");
  std::vector<std::pair<NodeId, NodeId>> links;
  if (!links_section->ReadVector(&links) || links.size() != num_links) {
    return reject("LINKS section does not match its declared size");
  }
  if (!std::equal(links_.begin(), links_.begin() + num_seeds_,
                  links.begin())) {
    return reject("snapshot seed links differ from this run's seeds");
  }
  std::vector<NodeId> map_1to2, map_2to1;
  std::string link_error;
  if (!MapsFromLinks(links, g1_.num_nodes(), g2_.num_nodes(), &map_1to2,
                     &map_2to1, &link_error)) {
    return reject(link_error);
  }

  // Everything validated — commit.
  links_ = std::move(links);
  map_1to2_ = std::move(map_1to2);
  map_2to1_ = std::move(map_2to1);
  MarkMatched(0);
  emitted_links_ = static_cast<size_t>(emitted_links);
  iteration_ = iteration;
  current_bucket_ = current_bucket;
  new_links_this_iteration_ = static_cast<size_t>(new_links_this_iteration);
  completed_rounds_ = completed_rounds;
  done_ = done != 0;
  phases_.clear();
  if (!done_) {
    RebuildScores();
    ReseedBests();
  }
  return true;
}

// The score store is derived state: each emitted link (a1, a2) added one
// witness to every pair in N1(a1) x N2(a2), so re-emitting the emitted
// prefix of the link log into empty cells restores every sum. Emission
// leaves out the pairs whose ends are both matched under the loaded maps,
// so the rebuilt store holds only live pairs. That is exact by emission's
// argument (`EmitLinks`, step 2): a dead pair feeds only the bests of
// matched nodes, which no accept reads. The uninterrupted store differs
// from the rebuilt one only by dead pairs, so open pairs, accepts and the
// link-log order do not change (`PhaseStats` notes the counters that do).
// Links accepted in the last round stay pending for the next round's
// emission, and the scratch stats keep the rebuild out of every round's
// counters.
void MatcherState::RebuildScores() {
  for (auto& level : runs_) {
    for (TieredCountRuns& store : level) store = TieredCountRuns{};
  }
  PhaseStats scratch;
  EmitLinks(0, emitted_links_, &scratch, kNumLevels, nullptr);
}

// The best tables are derived state too: an uninterrupted run's tables hold
// every pair at or above T of the levels earlier rounds of this iteration
// made eligible, each at its current total (`core/selection.h`). Reading
// those levels of the rebuilt store once gives the same (best, ties) for
// every unmatched node; the two differ only at matched nodes, through the
// dead pairs the rebuild leaves out, and no accept reads those. At an
// iteration's first round the round itself starts the tables.
void MatcherState::ReseedBests() {
  selection_.StartIteration();
  std::vector<SelectionCell> cells;
  for (int level = CoveredLevel(); level < kNumLevels; ++level) {
    for (const TieredCountRuns& store : runs_[static_cast<size_t>(level)]) {
      if (!store.empty()) cells.push_back(SelectionCell{&store, {}});
    }
  }
  selection_.Reseed(cells, Context());
}

void AppendMatchingSemantics(const MatcherConfig& config,
                             SnapshotWriter* writer) {
  writer->AppendU32(config.min_score);
  writer->AppendI32(config.num_iterations);
  writer->AppendU8(config.use_degree_bucketing ? 1 : 0);
  writer->AppendI32(config.min_bucket_exponent);
  writer->AppendU8(config.stop_when_stable ? 1 : 0);
}

bool ReadMatchingSemantics(SnapshotReader::Section* section,
                           const MatcherConfig& config) {
  uint32_t min_score = 0;
  int32_t num_iterations = 0, min_bucket_exponent = 0;
  uint8_t bucketing = 0, stop_when_stable = 0;
  section->ReadU32(&min_score);
  section->ReadI32(&num_iterations);
  section->ReadU8(&bucketing);
  section->ReadI32(&min_bucket_exponent);
  section->ReadU8(&stop_when_stable);
  return section->ok() && min_score == config.min_score &&
         num_iterations == config.num_iterations &&
         (bucketing != 0) == config.use_degree_bucketing &&
         min_bucket_exponent == config.min_bucket_exponent &&
         (stop_when_stable != 0) == config.stop_when_stable;
}

bool MapsFromLinks(std::span<const std::pair<NodeId, NodeId>> links,
                   NodeId n1, NodeId n2, std::vector<NodeId>* map_1to2,
                   std::vector<NodeId>* map_2to1, std::string* error) {
  map_1to2->assign(n1, kInvalidNode);
  map_2to1->assign(n2, kInvalidNode);
  for (const auto& [u, v] : links) {
    auto reject = [&error, u, v](const char* why) {
      *error = "link (" + std::to_string(u) + ", " + std::to_string(v) +
               ") " + why;
      return false;
    };
    if (u >= n1 || v >= n2) return reject("out of range");
    if ((*map_1to2)[u] != kInvalidNode || (*map_2to1)[v] != kInvalidNode) {
      return reject("conflicts with an earlier link");
    }
    (*map_1to2)[u] = v;
    (*map_2to1)[v] = u;
  }
  return true;
}

}  // namespace reconcile
