#include "reconcile/serve/incremental_matcher.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "reconcile/core/matcher_state.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Serve snapshot section ids and state version (independent of the batch
// matcher's — the two checkpoint families never cross-load). Bumped
// whenever the payloads change shape, so an older file fails to load.
constexpr uint32_t kServeStateVersion = 2;
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionGraph1 = 2;
constexpr uint32_t kSectionGraph2 = 3;
constexpr uint32_t kSectionLinks = 4;

// Links of `map` that `other` does not hold (nodes past its end included).
size_t LinksNotIn(const std::vector<NodeId>& map,
                  const std::vector<NodeId>& other) {
  size_t count = 0;
  for (size_t u = 0; u < map.size(); ++u) {
    if (map[u] != kInvalidNode && (u >= other.size() || other[u] != map[u])) {
      ++count;
    }
  }
  return count;
}

}  // namespace

IncrementalMatcher::IncrementalMatcher(
    Graph g1, Graph g2, std::span<const std::pair<NodeId, NodeId>> seeds,
    const ServeConfig& config)
    : config_(config),
      pool_(config.matcher.num_threads > 0 ? config.matcher.num_threads
                                           : ThreadPool::DefaultThreads()),
      o1_(std::move(g1)),
      o2_(std::move(g2)),
      seeds_(seeds.begin(), seeds.end()),
      map_1to2_(o1_.num_nodes(), kInvalidNode),
      map_2to1_(o2_.num_nodes(), kInvalidNode),
      num_links_(seeds.size()) {
  RECONCILE_CHECK_GE(config_.matcher.num_iterations, 1);
  RECONCILE_CHECK_GE(config_.matcher.min_bucket_exponent, 0);
  RECONCILE_CHECK_LE(config_.matcher.min_bucket_exponent, 31);
  for (const auto& [u, v] : seeds_) {
    RECONCILE_CHECK_LT(u, o1_.num_nodes());
    RECONCILE_CHECK_LT(v, o2_.num_nodes());
    RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode)
        << "duplicate seed for g1 node " << u;
    RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode)
        << "duplicate seed for g2 node " << v;
    map_1to2_[u] = v;
    map_2to1_[v] = u;
  }
}

ServeBatchStats IncrementalMatcher::ApplyBatch(
    const std::vector<EdgeDelta>& deltas) {
  Timer timer;
  ServeBatchStats stats;
  stats.batch = batches_applied_ + 1;
  stats.deltas_in = deltas.size();

  // Net out the batch: per canonical edge key, the presence before the
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
  // Hash order is not deterministic; the overlay edits are.
  std::sort(changed1.begin(), changed1.end());
  std::sort(changed2.begin(), changed2.end());
  stats.deltas_applied = changed1.size() + changed2.size();

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

  // Mid-batch fault hook: the overlays hold the new graphs, the matching
  // is still the previous batch's. A `crash:serve_apply=k` kill here loses
  // the batch, which a resume re-applies from the stream.
  FaultValuePoint("serve_apply", stats.batch);

  if (stats.deltas_applied > 0 || batches_applied_ == 0) Rerun(&stats);
  ++batches_applied_;
  stats.num_links = num_links_;
  stats.seconds = timer.Seconds();
  return stats;
}

void IncrementalMatcher::Rerun(ServeBatchStats* stats) {
  o1_.Compact(&pool_);
  o2_.Compact(&pool_);
  // MatcherState rather than UserMatching: UserMatching's round loop stops
  // early on a pending graceful stop, and a batch must not serve a partial
  // matching.
  MatcherState state(o1_.base(), o2_.base(), config_.matcher);
  state.SeedLinks(seeds_);
  while (!state.Done()) state.RunRound();
  MatchResult result = state.TakeResult(0.0);

  stats->links_added = LinksNotIn(result.map_1to2, map_1to2_);
  stats->links_removed = LinksNotIn(map_1to2_, result.map_1to2);
  stats->replayed_rounds = static_cast<int>(result.phases.size());
  stats->rounds = std::move(result.phases);
  num_links_ = result.NumLinks();
  map_1to2_ = std::move(result.map_1to2);
  map_2to1_ = std::move(result.map_2to1);
}

MatchResult IncrementalMatcher::Result() const {
  MatchResult result;
  result.seeds = seeds_;
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
  writer.AppendI32(batches_applied_);
  writer.AppendU64(deltas_consumed_);
  writer.AppendU64(seeds_.size());
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

  std::vector<std::pair<NodeId, NodeId>> links;
  links.reserve(num_links_);
  for (NodeId u = 0; u < map_1to2_.size(); ++u) {
    if (map_1to2_[u] != kInvalidNode) links.emplace_back(u, map_1to2_[u]);
  }
  writer.BeginSection(kSectionLinks);
  writer.AppendVector(links);
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
  uint32_t version = 0;
  if (!meta->ReadU32(&version)) {
    *error = "META section malformed";
    return false;
  }
  if (version != kServeStateVersion) {
    *error = "serve state version mismatch";
    return false;
  }
  uint32_t min_score = 0;
  int32_t num_iterations = 0, min_bucket_exponent = 0, batches_applied = 0;
  uint8_t bucketing = 0, stop_when_stable = 0;
  uint64_t deltas_consumed = 0, num_seeds = 0;
  meta->ReadU32(&min_score);
  meta->ReadI32(&num_iterations);
  meta->ReadU8(&bucketing);
  meta->ReadI32(&min_bucket_exponent);
  meta->ReadU8(&stop_when_stable);
  meta->ReadI32(&batches_applied);
  meta->ReadU64(&deltas_consumed);
  meta->ReadU64(&num_seeds);
  if (!meta->ok() || !meta->AtEnd()) {
    *error = "META section malformed";
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
  if (num_seeds != seeds_.size()) {
    *error = "snapshot seed count mismatch";
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
  if (!links_section->ReadVector(&links) || !links_section->AtEnd()) {
    *error = "LINKS section malformed";
    return false;
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
  for (const auto& [u, v] : seeds_) {
    if (u >= map_1to2.size() || map_1to2[u] != v) {
      *error = "snapshot links do not contain the provided seeds";
      return false;
    }
  }

  // Everything validated — commit.
  o1_ = OverlayGraph(std::move(g1));
  o2_ = OverlayGraph(std::move(g2));
  map_1to2_ = std::move(map_1to2);
  map_2to1_ = std::move(map_2to1);
  num_links_ = links.size();
  batches_applied_ = batches_applied;
  deltas_consumed_ = deltas_consumed;
  return true;
}

}  // namespace reconcile
