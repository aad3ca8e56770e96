#include "reconcile/graph/graph.h"

#include <algorithm>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

namespace {

// Below this many (normalized) edges a serial build beats spinning up / using
// worker threads.
constexpr size_t kParallelBuildThreshold = 1u << 15;

}  // namespace

Graph Graph::FromEdgeList(EdgeList edges) {
  // Large builds run on the process-wide shared pool instead of
  // constructing and joining a transient pool per call. Normalization gets
  // the pool based on the raw size; the build decision is re-checked after
  // dedup may have shrunk the list below the threshold.
  ThreadPool* pool = edges.size() >= kParallelBuildThreshold &&
                             ThreadPool::DefaultThreads() > 1
                         ? &ThreadPool::Shared()
                         : nullptr;
  edges.Normalize(pool);
  if (pool != nullptr && edges.size() < kParallelBuildThreshold) {
    pool = nullptr;
  }
  return FromNormalized(std::move(edges), pool);
}

Graph Graph::FromEdgeList(EdgeList edges, ThreadPool* pool) {
  edges.Normalize(pool);
  return FromNormalized(std::move(edges), pool);
}

// Owner-computes build. Each worker slot owns a contiguous node range and
// writes only that range's offsets and adjacency slices, so no write is
// shared. The normalized list is sorted by (first, second) with
// first < second, which gives each node v its neighbours in two pieces:
//  * backward: edges (u, v) with u < v. They all lie before the run of
//    edges whose first endpoint is v, so one scan of the edges before the
//    range's run end finds them, in ascending u;
//  * forward: that run itself, (v, w) with w > v, in ascending w.
// Writing backward before forward leaves each slice ascending without a
// sort. The cost is one streaming scan of up to m edges per range per pass,
// O(ranges * m) reads in all; a null pool is one range.
Graph Graph::FromNormalized(EdgeList edges, ThreadPool* pool) {
  Graph g;
  g.num_nodes_ = edges.num_nodes();
  const size_t n = g.num_nodes_;
  const std::vector<Edge>& es = edges.edges();
  g.offsets_.assign(n + 1, 0);

  const size_t ranges = static_cast<size_t>(ParallelSlots(pool));
  auto range_lo = [n, ranges](size_t r) {
    return static_cast<NodeId>(n * r / ranges);
  };
  // Index of the first edge whose first endpoint is >= v.
  auto run_start = [&es](NodeId v) {
    return static_cast<size_t>(
        std::lower_bound(es.begin(), es.end(), v,
                         [](const Edge& e, NodeId x) { return e.first < x; }) -
        es.begin());
  };

  // Pass 1: each range counts its nodes' degrees into offsets_[v + 1].
  std::vector<size_t> range_base(ranges + 1, 0);
  ParallelForEach(pool, ranges, [&](size_t r) {
    const NodeId lo = range_lo(r), hi = range_lo(r + 1);
    const size_t run_begin = run_start(lo), run_end = run_start(hi);
    size_t* degree = g.offsets_.data() + 1;
    for (size_t i = 0; i < run_end; ++i) {
      const NodeId v = es[i].second;
      if (v - lo < hi - lo) ++degree[v];  // v in [lo, hi), unsigned wrap
    }
    for (size_t i = run_begin; i < run_end; ++i) ++degree[es[i].first];
    size_t total = 0;
    for (NodeId v = lo; v < hi; ++v) total += degree[v];
    range_base[r + 1] = total;
  });
  for (size_t r = 0; r < ranges; ++r) range_base[r + 1] += range_base[r];

  // Pass 2: each range turns its degrees into offsets from its base, then
  // writes its slices: backward neighbours first, then the forward run.
  g.adjacency_.resize(range_base[ranges]);
  std::vector<NodeId> range_max_degree(ranges, 0);
  ParallelForEach(pool, ranges, [&](size_t r) {
    const NodeId lo = range_lo(r), hi = range_lo(r + 1);
    const size_t run_begin = run_start(lo), run_end = run_start(hi);
    std::vector<size_t> cursor(hi - lo);
    size_t offset = range_base[r];
    NodeId max_degree = 0;
    for (NodeId v = lo; v < hi; ++v) {
      const size_t degree = g.offsets_[v + 1];
      max_degree = std::max(max_degree, static_cast<NodeId>(degree));
      cursor[v - lo] = offset;
      offset += degree;
      g.offsets_[v + 1] = offset;
    }
    range_max_degree[r] = max_degree;
    for (size_t i = 0; i < run_end; ++i) {
      const auto [u, v] = es[i];
      if (v - lo < hi - lo) g.adjacency_[cursor[v - lo]++] = u;
    }
    for (size_t i = run_begin; i < run_end; ++i) {
      const auto [u, v] = es[i];
      g.adjacency_[cursor[u - lo]++] = v;
    }
  });
  g.max_degree_ =
      *std::max_element(range_max_degree.begin(), range_max_degree.end());
  return g;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  std::span<const NodeId> nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

size_t Graph::CommonNeighborCount(NodeId u, NodeId v) const {
  RECONCILE_CHECK_LT(u, num_nodes_);
  RECONCILE_CHECK_LT(v, num_nodes_);
  std::span<const NodeId> a = Neighbors(u);
  std::span<const NodeId> b = Neighbors(v);
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace reconcile
