#include "reconcile/graph/graph.h"

#include <algorithm>
#include <atomic>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

namespace {

// Below this many (normalized) edges a serial build beats spinning up / using
// worker threads.
constexpr size_t kParallelBuildThreshold = 1u << 15;

void SortAdjacencySerial(Graph* g, std::vector<NodeId>* adjacency,
                         const std::vector<size_t>& offsets, NodeId num_nodes,
                         bool by_degree) {
  for (NodeId v = 0; v < num_nodes; ++v) {
    auto begin = adjacency->begin() + static_cast<ptrdiff_t>(offsets[v]);
    auto end = adjacency->begin() + static_cast<ptrdiff_t>(offsets[v + 1]);
    if (by_degree) {
      std::sort(begin, end, [g](NodeId a, NodeId b) {
        NodeId da = g->degree(a), db = g->degree(b);
        if (da != db) return da > db;
        return a < b;
      });
    } else {
      std::sort(begin, end);
    }
  }
}

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

Graph Graph::FromNormalized(EdgeList edges, ThreadPool* pool) {
  Graph g;
  g.num_nodes_ = edges.num_nodes();
  const size_t n = g.num_nodes_;
  const std::vector<Edge>& es = edges.edges();
  const size_t m = es.size();
  g.offsets_.assign(n + 1, 0);

  const bool parallel = pool != nullptr && pool->num_threads() > 1 && m > 0;
  if (!parallel) {
    // Counting pass: each undirected edge contributes to both endpoints.
    for (const Edge& e : es) {
      ++g.offsets_[e.first + 1];
      ++g.offsets_[e.second + 1];
    }
    for (size_t v = 1; v < g.offsets_.size(); ++v) {
      g.offsets_[v] += g.offsets_[v - 1];
    }

    g.adjacency_.resize(g.offsets_.back());
    std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const Edge& e : es) {
      g.adjacency_[cursor[e.first]++] = e.second;
      g.adjacency_[cursor[e.second]++] = e.first;
    }

    // Normalized edge lists are sorted by (min, max), so each adjacency slice
    // receives its entries partially ordered; sort each slice to guarantee
    // the ascending-id invariant.
    SortAdjacencySerial(&g, &g.adjacency_, g.offsets_, g.num_nodes_, false);

    for (NodeId v = 0; v < g.num_nodes_; ++v) {
      g.max_degree_ = std::max(g.max_degree_, g.degree(v));
    }

    // Degree-descending view: stable secondary order by ascending id keeps
    // the layout deterministic.
    g.by_degree_ = g.adjacency_;
    SortAdjacencySerial(&g, &g.by_degree_, g.offsets_, g.num_nodes_, true);
    return g;
  }

  // Parallel build on the work-stealing loop: power-law degree sequences
  // make the per-node sort passes heavily skewed, and stealing repairs that
  // imbalance at runtime. Scatter order into each adjacency slice depends
  // on task interleaving, but the per-node sorts impose the canonical
  // order, so the resulting graph is bit-identical to the serial build.
  const size_t edge_grain = pool->GrainFor(m, 1024);
  const size_t node_grain = pool->GrainFor(n, 256);

  // Degree count via relaxed atomics (increments commute).
  std::vector<std::atomic<NodeId>> count(n);
  ParallelForWorkStealing(pool, m, edge_grain, [&es, &count](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      count[es[i].first].fetch_add(1, std::memory_order_relaxed);
      count[es[i].second].fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Blocked parallel scan over the degree counts: per-block totals in
  // parallel, a serial exclusive scan of the block totals, then a parallel
  // add-back that also resets the counters for reuse as scatter cursors.
  // Fixed blocking and plain integer addition, so the offsets are
  // bit-identical to a serial scan for any thread count.
  {
    const size_t block = ThreadPool::GrainSize(n, pool->num_threads(), 4096);
    const size_t num_blocks = (n + block - 1) / block;
    std::vector<size_t> block_base(num_blocks, 0);
    ParallelForWorkStealing(pool, num_blocks, 1, [&](size_t blo, size_t bhi) {
      for (size_t b = blo; b < bhi; ++b) {
        const size_t lo = b * block, hi = std::min(n, lo + block);
        size_t sum = 0;
        for (size_t v = lo; v < hi; ++v) {
          sum += count[v].load(std::memory_order_relaxed);
        }
        block_base[b] = sum;
      }
    });
    size_t running = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t total = block_base[b];
      block_base[b] = running;
      running += total;
    }
    ParallelForWorkStealing(pool, num_blocks, 1, [&](size_t blo, size_t bhi) {
      for (size_t b = blo; b < bhi; ++b) {
        const size_t lo = b * block, hi = std::min(n, lo + block);
        size_t prefix = block_base[b];
        for (size_t v = lo; v < hi; ++v) {
          prefix += count[v].load(std::memory_order_relaxed);
          g.offsets_[v + 1] = prefix;
          count[v].store(0, std::memory_order_relaxed);  // scatter cursor
        }
      }
    });
  }

  g.adjacency_.resize(g.offsets_.back());
  ParallelForWorkStealing(pool, m, edge_grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const auto [a, b] = es[i];
      g.adjacency_[g.offsets_[a] +
                   count[a].fetch_add(1, std::memory_order_relaxed)] = b;
      g.adjacency_[g.offsets_[b] +
                   count[b].fetch_add(1, std::memory_order_relaxed)] = a;
    }
  });

  ParallelForWorkStealing(pool, n, node_grain, [&g](size_t lo, size_t hi) {
    for (size_t v = lo; v < hi; ++v) {
      std::sort(
          g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]),
          g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v + 1]));
    }
  });

  for (NodeId v = 0; v < g.num_nodes_; ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(v));
  }

  g.by_degree_.resize(g.adjacency_.size());
  ParallelForWorkStealing(pool, n, node_grain, [&g](size_t lo, size_t hi) {
    for (size_t v = lo; v < hi; ++v) {
      auto begin = g.by_degree_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]);
      std::copy(g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]),
                g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v + 1]),
                begin);
      std::sort(begin,
                g.by_degree_.begin() + static_cast<ptrdiff_t>(g.offsets_[v + 1]),
                [&g](NodeId a, NodeId b) {
                  NodeId da = g.degree(a), db = g.degree(b);
                  if (da != db) return da > db;
                  return a < b;
                });
    }
  });

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
