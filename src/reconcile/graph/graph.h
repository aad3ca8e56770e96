#ifndef RECONCILE_GRAPH_GRAPH_H_
#define RECONCILE_GRAPH_GRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/types.h"

namespace reconcile {

class ThreadPool;

/// Immutable undirected simple graph in compressed sparse row (CSR) form.
///
/// Each node's neighbours are stored once, ascending by id (`Neighbors`):
/// that order gives `HasEdge` its binary search and every consumer a
/// deterministic iteration order. The matcher's degree-bucketed rounds
/// skip the neighbours below the bucket threshold as they go.
///
/// Construction goes through `FromEdgeList`, which canonicalizes the input
/// (self-loops and duplicate edges removed).
class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Builds a graph from `edges`, normalized in place by
  /// `EdgeList::Normalize` (a list that is already normalized, as the
  /// writers, samplers and serve batch merges emit, is only checked); the node
  /// count is max(edges.num_nodes(), largest endpoint + 1). Lists of
  /// `kParallelEdgeThreshold` edges or more are normalized and built on the
  /// process-wide shared pool (`ThreadPool::Shared()`) when there is more
  /// than one CPU; the result is independent of the thread count. An
  /// allocation the host refuses (ids that imply too many nodes) throws
  /// `std::bad_alloc` on the calling thread, also when a worker hit it.
  static Graph FromEdgeList(EdgeList edges);

  /// Same, but runs the passes on `pool`. After normalization, each worker
  /// slot owns a contiguous node range and fills only that range's offsets
  /// and adjacency slices. A node's slice is its smaller neighbours, then
  /// its larger ones; both come out ascending from the sorted edge list, so
  /// no id sort and no shared counter is needed. `pool == nullptr` builds
  /// the same graph as one range on the calling thread.
  static Graph FromEdgeList(EdgeList edges, ThreadPool* pool);

  NodeId num_nodes() const { return num_nodes_; }

  /// Number of undirected edges.
  size_t num_edges() const { return adjacency_.size() / 2; }

  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Largest degree in the graph (0 for an empty graph). Precomputed.
  NodeId max_degree() const { return max_degree_; }

  /// Neighbours of `v`, ascending by node id.
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True iff the edge {u, v} is present. O(log degree(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Number of common neighbours of `u` and `v` (sorted-merge intersection).
  size_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// Sum of degrees == 2 * num_edges().
  size_t degree_sum() const { return adjacency_.size(); }

 private:
  static Graph FromNormalized(EdgeList edges, ThreadPool* pool);

  NodeId num_nodes_ = 0;
  NodeId max_degree_ = 0;
  // offsets_ has num_nodes_ + 1 entries; adjacency slices live in
  // [offsets_[v], offsets_[v+1]).
  std::vector<size_t> offsets_{0};
  std::vector<NodeId> adjacency_;  // ascending by id
};

}  // namespace reconcile

#endif  // RECONCILE_GRAPH_GRAPH_H_
