#ifndef RECONCILE_GRAPH_EDGE_LIST_H_
#define RECONCILE_GRAPH_EDGE_LIST_H_

#include <cstddef>
#include <vector>

#include "reconcile/graph/types.h"

namespace reconcile {

class ThreadPool;

/// Edge lists at least this long are normalized, and their graphs built, on
/// the process-wide shared pool when there is more than one CPU. Below it,
/// handing out the passes costs more than it saves.
inline constexpr size_t kParallelEdgeThreshold = size_t{1} << 15;

/// Mutable collection of undirected edges used while constructing graphs.
///
/// Generators append edges freely (duplicates and self-loops allowed); the
/// `Graph` builder canonicalizes. Endpoints are stored as given; undirected
/// semantics are applied at normalization time.
class EdgeList {
 public:
  EdgeList() = default;

  /// Creates an edge list that will index nodes `[0, num_nodes)`.
  explicit EdgeList(NodeId num_nodes) : num_nodes_(num_nodes) {}

  EdgeList(const EdgeList&) = default;
  EdgeList& operator=(const EdgeList&) = default;
  EdgeList(EdgeList&&) = default;
  EdgeList& operator=(EdgeList&&) = default;

  /// Appends the undirected edge {u, v}; grows the node range if needed.
  void Add(NodeId u, NodeId v) {
    edges_.emplace_back(u, v);
    if (u >= num_nodes_) num_nodes_ = u + 1;
    if (v >= num_nodes_) num_nodes_ = v + 1;
  }

  void Reserve(size_t n) { edges_.reserve(n); }

  /// Raises the node range to at least `num_nodes` (never shrinks).
  void EnsureNumNodes(NodeId num_nodes) {
    if (num_nodes > num_nodes_) num_nodes_ = num_nodes;
  }

  /// Sorts endpoint pairs canonically (min, max), drops self-loops and
  /// duplicate edges. Idempotent. Lists of `kParallelEdgeThreshold` edges or
  /// more run on the process-wide shared pool when there is more than one
  /// CPU; the result is independent of the thread count.
  void Normalize();

  /// Same, but runs on `pool` (`nullptr` runs the same passes as one block
  /// on the calling thread). One pass over fixed blocks, one per worker
  /// slot, canonicalizes each pair in place and checks that the list is
  /// already normalized (no self-loop, strictly ascending); writers, the
  /// samplers and the serve batch merge all emit such lists, and those
  /// return here. Otherwise the pairs are packed into u64 keys, radix-sorted
  /// on the pool, and unpacked back into the list, dropping self-loops and
  /// duplicates on the way. Allocates per edge, never per node.
  void Normalize(ThreadPool* pool);

  size_t size() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }
  NodeId num_nodes() const { return num_nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& mutable_edges() { return edges_; }

 private:
  std::vector<Edge> edges_;
  NodeId num_nodes_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_GRAPH_EDGE_LIST_H_
