#include "reconcile/serve/overlay_graph.h"

#include <algorithm>
#include <utility>

#include "reconcile/util/logging.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

namespace {

// Sorted-vector set helpers. Diff vectors stay tiny between compactions,
// so O(size) insert/erase beats hash sets on both memory and scan speed.
bool SortedContains(const std::vector<NodeId>& v, NodeId x) {
  return std::binary_search(v.begin(), v.end(), x);
}

// Returns true when `x` was absent and has been inserted.
bool SortedInsert(std::vector<NodeId>* v, NodeId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}

// Returns true when `x` was present and has been erased.
bool SortedErase(std::vector<NodeId>* v, NodeId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it == v->end() || *it != x) return false;
  v->erase(it);
  return true;
}

}  // namespace

OverlayGraph::OverlayGraph(Graph base)
    : base_(std::move(base)), num_nodes_(base_.num_nodes()),
      num_edges_(base_.num_edges()) {
  added_.resize(num_nodes_);
  removed_.resize(num_nodes_);
  degree_.resize(num_nodes_);
  for (NodeId u = 0; u < num_nodes_; ++u) degree_[u] = base_.degree(u);
}

bool OverlayGraph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_ || u == v) return false;
  if (SortedContains(added_[u], v)) return true;
  if (u < base_.num_nodes() && v < base_.num_nodes() && base_.HasEdge(u, v)) {
    return !SortedContains(removed_[u], v);
  }
  return false;
}

void OverlayGraph::EnsureNode(NodeId u) {
  if (u < num_nodes_) return;
  num_nodes_ = u + 1;
  added_.resize(num_nodes_);
  removed_.resize(num_nodes_);
  degree_.resize(num_nodes_, 0);
}

bool OverlayGraph::InsertEdge(NodeId u, NodeId v) {
  // Growing to kInvalidNode + 1 nodes would wrap the node count to 0.
  RECONCILE_CHECK_LT(std::max(u, v), kInvalidNode)
      << "node id overflows the 32-bit id space";
  if (u == v) return false;
  EnsureNode(std::max(u, v));
  if (HasEdge(u, v)) return false;
  const bool in_base = u < base_.num_nodes() && v < base_.num_nodes() &&
                       base_.HasEdge(u, v);
  if (in_base) {
    // Re-inserting a deleted base edge cancels the removal diff.
    RECONCILE_CHECK(SortedErase(&removed_[u], v));
    RECONCILE_CHECK(SortedErase(&removed_[v], u));
    num_uncompacted_ -= 2;
  } else {
    RECONCILE_CHECK(SortedInsert(&added_[u], v));
    RECONCILE_CHECK(SortedInsert(&added_[v], u));
    num_uncompacted_ += 2;
  }
  ++degree_[u];
  ++degree_[v];
  ++num_edges_;
  return true;
}

bool OverlayGraph::DeleteEdge(NodeId u, NodeId v) {
  if (!HasEdge(u, v)) return false;
  if (SortedErase(&added_[u], v)) {
    // Deleting a not-yet-compacted insert cancels the addition diff.
    RECONCILE_CHECK(SortedErase(&added_[v], u));
    num_uncompacted_ -= 2;
  } else {
    RECONCILE_CHECK(SortedInsert(&removed_[u], v));
    RECONCILE_CHECK(SortedInsert(&removed_[v], u));
    num_uncompacted_ += 2;
  }
  RECONCILE_CHECK_GT(degree_[u], 0u);
  RECONCILE_CHECK_GT(degree_[v], 0u);
  --degree_[u];
  --degree_[v];
  --num_edges_;
  return true;
}

std::vector<NodeId> OverlayGraph::Neighbors(NodeId u) const {
  std::vector<NodeId> out;
  out.reserve(degree_[u]);
  ForEachNeighbor(u, [&](NodeId v) { out.push_back(v); });
  return out;
}

EdgeList OverlayGraph::Materialize() const {
  EdgeList edges(num_nodes_);
  edges.Reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    ForEachNeighbor(u, [&](NodeId v) {
      if (u < v) edges.Add(u, v);
    });
  }
  RECONCILE_CHECK_EQ(edges.size(), num_edges_);
  return edges;
}

void OverlayGraph::Compact(ThreadPool* pool) {
  if (num_uncompacted_ == 0 && base_.num_nodes() == num_nodes_) return;
  EdgeList edges = Materialize();
  base_ = Graph::FromEdgeList(std::move(edges), pool);
  RECONCILE_CHECK_EQ(base_.num_nodes(), num_nodes_);
  RECONCILE_CHECK_EQ(base_.num_edges(), num_edges_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    added_[u].clear();
    added_[u].shrink_to_fit();
    removed_[u].clear();
    removed_[u].shrink_to_fit();
  }
  num_uncompacted_ = 0;
}

}  // namespace reconcile
