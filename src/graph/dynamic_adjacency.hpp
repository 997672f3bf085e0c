// Mutable adjacency overlay for delta-driven topology maintenance.
//
// graph::Graph is an immutable CSR snapshot — ideal for the batch
// pipeline, hostile to a stream of single-edge updates. DynamicAdjacency
// keeps one sorted neighbor vector per vertex with O(degree)
// insert/erase, and offers the same query surface as Graph (sorted
// spans, binary-search membership), so the table/coverage kernels in
// core/table_kernels.hpp run unchanged against either representation.
// freeze() produces the equivalent CSR Graph for interop with the batch
// algorithms and for the incremental engine's oracle cross-check.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::graph {

/// Mutable undirected simple graph on a fixed vertex population.
class DynamicAdjacency {
 public:
  DynamicAdjacency() = default;

  /// Empty graph on `order` vertices (ids [0, order)).
  explicit DynamicAdjacency(std::size_t order);

  /// Copies the adjacency of an immutable snapshot.
  explicit DynamicAdjacency(const Graph& g);

  /// Number of vertices.
  std::size_t order() const { return adjacency_.size(); }

  /// Number of undirected edges.
  std::size_t edge_count() const { return edges_; }

  /// Sorted neighbors of `v`.
  std::span<const NodeId> neighbors(NodeId v) const;

  /// Degree of `v`.
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// True if the undirected edge {u, v} exists. O(log degree).
  bool has_edge(NodeId u, NodeId v) const;

  /// Inserts the undirected edge {u, v}; rejects self-loops. Returns
  /// true if the edge was absent (false on duplicates).
  bool add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v}. Returns true if it existed.
  bool remove_edge(NodeId u, NodeId v);

  /// Immutable CSR snapshot of the current adjacency: O(order + edges),
  /// a copy of the sorted rows with no edge list and no sort.
  Graph freeze() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;  // sorted per vertex
  std::size_t edges_ = 0;
};

}  // namespace manet::graph
