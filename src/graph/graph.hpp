// Undirected graph with compressed sparse row adjacency.
//
// This is the network topology model used everywhere: vertices are mobile
// hosts, edges are bidirectional wireless links. Adjacency lists are kept
// sorted, so neighbor queries are cache-friendly spans and membership tests
// are binary searches.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace manet::graph {

/// Immutable undirected simple graph in CSR form. Build with GraphBuilder.
class Graph {
 public:
  Graph() = default;

  /// Adopts pre-built CSR arrays: `offsets` has order+1 entries and
  /// `adjacency[offsets[v]..offsets[v+1])` is the sorted neighbor list of
  /// v, with every edge present in both directions. This is the zero-copy
  /// entry point for streaming constructions (unit_disk_graph_streaming)
  /// that count degrees and fill rows in place instead of accumulating an
  /// intermediate edge list.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<NodeId> adjacency);

  /// Number of vertices.
  std::size_t order() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Number of undirected edges.
  std::size_t edge_count() const { return adjacency_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const NodeId> neighbors(NodeId v) const;

  /// Degree of `v`.
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// True if the undirected edge {u, v} exists. O(log degree).
  bool has_edge(NodeId u, NodeId v) const;

  /// Average vertex degree (0 for the empty graph).
  double average_degree() const;

  /// Maximum vertex degree.
  std::size_t max_degree() const;

  /// All undirected edges as (u, v) with u < v, lexicographically sorted.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  friend class GraphBuilder;
  std::vector<std::size_t> offsets_;  // size order()+1
  std::vector<NodeId> adjacency_;     // concatenated sorted neighbor lists
};

/// Accumulates edges, then freezes them into a Graph.
class GraphBuilder {
 public:
  /// Creates a builder for a graph on `order` vertices (ids [0, order)).
  /// Throws std::invalid_argument when `order` exceeds kInvalidNode.
  explicit GraphBuilder(std::size_t order);

  /// Adds the undirected edge {u, v}. Self-loops are rejected; duplicate
  /// edges are deduplicated at build().
  GraphBuilder& edge(NodeId u, NodeId v);

  /// Adds edges from a list of (u, v) pairs.
  GraphBuilder& edges(std::span<const std::pair<NodeId, NodeId>> list);

  /// Pre-allocates room for `count` edges (hot-path hint; optional).
  GraphBuilder& reserve(std::size_t count);

  /// Builds the immutable CSR graph. The builder can be reused afterwards
  /// (it retains its edge list), at the cost of sorting/deduplicating a
  /// copy of that list on every call.
  Graph build() const;

  /// Builds the CSR graph by consuming the retained edge list (sorts it
  /// in place, no copy) and leaves the builder empty for reuse. This is
  /// the fast path for build-once callers like unit_disk_graph.
  Graph build_and_clear();

  std::size_t order() const { return order_; }

 private:
  /// Freezes a normalized (min, max) edge list into CSR form; sorts and
  /// deduplicates `norm` in place.
  static Graph freeze(std::size_t order,
                      std::vector<std::pair<NodeId, NodeId>>& norm);

  std::size_t order_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Convenience: builds a graph on `order` vertices from an edge list.
Graph make_graph(std::size_t order,
                 std::initializer_list<std::pair<NodeId, NodeId>> edges);

/// A path graph 0-1-2-...-(n-1).
Graph make_path(std::size_t n);

/// A cycle graph on n >= 3 vertices.
Graph make_cycle(std::size_t n);

/// The complete graph on n vertices.
Graph make_complete(std::size_t n);

/// A star with center 0 and n-1 leaves.
Graph make_star(std::size_t n);

/// An r-by-c grid graph (4-neighborhood), vertex (i,j) = i*c + j.
Graph make_grid(std::size_t rows, std::size_t cols);

}  // namespace manet::graph
