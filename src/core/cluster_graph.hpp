// The cluster graph G' (paper §3, Figure 4).
//
// Vertices are clusterheads; a directed arc (v, w) exists when w is in
// v's coverage set. Wu & Lou proved G' is strongly connected for a
// connected network under both coverage modes — that is the connectivity
// half of Theorem 1, and the property tests exercise it directly. With
// the 3-hop coverage set G' is symmetric; with the 2.5-hop set one-way
// arcs can appear (Figure 4a: arc 4->1 without 1->4).
#pragma once

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "graph/digraph.hpp"

namespace manet::core {

/// G' plus the head-id <-> vertex-index mapping.
struct ClusterGraph {
  NodeSet heads;            ///< sorted head ids; vertex i of `digraph` = heads[i]
  graph::Digraph digraph;   ///< arcs between head indices

  /// Index of head `h` in `heads` (requires membership).
  std::size_t index_of(NodeId h) const;

  /// True if arc head v -> head w exists (by node ids).
  bool has_arc_between_heads(NodeId v, NodeId w) const;
};

/// Builds G' from per-head coverage rows (as returned by
/// build_all_coverage).
ClusterGraph build_cluster_graph(const cluster::Clustering& c,
                                 const CoverageTable& coverage);

}  // namespace manet::core
