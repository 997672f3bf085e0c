// Coverage sets C(u) = C²(u) ∪ C³(u) (paper §1 and §3).
//
// A clusterhead u's coverage set lists the clusterheads it is responsible
// for connecting to. C²(u) collects every head reported in a neighbor's
// CH_HOP1 (heads exactly 2 hops away — heads are never adjacent); C³(u)
// collects heads reported in CH_HOP2 entries that are not already in
// C²(u) ("If a clusterhead appears in both C²(u) and C³(u), the one in
// C³(u) is removed"). With 2.5-hop tables this yields the heads owning
// members inside N²(u); with 3-hop tables it yields all heads within 3
// hops.
#pragma once

#include <string>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/neighbor_tables.hpp"
#include "core/row_table.hpp"
#include "graph/graph.hpp"

namespace manet::core {

/// Coverage targets of one clusterhead.
struct Coverage {
  NodeSet two_hop;    ///< C²(u): heads at distance exactly 2
  NodeSet three_hop;  ///< C³(u): remaining heads at distance 3

  /// C(u) = C²(u) ∪ C³(u).
  NodeSet all() const { return set_union(two_hop, three_hop); }

  bool empty() const { return two_hop.empty() && three_hop.empty(); }
  std::size_t size() const { return two_hop.size() + three_hop.size(); }
};

/// The coverage of every node as two packed rows per node (row_table.hpp):
/// C² and C³, empty off the heads.
struct CoverageTable {
  RowTable<NodeId> two_hop;
  RowTable<NodeId> three_hop;

  /// Replaces both rows of `v` with `c`.
  void assign(NodeId v, const Coverage& c) {
    two_hop.assign(v, c.two_hop);
    three_hop.assign(v, c.three_hop);
  }
};

/// Builds C(head) from the neighbor tables.
Coverage build_coverage(const graph::Graph& g, const cluster::Clustering& c,
                        const NeighborTables& tables, NodeId head);

/// Coverage for every clusterhead, one row pair per node id (rows of
/// non-heads stay empty).
CoverageTable build_all_coverage(const graph::Graph& g,
                                 const cluster::Clustering& c,
                                 const NeighborTables& tables);

/// Validates a coverage set against ground-truth BFS distances: C² must be
/// exactly the heads at distance 2; C³ must be heads at distance 3 that
/// match the mode's reachability rule. Returns an empty string when valid.
std::string validate_coverage(const graph::Graph& g,
                              const cluster::Clustering& c,
                              const NeighborTables& tables, NodeId head,
                              const Coverage& coverage);

}  // namespace manet::core
