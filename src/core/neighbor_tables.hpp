// CH_HOP1 / CH_HOP2 neighbor tables (paper §3).
//
// After clustering, every non-clusterhead u broadcasts
//   CH_HOP1(u): the clusterheads adjacent to u, and
//   CH_HOP2(u): "2-hop clusterhead entries" (head, via) learned from its
//               neighbors' CH_HOP1 messages,
// and clusterheads assemble their coverage sets from what their neighbors
// report. The CH_HOP2 content is where the two coverage variants differ:
//
//  * 2.5-hop mode — when u hears CH_HOP1(x) from neighbor x, it records
//    only x's *own* clusterhead (paper: "only the clusterheads of those
//    1-hop neighbors will be included"), provided that head is not already
//    one of u's neighbors.
//  * 3-hop mode — u records *every* clusterhead in CH_HOP1(x) that is not
//    one of u's neighbors, which lets heads build the full 3-hop coverage
//    set N^3 ∩ heads.
//
// This module is the centralized computation of those tables; the `net`
// module reproduces them with real messages and the integration tests
// assert both agree.
#pragma once

#include <compare>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/row_table.hpp"
#include "graph/graph.hpp"

namespace manet::core {

/// Which coverage-set definition drives CH_HOP2 (and everything above it).
enum class CoverageMode : std::uint8_t {
  kTwoPointFiveHop,  ///< heads with members in N^2(u) (cheaper upkeep)
  kThreeHop,         ///< all heads within 3 hops
};

const char* to_string(CoverageMode mode);

/// One CH_HOP2 entry: clusterhead `head` reachable via 1-hop neighbor
/// `via` (paper notation "head[via]").
struct Hop2Entry {
  NodeId head;
  NodeId via;

  friend auto operator<=>(const Hop2Entry&, const Hop2Entry&) = default;
};

/// The per-node tables a clusterhead's selection process consumes, one
/// packed row per node (row_table.hpp: rows are spans, valid until the
/// next assign() to the same table).
struct NeighborTables {
  CoverageMode mode;
  /// ch_hop1[v]: sorted clusterheads adjacent to v. Populated for every
  /// node (a head's row lists nothing — heads do not send CH_HOP1 — and
  /// is kept empty).
  RowTable<NodeId> ch_hop1;
  /// ch_hop2[v]: entries sorted by (head, via); empty for clusterheads.
  RowTable<Hop2Entry> ch_hop2;

  /// Heads reported by `v`'s CH_HOP2 entries, deduplicated.
  NodeSet hop2_heads(NodeId v) const;
};

/// Computes CH_HOP1/CH_HOP2 for every node.
NeighborTables build_neighbor_tables(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     CoverageMode mode);

}  // namespace manet::core
