// The static backbone: cluster-based source-independent CDS (paper §3,
// Theorem 1).
//
// Pipeline: lowest-ID clustering -> CH_HOP1/CH_HOP2 tables -> coverage
// sets -> per-head gateway selection. Clusterheads plus all selected
// gateways form a source-independent CDS; every broadcast floods over
// exactly this set (see broadcast/si_cds_broadcast).
#pragma once

#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/graph.hpp"

namespace manet::core {

/// The fully-materialized static backbone of one topology.
struct StaticBackbone {
  CoverageMode mode;
  cluster::Clustering clustering;
  NeighborTables tables;
  std::vector<Coverage> coverage;              ///< indexed by node id
  std::vector<GatewaySelection> selection{};   ///< indexed by node id (heads)
  NodeSet gateways{};  ///< union of all selected gateways
  NodeSet cds{};       ///< clusterheads ∪ gateways — the SI-CDS

  bool in_backbone(NodeId v) const { return contains_sorted(cds, v); }
};

/// Builds the complete static backbone for `g`.
StaticBackbone build_static_backbone(const graph::Graph& g,
                                     CoverageMode mode);

/// Builds a static backbone on top of an existing clustering (used when
/// comparing algorithms on identical clusters).
StaticBackbone build_static_backbone(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     CoverageMode mode);

/// Verifies Theorem 1 obligations on a concrete instance: the CDS is a
/// connected dominating set of g (for connected g) and every head's
/// selection covers its whole coverage set. Empty string when valid.
std::string validate_static_backbone(const graph::Graph& g,
                                     const StaticBackbone& backbone);

}  // namespace manet::core
