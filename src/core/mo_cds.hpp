// MO_CDS — the message-optimal CDS of Alzoubi, Wan & Frieder
// (MobiHoc 2002), the baseline the paper compares against.
//
// Construction (paper §2, last paragraph): clusterheads come from
// lowest-ID clustering; then every clusterhead selects *one* node to
// connect each 2-hop clusterhead and *a pair* of nodes to connect each
// 3-hop clusterhead (3-hop coverage set, per-target — no greedy sharing
// across targets; the paper calls MO_CDS "a modified version of the
// static backbone with the 3-hop coverage set"). Connector choices are
// not fixed by the paper; we take the smallest-id common neighbor /
// lexicographically smallest pair, mirroring DESIGN.md.
#pragma once

#include <string>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/graph.hpp"

namespace manet::core {

/// The materialized MO_CDS baseline.
struct MoCds {
  cluster::Clustering clustering;
  CoverageTable coverage;  ///< 3-hop coverage rows, indexed by node id
  NodeSet connectors;      ///< all selected connector nodes
  NodeSet cds;             ///< clusterheads ∪ connectors

  bool in_backbone(NodeId v) const { return contains_sorted(cds, v); }
};

/// Builds the MO_CDS for `g` (clusters computed internally).
MoCds build_mo_cds(const graph::Graph& g);

/// Builds the MO_CDS on an existing clustering (for like-for-like
/// comparisons against the static/dynamic backbones).
MoCds build_mo_cds(const graph::Graph& g, const cluster::Clustering& c);

/// Verifies the result is a CDS on connected graphs; empty string if ok.
std::string validate_mo_cds(const graph::Graph& g, const MoCds& mo);

}  // namespace manet::core
