// One digest for "the maintained backbone state", shared by every engine
// that claims to hold the same structure.
//
// exp::run_churn introduced this FNV-1a fold over the incremental
// engine's accessors; the message-driven maintenance engine (src/proto)
// must land on the bitwise-identical digest every tick, so the fold
// lives here — field order and length prefixes are part of the contract.
// Hash the components straight off an engine's accessors (no
// materialize() copy) or hash a StaticBackbone; same fields, same
// digest.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"

namespace manet::core {

/// FNV-1a folded over the 8 bytes of `v` (little-endian order).
inline std::uint64_t state_hash_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Length-prefixed fold of a sorted node set or table row (distinct
/// shapes cannot collide by concatenation).
inline std::uint64_t state_hash_nodes(std::uint64_t h,
                                      std::span<const NodeId> nodes) {
  h = state_hash_mix(h, nodes.size());
  for (const NodeId v : nodes) h = state_hash_mix(h, v);
  return h;
}

/// Digest of one maintained backbone: clustering (heads, head_of,
/// roles), both table rows per node, coverage and selection per node,
/// the gateway union and the CDS — in exactly that order.
inline std::uint64_t backbone_state_hash(
    const cluster::Clustering& clustering, const NeighborTables& tables,
    const std::vector<Coverage>& coverage,
    const std::vector<GatewaySelection>& selection, const NodeSet& gateways,
    const NodeSet& cds) {
  std::uint64_t h = 14695981039346656037ULL;
  h = state_hash_nodes(h, clustering.heads);
  h = state_hash_mix(h, clustering.head_of.size());
  for (const NodeId v : clustering.head_of) h = state_hash_mix(h, v);
  for (const auto role : clustering.roles)
    h = state_hash_mix(h, static_cast<std::uint64_t>(role));
  for (std::size_t v = 0; v < tables.ch_hop1.size(); ++v)
    h = state_hash_nodes(h, tables.ch_hop1[v]);
  for (std::size_t v = 0; v < tables.ch_hop2.size(); ++v) {
    const auto row = tables.ch_hop2[v];
    h = state_hash_mix(h, row.size());
    for (const auto& e : row)
      h = state_hash_mix(h, (std::uint64_t{e.head} << 32) | e.via);
  }
  for (const auto& cov : coverage) {
    h = state_hash_nodes(h, cov.two_hop);
    h = state_hash_nodes(h, cov.three_hop);
  }
  for (const auto& sel : selection) h = state_hash_nodes(h, sel.gateways);
  h = state_hash_nodes(h, gateways);
  h = state_hash_nodes(h, cds);
  return h;
}

/// Digest of a materialized StaticBackbone (same fields, same digest).
inline std::uint64_t backbone_state_hash(const StaticBackbone& b) {
  return backbone_state_hash(b.clustering, b.tables, b.coverage, b.selection,
                             b.gateways, b.cds);
}

}  // namespace manet::core
