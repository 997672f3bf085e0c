// One read-only view of a maintained backbone, and the two readers of
// the whole structure: the state digest and the oracle diff. The two
// broadcasts read it too: core::dynamic_broadcast (SD-CDS) takes
// clustering(), the table rows and the coverage spans of any view, and
// broadcast::si_cds_broadcast floods its cds().
//
// A backbone view of an n-node network answers mode(), clustering()
// (a const cluster::Clustering&), gateways() and cds() (the gateway
// union and the SI-CDS, sorted), and, per node v, the spans hop1(v) and
// hop2(v) (its CH_HOP1/CH_HOP2 rows), coverage_two_hop(v),
// coverage_three_hop(v) and selection(v) (empty off the heads).
//
// core::BackboneRef implements it over dense per-node vectors: a
// StaticBackbone through its constructor, incr::IncrementalBackbone and
// incr::IncrementalPipeline through view(). proto::MaintenanceEngine's
// view() reads each node's own state. Every engine that claims to hold
// the same structure must land on the same digest, so the fold's field
// order and length prefixes are part of the contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"

namespace manet::core {

/// The backbone view over dense per-node vectors. It holds references to
/// the clustering, tables, coverage and selections — build it in the
/// expression that reads it, or over a named backbone — and the gateway
/// union and the CDS by value, since an engine may derive those on read.
class BackboneRef {
 public:
  BackboneRef(const cluster::Clustering& clustering,
              const NeighborTables& tables,
              const std::vector<Coverage>& coverage,
              const std::vector<GatewaySelection>& selection,
              NodeSet gateways, NodeSet cds)
      : clustering_(clustering),
        tables_(tables),
        coverage_(coverage),
        selection_(selection),
        gateways_(std::move(gateways)),
        cds_(std::move(cds)) {}
  explicit BackboneRef(const StaticBackbone& b)
      : BackboneRef(b.clustering, b.tables, b.coverage, b.selection,
                    b.gateways, b.cds) {}

  CoverageMode mode() const { return tables_.mode; }
  const cluster::Clustering& clustering() const { return clustering_; }
  std::span<const NodeId> hop1(NodeId v) const { return tables_.ch_hop1[v]; }
  std::span<const Hop2Entry> hop2(NodeId v) const { return tables_.ch_hop2[v]; }
  std::span<const NodeId> coverage_two_hop(NodeId v) const {
    return coverage_[v].two_hop;
  }
  std::span<const NodeId> coverage_three_hop(NodeId v) const {
    return coverage_[v].three_hop;
  }
  std::span<const NodeId> selection(NodeId v) const {
    return selection_[v].gateways;
  }
  const NodeSet& gateways() const { return gateways_; }
  const NodeSet& cds() const { return cds_; }

 private:
  const cluster::Clustering& clustering_;
  const NeighborTables& tables_;
  const std::vector<Coverage>& coverage_;
  const std::vector<GatewaySelection>& selection_;
  NodeSet gateways_;
  NodeSet cds_;
};

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

/// Digest of one backbone view: clustering (heads, head_of, roles), both
/// table rows per node, coverage and selection per node, the gateway
/// union and the CDS — in exactly that order.
template <class View>
std::uint64_t backbone_state_hash(const View& b) {
  const cluster::Clustering& clustering = b.clustering();
  const std::size_t n = clustering.head_of.size();
  std::uint64_t h = 14695981039346656037ULL;
  h = state_hash_nodes(h, clustering.heads);
  h = state_hash_mix(h, n);
  for (const NodeId v : clustering.head_of) h = state_hash_mix(h, v);
  for (const auto role : clustering.roles)
    h = state_hash_mix(h, static_cast<std::uint64_t>(role));
  for (NodeId v = 0; v < n; ++v) h = state_hash_nodes(h, b.hop1(v));
  for (NodeId v = 0; v < n; ++v) {
    const auto row = b.hop2(v);
    h = state_hash_mix(h, row.size());
    for (const auto& e : row)
      h = state_hash_mix(h, (std::uint64_t{e.head} << 32) | e.via);
  }
  for (NodeId v = 0; v < n; ++v) {
    h = state_hash_nodes(h, b.coverage_two_hop(v));
    h = state_hash_nodes(h, b.coverage_three_hop(v));
  }
  for (NodeId v = 0; v < n; ++v) h = state_hash_nodes(h, b.selection(v));
  h = state_hash_nodes(h, b.gateways());
  h = state_hash_nodes(h, b.cds());
  return h;
}

/// The digest of a backbone given as its six parts.
inline std::uint64_t backbone_state_hash(
    const cluster::Clustering& clustering, const NeighborTables& tables,
    const std::vector<Coverage>& coverage,
    const std::vector<GatewaySelection>& selection, NodeSet gateways,
    NodeSet cds) {
  return backbone_state_hash(BackboneRef(clustering, tables, coverage,
                                         selection, std::move(gateways),
                                         std::move(cds)));
}

/// Field-by-field comparison of two backbone views: empty on bitwise
/// equality, else the first difference in the order coverage mode, node
/// count, heads, head_of and roles, table rows, coverage and selections,
/// gateway union, CDS. `divergent`, when given, receives a witness: the
/// node whose field differs; for differing head sets the first head only
/// `got` has, else the first only `want` has; else kInvalidNode.
template <class A, class B>
std::string diff_backbones(const A& got, const B& want,
                           NodeId* divergent = nullptr) {
  NodeId unused = kInvalidNode;
  NodeId& witness = divergent != nullptr ? *divergent : unused;
  witness = kInvalidNode;
  if (got.mode() != want.mode()) return "coverage modes differ";
  const cluster::Clustering& gc = got.clustering();
  const cluster::Clustering& wc = want.clustering();
  const std::size_t n = gc.head_of.size();
  std::ostringstream os;
  if (n != wc.head_of.size()) {
    os << "orders differ (" << n << " vs " << wc.head_of.size()
       << " nodes)";
    return os.str();
  }
  if (gc.heads != wc.heads) {
    NodeSet only = set_difference(gc.heads, wc.heads);
    if (only.empty()) only = set_difference(wc.heads, gc.heads);
    if (!only.empty()) witness = only.front();
    os << "clusterhead sets differ (" << gc.heads.size() << " vs "
       << wc.heads.size() << ")";
    return os.str();
  }
  const auto differs_at = [&](const char* field, NodeId v) {
    witness = v;
    os << field << "[" << v << "] differs";
    return os.str();
  };
  for (NodeId v = 0; v < n; ++v) {
    if (gc.head_of[v] != wc.head_of[v]) {
      witness = v;
      os << "head_of[" << v << "]: " << gc.head_of[v] << " vs "
         << wc.head_of[v];
      return os.str();
    }
    if (gc.roles[v] != wc.roles[v]) return differs_at("role", v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!std::ranges::equal(got.hop1(v), want.hop1(v)))
      return differs_at("ch_hop1", v);
    if (!std::ranges::equal(got.hop2(v), want.hop2(v)))
      return differs_at("ch_hop2", v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!std::ranges::equal(got.coverage_two_hop(v),
                            want.coverage_two_hop(v)) ||
        !std::ranges::equal(got.coverage_three_hop(v),
                            want.coverage_three_hop(v)))
      return differs_at("coverage", v);
    if (!std::ranges::equal(got.selection(v), want.selection(v)))
      return differs_at("selection", v);
  }
  if (!std::ranges::equal(got.gateways(), want.gateways()))
    return "gateway unions differ";
  if (!std::ranges::equal(got.cds(), want.cds())) return "CDS differs";
  return "";
}

}  // namespace manet::core
