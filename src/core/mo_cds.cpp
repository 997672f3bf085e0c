#include "core/mo_cds.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "graph/algorithms.hpp"

namespace manet::core {

MoCds build_mo_cds(const graph::Graph& g) {
  return build_mo_cds(g, cluster::lowest_id_clustering(g));
}

MoCds build_mo_cds(const graph::Graph& g, const cluster::Clustering& c) {
  MoCds mo;
  mo.clustering = c;
  const auto tables =
      build_neighbor_tables(g, mo.clustering, CoverageMode::kThreeHop);
  mo.coverage = build_all_coverage(g, mo.clustering, tables);
  mo.cds = mo.clustering.heads;

  for (NodeId h : mo.clustering.heads) {
    const auto neighbors = g.neighbors(h);
    // One connector per 2-hop head: the smallest-id neighbor adjacent to
    // the target.
    for (NodeId w : mo.coverage.two_hop[h]) {
      NodeId pick = kInvalidNode;
      for (NodeId v : neighbors) {
        if (g.has_edge(v, w)) {
          pick = v;  // ascending neighbor order -> smallest id
          break;
        }
      }
      MANET_ASSERT(pick != kInvalidNode, "2-hop head without a connector");
      insert_sorted(mo.connectors, pick);
      insert_sorted(mo.cds, pick);
    }
    // One connector pair per 3-hop head: lexicographically smallest
    // (first-hop, second-hop) among the CH_HOP2 witnesses.
    for (NodeId w : mo.coverage.three_hop[h]) {
      NodeId pick_v = kInvalidNode;
      NodeId pick_x = kInvalidNode;
      for (NodeId v : neighbors) {
        for (const auto& e : tables.ch_hop2[v]) {
          if (e.head != w) continue;
          if (pick_v == kInvalidNode || v < pick_v ||
              (v == pick_v && e.via < pick_x)) {
            pick_v = v;
            pick_x = e.via;
          }
        }
      }
      MANET_ASSERT(pick_v != kInvalidNode, "3-hop head without a pair");
      insert_sorted(mo.connectors, pick_v);
      insert_sorted(mo.connectors, pick_x);
      insert_sorted(mo.cds, pick_v);
      insert_sorted(mo.cds, pick_x);
    }
  }
  return mo;
}

std::string validate_mo_cds(const graph::Graph& g, const MoCds& mo) {
  std::ostringstream err;
  if (graph::is_connected(g) &&
      !graph::is_connected_dominating_set(g, mo.cds)) {
    err << "MO_CDS is not a connected dominating set";
    return err.str();
  }
  for (NodeId v : mo.connectors) {
    if (mo.clustering.is_head(v)) {
      err << "connector " << v << " is a clusterhead";
      return err.str();
    }
  }
  return {};
}

}  // namespace manet::core
