#include "core/static_backbone.hpp"

#include "core/gateway_selection.hpp"
#include "core/table_kernels.hpp"
#include "graph/algorithms.hpp"
#include "graph/bitset.hpp"

namespace manet::core {

StaticBackbone build_static_backbone(const graph::Graph& g,
                                     CoverageMode mode) {
  return build_static_backbone(g, cluster::lowest_id_clustering(g), mode);
}

StaticBackbone build_static_backbone(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     CoverageMode mode) {
  const std::size_t n = g.order();
  StaticBackbone b;
  b.mode = mode;
  b.clustering = c;
  b.tables = build_neighbor_tables(g, b.clustering, mode);
  b.coverage = {RowTable<NodeId>(n), RowTable<NodeId>(n)};
  b.selection = RowTable<NodeId>(n);
  // Gateways collect in a bitset, materialized once: insert_sorted per
  // gateway is O(k) each, O(k²) over the build — measurable well before
  // the 100k-node sweep this path baselines.
  graph::NodeBitset gateway_bits(n);
  // Scratches and row buffers reused across heads (allocated/zeroed once).
  const TablesView<graph::Graph> view{g, b.clustering, b.tables};
  CoverageScratch cov_scratch;
  SelectionScratch sel_scratch;
  Coverage cov;
  NodeSet sel;
  for (NodeId h : b.clustering.heads) {
    coverage_row(view, h, n, cov_scratch, cov);
    sel.clear();
    select_gateways_local(view, h, cov, sel_scratch, sel);
    b.coverage.assign(h, cov);
    b.selection.assign(h, sel);
    for (NodeId v : sel) gateway_bits.set(v);
  }
  b.gateways = gateway_bits.to_node_set();
  // Heads form an independent set, so no gateway (a neighbor or 2-hop
  // connector of a head) is itself a head; the union is disjoint.
  b.cds = set_union(b.clustering.heads, b.gateways);
  return b;
}

std::string validate_static_backbone(const graph::Graph& g,
                                     const StaticBackbone& backbone) {
  Coverage targets;
  for (NodeId h : backbone.clustering.heads) {
    const auto two = backbone.coverage.two_hop[h];
    const auto three = backbone.coverage.three_hop[h];
    targets.two_hop.assign(two.begin(), two.end());
    targets.three_hop.assign(three.begin(), three.end());
    const auto msg = validate_selection(g, backbone.clustering, h, targets,
                                        backbone.selection[h]);
    if (!msg.empty()) return msg;
  }
  // Theorem 1 per connected component: a disconnected network needs one
  // connected backbone piece in each of its components.
  if (!graph::is_dominating_set(g, backbone.cds) ||
      graph::induced_component_count(g, backbone.cds) !=
          graph::components(g).second)
    return "static backbone is not a CDS";
  return {};
}

}  // namespace manet::core
