#include "core/gateway_selection.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "core/table_kernels.hpp"

namespace manet::core {
namespace {

void require_head(const graph::Graph& g, const cluster::Clustering& c,
                  NodeId head) {
  MANET_REQUIRE(head < g.order(), "node id out of range");
  MANET_REQUIRE(c.is_head(head), "selection runs on clusterheads");
}

}  // namespace

NodeSet select_gateways(const graph::Graph& g, const cluster::Clustering& c,
                        const NeighborTables& tables, NodeId head,
                        const Coverage& targets) {
  SelectionScratch scratch;
  return select_gateways(g, c, tables, head, targets, scratch);
}

NodeSet select_gateways(const graph::Graph& g, const cluster::Clustering& c,
                        const NeighborTables& tables, NodeId head,
                        const Coverage& targets, SelectionScratch& scratch) {
  require_head(g, c, head);
  NodeSet gateways;
  select_gateways_local(TablesView<graph::Graph>{g, c, tables}, head, targets,
                        scratch, gateways);
  return gateways;
}

SelectionExplanation explain_gateways(const graph::Graph& g,
                                      const cluster::Clustering& c,
                                      const NeighborTables& tables,
                                      NodeId head, const Coverage& targets) {
  require_head(g, c, head);
  SelectionScratch scratch;
  SelectionExplanation out;
  select_gateways_local(TablesView<graph::Graph>{g, c, tables}, head, targets,
                        scratch, out.gateways, &out);
  return out;
}

std::string validate_selection(const graph::Graph& g,
                               const cluster::Clustering& c, NodeId head,
                               const Coverage& targets,
                               std::span<const NodeId> selection) {
  std::ostringstream err;
  // No clusterheads among gateways, and all gateways within 2 hops.
  for (NodeId v : selection) {
    if (c.is_head(v)) {
      err << "selected gateway " << v << " is a clusterhead";
      return err.str();
    }
  }
  // Every 2-hop target must be adjacent to a selected neighbor of head.
  for (NodeId w : targets.two_hop) {
    bool covered = false;
    for (NodeId v : selection)
      if (g.has_edge(head, v) && g.has_edge(v, w)) covered = true;
    if (!covered) {
      err << "2-hop target " << w << " of head " << head << " uncovered";
      return err.str();
    }
  }
  // Every 3-hop target must be reached by a selected (v, x) chain.
  for (NodeId w : targets.three_hop) {
    bool covered = false;
    for (NodeId v : selection) {
      if (!g.has_edge(head, v)) continue;
      for (NodeId x : selection)
        if (g.has_edge(v, x) && g.has_edge(x, w)) covered = true;
    }
    if (!covered) {
      err << "3-hop target " << w << " of head " << head << " uncovered";
      return err.str();
    }
  }
  return {};
}

}  // namespace manet::core
