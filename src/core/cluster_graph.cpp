#include "core/cluster_graph.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace manet::core {

std::size_t ClusterGraph::index_of(NodeId h) const {
  const auto it = std::lower_bound(heads.begin(), heads.end(), h);
  MANET_REQUIRE(it != heads.end() && *it == h, "not a clusterhead");
  return static_cast<std::size_t>(it - heads.begin());
}

bool ClusterGraph::has_arc_between_heads(NodeId v, NodeId w) const {
  return digraph.has_arc(static_cast<NodeId>(index_of(v)),
                         static_cast<NodeId>(index_of(w)));
}

ClusterGraph build_cluster_graph(const cluster::Clustering& c,
                                 const CoverageTable& coverage) {
  ClusterGraph cg;
  cg.heads = c.heads;
  cg.digraph = graph::Digraph(cg.heads.size());
  for (NodeId h : cg.heads) {
    const auto from = static_cast<NodeId>(cg.index_of(h));
    // C(h) = C²(h) ∪ C³(h); add_arc keeps each out-list sorted.
    for (const auto& row : {coverage.two_hop[h], coverage.three_hop[h]})
      for (NodeId w : row)
        cg.digraph.add_arc(from, static_cast<NodeId>(cg.index_of(w)));
  }
  return cg;
}

}  // namespace manet::core
