#include "core/coverage.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "core/table_kernels.hpp"
#include "graph/algorithms.hpp"
#include "graph/bitset.hpp"

namespace manet::core {

Coverage build_coverage(const graph::Graph& g, const cluster::Clustering& c,
                        const NeighborTables& tables, NodeId head) {
  MANET_REQUIRE(head < g.order(), "node id out of range");
  MANET_REQUIRE(c.is_head(head), "coverage is defined for clusterheads");
  // Row kernel shared with the incremental engine (table_kernels.hpp).
  CoverageScratch scratch;
  Coverage cov;
  coverage_row(TablesView<graph::Graph>{g, c, tables}, head, g.order(),
               scratch, cov);
  return cov;
}

CoverageTable build_all_coverage(const graph::Graph& g,
                                 const cluster::Clustering& c,
                                 const NeighborTables& tables) {
  CoverageTable out{RowTable<NodeId>(g.order()), RowTable<NodeId>(g.order())};
  // One scratch and one row buffer across all heads: per-head bitset
  // allocation/zeroing is O(n) each, O(n·heads) over a full build (see
  // CoverageScratch).
  CoverageScratch scratch;
  Coverage cov;
  const TablesView<graph::Graph> view{g, c, tables};
  for (NodeId h : c.heads) {
    coverage_row(view, h, g.order(), scratch, cov);
    out.assign(h, cov);
  }
  return out;
}

std::string validate_coverage(const graph::Graph& g,
                              const cluster::Clustering& c,
                              const NeighborTables& tables, NodeId head,
                              const Coverage& coverage) {
  std::ostringstream err;
  const auto dist = graph::bfs_distances_bounded(g, head, 3);

  // Ground truth C²: heads at distance exactly 2.
  NodeSet true_two;
  for (NodeId w : c.heads)
    if (dist[w] == 2) true_two.push_back(w);
  if (coverage.two_hop != true_two) {
    err << "C2 of head " << head << " mismatches the distance-2 heads";
    return err.str();
  }

  // Ground truth C³ depends on the mode.
  NodeSet true_three;
  for (NodeId w : c.heads) {
    if (w == head || dist[w] != 3) continue;
    if (tables.mode == CoverageMode::kThreeHop) {
      true_three.push_back(w);
      continue;
    }
    // 2.5-hop: w qualifies iff one of its members sits in N²(head).
    for (NodeId m : g.neighbors(w)) {
      if (c.head_of[m] == w && dist[m] != graph::kUnreachable &&
          dist[m] <= 2) {
        true_three.push_back(w);
        break;
      }
    }
  }
  if (coverage.three_hop != true_three) {
    err << "C3 of head " << head << " mismatches the "
        << to_string(tables.mode) << " definition";
    return err.str();
  }
  return {};
}

}  // namespace manet::core
