#include "core/neighbor_tables.hpp"

#include "common/assert.hpp"
#include "core/table_kernels.hpp"

namespace manet::core {

const char* to_string(CoverageMode mode) {
  switch (mode) {
    case CoverageMode::kTwoPointFiveHop:
      return "2.5-hop";
    case CoverageMode::kThreeHop:
      return "3-hop";
  }
  return "?";
}

NodeSet NeighborTables::hop2_heads(NodeId v) const {
  MANET_REQUIRE(v < ch_hop2.size(), "node id out of range");
  NodeSet out;
  for (const auto& e : ch_hop2[v]) out.push_back(e.head);
  normalize(out);
  return out;
}

NeighborTables build_neighbor_tables(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     CoverageMode mode) {
  const std::size_t n = g.order();
  MANET_REQUIRE(c.head_of.size() == n, "clustering does not match graph");

  NeighborTables t{mode, RowTable<NodeId>(n), RowTable<Hop2Entry>(n)};
  const TablesView<graph::Graph> view{g, c, t};
  // Row kernels shared with the incremental engine (table_kernels.hpp):
  // CH_HOP1 first (CH_HOP2 rows read the neighbors' CH_HOP1 rows). One
  // buffer per table carries every row, so the build allocates nothing
  // per row.
  NodeSet hop1;
  for (NodeId v = 0; v < n; ++v) {
    hop1_row(view, v, hop1);
    t.ch_hop1.assign(v, hop1);
  }
  std::vector<Hop2Entry> hop2;
  for (NodeId v = 0; v < n; ++v) {
    hop2_row(view, mode, v, hop2);
    t.ch_hop2.assign(v, hop2);
  }
  return t;
}

}  // namespace manet::core
