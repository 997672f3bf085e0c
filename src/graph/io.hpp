// Topology serialization: a line-oriented edge-list format for round
// trips, and Graphviz DOT export (with optional role coloring) for
// inspection. Positions use a parallel "x y" format so generated
// unit-disk layouts survive alongside their graphs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::graph {

/// Writes "order\n" followed by one "u v" line per edge.
void write_edge_list(std::ostream& out, const Graph& g);

/// Largest order header read_edge_list accepts: 2^27 nodes, whose CSR
/// offsets array alone takes 1 GiB. The largest network the repository
/// builds has 10M nodes. A header is read before any edge, so a larger
/// one is refused before anything is sized by it.
inline constexpr std::size_t kMaxEdgeListOrder = std::size_t{1} << 27;

/// Parses the write_edge_list format. Throws std::invalid_argument on
/// malformed input (bad counts, an order above kMaxEdgeListOrder,
/// out-of-range endpoints, self-loops).
Graph read_edge_list(std::istream& in);

/// DOT-export styling: nodes listed in `highlight` render filled (used
/// for backbones/CDSs); `label` names the graph.
struct DotOptions {
  std::string label = "manet";
  NodeSet highlight;  ///< sorted-unique; e.g. a CDS
};

/// Graphviz DOT text for the topology.
std::string to_dot(const Graph& g, const DotOptions& options = {});

}  // namespace manet::graph
