#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace manet::graph {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.order() << '\n';
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& in) {
  std::size_t order = 0;
  if (!(in >> order))
    throw std::invalid_argument("edge list: missing order header");
  if (order > kMaxEdgeListOrder)
    throw std::invalid_argument("edge list: order " + std::to_string(order) +
                                " exceeds the maximum of " +
                                std::to_string(kMaxEdgeListOrder));
  GraphBuilder builder(order);
  NodeId u, v;
  while (in >> u) {
    // An edge with one endpoint is truncated input, not the end of it.
    if (!(in >> v))
      throw std::invalid_argument(
          "edge list: edge line lacks a second endpoint");
    builder.edge(u, v);  // builder validates endpoints
  }
  if (!in.eof())
    throw std::invalid_argument("edge list: malformed edge line");
  return builder.build();
}

std::string to_dot(const Graph& g, const DotOptions& options) {
  std::ostringstream os;
  os << "graph \"" << options.label << "\" {\n";
  os << "  node [shape=circle];\n";
  for (NodeId v = 0; v < g.order(); ++v) {
    os << "  n" << v;
    if (contains_sorted(options.highlight, v))
      os << " [style=filled, fillcolor=black, fontcolor=white]";
    os << ";\n";
  }
  for (const auto& [u, v] : g.edges())
    os << "  n" << u << " -- n" << v << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace manet::graph
