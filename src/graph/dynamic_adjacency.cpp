#include "graph/dynamic_adjacency.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace manet::graph {

DynamicAdjacency::DynamicAdjacency(std::size_t order) : adjacency_(order) {}

DynamicAdjacency::DynamicAdjacency(const Graph& g) : adjacency_(g.order()) {
  for (NodeId v = 0; v < g.order(); ++v) {
    const auto nb = g.neighbors(v);
    adjacency_[v].assign(nb.begin(), nb.end());
  }
  edges_ = g.edge_count();
}

std::span<const NodeId> DynamicAdjacency::neighbors(NodeId v) const {
  MANET_REQUIRE(v < adjacency_.size(), "node id out of range");
  return adjacency_[v];
}

bool DynamicAdjacency::has_edge(NodeId u, NodeId v) const {
  MANET_REQUIRE(u < adjacency_.size() && v < adjacency_.size(),
                "node id out of range");
  const auto& nb = adjacency_[u];
  return std::binary_search(nb.begin(), nb.end(), v);
}

bool DynamicAdjacency::add_edge(NodeId u, NodeId v) {
  MANET_REQUIRE(u < adjacency_.size() && v < adjacency_.size(),
                "node id out of range");
  MANET_REQUIRE(u != v, "self-loops are not allowed");
  auto& nu = adjacency_[u];
  const auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it != nu.end() && *it == v) return false;
  nu.insert(it, v);
  auto& nv = adjacency_[v];
  nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
  ++edges_;
  return true;
}

bool DynamicAdjacency::remove_edge(NodeId u, NodeId v) {
  MANET_REQUIRE(u < adjacency_.size() && v < adjacency_.size(),
                "node id out of range");
  auto& nu = adjacency_[u];
  const auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it == nu.end() || *it != v) return false;
  nu.erase(it);
  auto& nv = adjacency_[v];
  nv.erase(std::lower_bound(nv.begin(), nv.end(), u));
  --edges_;
  return true;
}

Graph DynamicAdjacency::freeze() const {
  // Every row is sorted and mirrored by invariant, so the CSR arrays are
  // just the prefix sum of the row lengths and the rows laid end to end.
  std::vector<std::size_t> offsets(order() + 1, 0);
  for (NodeId v = 0; v < adjacency_.size(); ++v)
    offsets[v + 1] = offsets[v] + adjacency_[v].size();
  std::vector<NodeId> adjacency;
  adjacency.reserve(offsets.back());
  for (const auto& row : adjacency_)
    adjacency.insert(adjacency.end(), row.begin(), row.end());
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

}  // namespace manet::graph
