#include "graph/graph.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace manet::graph {

Graph Graph::from_csr(std::vector<std::size_t> offsets,
                      std::vector<NodeId> adjacency) {
  MANET_REQUIRE(!offsets.empty() && offsets.front() == 0 &&
                    offsets.back() == adjacency.size(),
                "malformed CSR offsets");
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  return g;
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  MANET_REQUIRE(v < order(), "vertex id out of range");
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

double Graph::average_degree() const {
  if (order() == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) /
         static_cast<double>(order());
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (NodeId v = 0; v < order(); ++v) best = std::max(best, degree(v));
  return best;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < order(); ++u)
    for (NodeId v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

GraphBuilder::GraphBuilder(std::size_t order) : order_(order) {
  // Ids are NodeId and kInvalidNode is reserved, so no larger order can
  // be addressed (and order + 1 offsets must not wrap).
  MANET_REQUIRE(order <= kInvalidNode, "graph order exceeds the NodeId range");
}

GraphBuilder& GraphBuilder::edge(NodeId u, NodeId v) {
  MANET_REQUIRE(u < order_ && v < order_, "edge endpoint out of range");
  MANET_REQUIRE(u != v, "self-loops are not allowed");
  edges_.emplace_back(u, v);
  return *this;
}

GraphBuilder& GraphBuilder::edges(
    std::span<const std::pair<NodeId, NodeId>> list) {
  for (const auto& [u, v] : list) edge(u, v);
  return *this;
}

GraphBuilder& GraphBuilder::reserve(std::size_t count) {
  edges_.reserve(count);
  return *this;
}

Graph GraphBuilder::freeze(std::size_t order,
                           std::vector<std::pair<NodeId, NodeId>>& norm) {
  // Two-pass radix scatter instead of a global edge sort. Pass 1 groups
  // directed edges by destination; pass 2 walks destinations in
  // ascending order and stable-scatters each source's row, so every row
  // comes out sorted without a single comparison sort. O(n + m) total vs
  // O(m log m) for the global sort — the dominant cost of topology
  // construction once the pair scan is grid-accelerated.
  Graph g;
  g.offsets_.assign(order + 1, 0);
  for (auto [u, v] : norm) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= order; ++i) g.offsets_[i] += g.offsets_[i - 1];
  // The graph is symmetric, so per-destination counts equal per-source
  // counts and both passes share offsets_.
  g.adjacency_.resize(norm.size() * 2);
  std::vector<NodeId> by_dest(norm.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (auto [u, v] : norm) {
    by_dest[cursor[v]++] = u;
    by_dest[cursor[u]++] = v;
  }
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  for (NodeId w = 0; w < order; ++w)
    for (std::size_t k = g.offsets_[w]; k < g.offsets_[w + 1]; ++k)
      g.adjacency_[cursor[by_dest[k]]++] = w;

  // Deduplicate in place: a duplicate input edge occurs in both endpoint
  // rows, so compacting sorted rows removes it symmetrically and keeps
  // adjacency_.size() == 2 * edge_count().
  std::size_t write = 0;
  std::size_t row_start = 0;
  for (NodeId v = 0; v < order; ++v) {
    const std::size_t begin = g.offsets_[v];
    const std::size_t end = g.offsets_[v + 1];
    g.offsets_[v] = row_start;
    NodeId last = kInvalidNode;
    for (std::size_t k = begin; k < end; ++k) {
      if (g.adjacency_[k] == last) continue;
      last = g.adjacency_[k];
      g.adjacency_[write++] = last;
    }
    row_start = write;
  }
  g.offsets_[order] = write;
  g.adjacency_.resize(write);
  return g;
}

Graph GraphBuilder::build() const {
  // Normalize to (min, max) in a copy; the builder stays reusable.
  std::vector<std::pair<NodeId, NodeId>> norm;
  norm.reserve(edges_.size());
  for (auto [u, v] : edges_)
    norm.emplace_back(std::min(u, v), std::max(u, v));
  return freeze(order_, norm);
}

Graph GraphBuilder::build_and_clear() {
  // Normalize in place and consume the retained list — no copy.
  for (auto& [u, v] : edges_)
    if (u > v) std::swap(u, v);
  std::vector<std::pair<NodeId, NodeId>> norm = std::move(edges_);
  edges_.clear();
  return freeze(order_, norm);
}

Graph make_graph(std::size_t order,
                 std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  GraphBuilder b(order);
  for (auto [u, v] : edges) b.edge(u, v);
  return b.build();
}

Graph make_path(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.edge(i, i + 1);
  return b.build();
}

Graph make_cycle(std::size_t n) {
  MANET_REQUIRE(n >= 3, "a cycle needs at least 3 vertices");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.edge(i, i + 1);
  b.edge(static_cast<NodeId>(n - 1), 0);
  return b.build();
}

Graph make_complete(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) b.edge(i, j);
  return b.build();
}

Graph make_star(std::size_t n) {
  MANET_REQUIRE(n >= 1, "a star needs at least 1 vertex");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.edge(0, i);
  return b.build();
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  GraphBuilder b(rows * cols);
  auto id = [cols](std::size_t i, std::size_t j) {
    return static_cast<NodeId>(i * cols + j);
  };
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      if (i + 1 < rows) b.edge(id(i, j), id(i + 1, j));
      if (j + 1 < cols) b.edge(id(i, j), id(i, j + 1));
    }
  return b.build();
}

}  // namespace manet::graph
