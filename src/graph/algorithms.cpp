#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

#include "common/assert.hpp"

namespace manet::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  return bfs_distances_bounded(g, source, kUnreachable);
}

std::vector<std::uint32_t> bfs_distances_bounded(const Graph& g,
                                                 NodeId source,
                                                 std::uint32_t max_hops) {
  MANET_REQUIRE(source < g.order(), "BFS source out of range");
  std::vector<std::uint32_t> dist(g.order(), kUnreachable);
  std::deque<NodeId> frontier{source};
  dist[source] = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    if (dist[u] >= max_hops) continue;
    for (NodeId w : g.neighbors(u)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

NodeSet k_hop_neighbors(const Graph& g, NodeId v, std::uint32_t k) {
  const auto dist = bfs_distances_bounded(g, v, k);
  NodeSet out;
  for (NodeId u = 0; u < g.order(); ++u)
    if (dist[u] != kUnreachable) out.push_back(u);
  return out;  // ids ascend, so already sorted-unique
}

bool is_connected(const Graph& g) {
  if (g.order() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::pair<std::vector<std::uint32_t>, std::uint32_t> components(
    const Graph& g) {
  std::vector<std::uint32_t> label(g.order(), kUnreachable);
  std::uint32_t count = 0;
  std::deque<NodeId> frontier;
  for (NodeId s = 0; s < g.order(); ++s) {
    if (label[s] != kUnreachable) continue;
    label[s] = count;
    frontier.push_back(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (NodeId w : g.neighbors(u)) {
        if (label[w] == kUnreachable) {
          label[w] = count;
          frontier.push_back(w);
        }
      }
    }
    ++count;
  }
  return {std::move(label), count};
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < g.order(); ++v) {
    const auto dist = bfs_distances(g, v);
    for (std::uint32_t d : dist) {
      if (d == kUnreachable) return kUnreachable;
      best = std::max(best, d);
    }
  }
  return best;
}

bool is_dominating_set(const Graph& g, const NodeSet& set) {
  std::vector<char> dominated(g.order(), 0);
  for (NodeId v : set) {
    MANET_REQUIRE(v < g.order(), "set member out of range");
    dominated[v] = 1;
    for (NodeId w : g.neighbors(v)) dominated[w] = 1;
  }
  return std::all_of(dominated.begin(), dominated.end(),
                     [](char c) { return c != 0; });
}

bool is_independent_set(const Graph& g, const NodeSet& set) {
  for (NodeId v : set)
    for (NodeId w : g.neighbors(v))
      if (contains_sorted(set, w)) return false;
  return true;
}

bool is_maximal_independent_set(const Graph& g, const NodeSet& set) {
  if (!is_independent_set(g, set)) return false;
  // Maximal independent <=> independent and dominating.
  return is_dominating_set(g, set);
}

bool induces_connected_subgraph(const Graph& g, const NodeSet& set) {
  return induced_component_count(g, set) <= 1;
}

std::uint32_t induced_component_count(const Graph& g, const NodeSet& set) {
  // 0 = outside the set, 1 = in the set and not yet reached, 2 = reached.
  std::vector<char> state(g.order(), 0);
  for (NodeId v : set) {
    MANET_REQUIRE(v < g.order(), "set member out of range");
    state[v] = 1;
  }
  std::uint32_t count = 0;
  std::deque<NodeId> frontier;
  for (NodeId root : set) {
    if (state[root] != 1) continue;
    ++count;
    state[root] = 2;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (NodeId w : g.neighbors(u)) {
        if (state[w] == 1) {
          state[w] = 2;
          frontier.push_back(w);
        }
      }
    }
  }
  return count;
}

bool is_connected_dominating_set(const Graph& g, const NodeSet& set) {
  if (g.order() == 0) return true;
  if (set.empty()) return false;
  return is_dominating_set(g, set) && induces_connected_subgraph(g, set);
}

std::vector<NodeId> shortest_path(const Graph& g, NodeId from, NodeId to) {
  MANET_REQUIRE(from < g.order() && to < g.order(),
                "path endpoint out of range");
  std::vector<NodeId> parent(g.order(), kInvalidNode);
  std::vector<char> seen(g.order(), 0);
  std::deque<NodeId> frontier{from};
  seen[from] = 1;
  while (!frontier.empty() && !seen[to]) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId w : g.neighbors(u)) {
      if (!seen[w]) {
        seen[w] = 1;
        parent[w] = u;
        frontier.push_back(w);
      }
    }
  }
  if (!seen[to]) return {};
  std::vector<NodeId> path;
  for (NodeId v = to; v != kInvalidNode; v = parent[v]) path.push_back(v);
  if (path.back() != from) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace manet::graph
