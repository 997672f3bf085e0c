// Graph algorithms used by the clustering and backbone layers:
// breadth-first distances, k-hop neighborhoods, connectivity, and the
// set-theoretic predicates (dominating set, independent set, CDS) that the
// paper's theorems are stated in.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::graph {

/// Distance value for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

/// BFS hop distances from `source` to every vertex.
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// BFS distances from `source`, stopping at `max_hops` (vertices farther
/// away report kUnreachable). O(edges within the ball).
std::vector<std::uint32_t> bfs_distances_bounded(const Graph& g,
                                                 NodeId source,
                                                 std::uint32_t max_hops);

/// The k-hop neighbor set N^k(v) *including v itself* (paper notation).
NodeSet k_hop_neighbors(const Graph& g, NodeId v, std::uint32_t k);

/// True if the graph is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// Connected component label per vertex (labels are 0..count-1) and the
/// number of components.
std::pair<std::vector<std::uint32_t>, std::uint32_t> components(
    const Graph& g);

/// Graph diameter via repeated BFS; kUnreachable if disconnected.
std::uint32_t diameter(const Graph& g);

/// True if `set` (sorted-unique) is a dominating set of g: every vertex is
/// in the set or adjacent to a member.
bool is_dominating_set(const Graph& g, const NodeSet& set);

/// True if `set` (sorted-unique) is pairwise non-adjacent.
bool is_independent_set(const Graph& g, const NodeSet& set);

/// True if no vertex outside `set` could be added while keeping it
/// independent (i.e. `set` is a maximal independent set; requires
/// is_independent_set).
bool is_maximal_independent_set(const Graph& g, const NodeSet& set);

/// True if the subgraph induced by `set` (sorted-unique) is connected.
/// The empty set and singletons count as connected.
bool induces_connected_subgraph(const Graph& g, const NodeSet& set);

/// Number of connected components of the subgraph induced by `set`
/// (sorted-unique); 0 for the empty set.
std::uint32_t induced_component_count(const Graph& g, const NodeSet& set);

/// True if `set` is a connected dominating set of g.
bool is_connected_dominating_set(const Graph& g, const NodeSet& set);

/// One shortest path from `from` to `to` (inclusive); empty if unreachable.
std::vector<NodeId> shortest_path(const Graph& g, NodeId from, NodeId to);

}  // namespace manet::graph
