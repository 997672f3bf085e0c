// Unit tests for BFS, connectivity and the CDS/IS predicates.
#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include "graph/graph.hpp"

namespace manet::graph {
namespace {

TEST(BfsTest, DistancesOnPath) {
  const Graph g = make_path(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(BfsTest, UnreachableVertices) {
  const Graph g = make_graph(4, {{0, 1}, {2, 3}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(BfsTest, BoundedStopsAtMaxHops) {
  const Graph g = make_path(6);
  const auto d = bfs_distances_bounded(g, 0, 2);
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(KHopTest, IncludesSelf) {
  const Graph g = make_path(5);
  EXPECT_EQ(k_hop_neighbors(g, 2, 0), (NodeSet{2}));
}

TEST(KHopTest, MatchesPaperNotationOnPath) {
  const Graph g = make_path(7);
  EXPECT_EQ(k_hop_neighbors(g, 3, 1), (NodeSet{2, 3, 4}));
  EXPECT_EQ(k_hop_neighbors(g, 3, 2), (NodeSet{1, 2, 3, 4, 5}));
  EXPECT_EQ(k_hop_neighbors(g, 3, 3), (NodeSet{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ConnectivityTest, EmptyAndSingleton) {
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_TRUE(is_connected(GraphBuilder(1).build()));
}

TEST(ConnectivityTest, ConnectedAndDisconnected) {
  EXPECT_TRUE(is_connected(make_cycle(6)));
  EXPECT_FALSE(is_connected(make_graph(3, {{0, 1}})));
}

TEST(ComponentsTest, CountsAndLabels) {
  const Graph g = make_graph(5, {{0, 1}, {2, 3}});
  const auto [label, count] = components(g);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[2], label[3]);
  EXPECT_NE(label[0], label[2]);
  EXPECT_NE(label[4], label[0]);
}

TEST(DiameterTest, PathAndCycle) {
  EXPECT_EQ(diameter(make_path(5)), 4u);
  EXPECT_EQ(diameter(make_cycle(6)), 3u);
  EXPECT_EQ(diameter(make_complete(4)), 1u);
}

TEST(DiameterTest, DisconnectedIsUnreachable) {
  EXPECT_EQ(diameter(make_graph(3, {{0, 1}})), kUnreachable);
}

TEST(DominatingSetTest, StarCenterDominates) {
  const Graph g = make_star(6);
  EXPECT_TRUE(is_dominating_set(g, {0}));
  EXPECT_FALSE(is_dominating_set(g, {1}));
  EXPECT_TRUE(is_dominating_set(g, {1, 2, 3, 4, 5, 0}));
}

TEST(DominatingSetTest, EmptySetDominatesNothing) {
  EXPECT_FALSE(is_dominating_set(make_path(2), {}));
}

TEST(IndependentSetTest, Basics) {
  const Graph g = make_path(5);
  EXPECT_TRUE(is_independent_set(g, {0, 2, 4}));
  EXPECT_FALSE(is_independent_set(g, {0, 1}));
  EXPECT_TRUE(is_independent_set(g, {}));
}

TEST(IndependentSetTest, MaximalityEqualsDominating) {
  const Graph g = make_path(5);
  EXPECT_TRUE(is_maximal_independent_set(g, {0, 2, 4}));
  EXPECT_FALSE(is_maximal_independent_set(g, {0, 4}));   // 2 could join
  EXPECT_FALSE(is_maximal_independent_set(g, {0, 1}));   // not independent
}

TEST(InducedConnectedTest, Basics) {
  const Graph g = make_path(5);
  EXPECT_TRUE(induces_connected_subgraph(g, {1, 2, 3}));
  EXPECT_FALSE(induces_connected_subgraph(g, {0, 2}));
  EXPECT_TRUE(induces_connected_subgraph(g, {}));
  EXPECT_TRUE(induces_connected_subgraph(g, {3}));
  EXPECT_EQ(induced_component_count(g, {}), 0u);
  EXPECT_EQ(induced_component_count(g, {1, 2, 3}), 1u);
  EXPECT_EQ(induced_component_count(g, {0, 2, 4}), 3u);
}

TEST(CdsTest, PathInteriorIsCds) {
  const Graph g = make_path(5);
  EXPECT_TRUE(is_connected_dominating_set(g, {1, 2, 3}));
  EXPECT_FALSE(is_connected_dominating_set(g, {1, 3}));   // not connected
  EXPECT_FALSE(is_connected_dominating_set(g, {1, 2}));   // not dominating
}

TEST(CdsTest, EmptySetOnNonemptyGraph) {
  EXPECT_FALSE(is_connected_dominating_set(make_path(3), {}));
  EXPECT_TRUE(is_connected_dominating_set(Graph{}, {}));
}

TEST(ShortestPathTest, FindsAPath) {
  const Graph g = make_cycle(6);
  const auto p = shortest_path(g, 0, 3);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 3u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
}

TEST(ShortestPathTest, TrivialAndUnreachable) {
  const Graph g = make_graph(3, {{0, 1}});
  EXPECT_EQ(shortest_path(g, 0, 0), (std::vector<NodeId>{0}));
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

}  // namespace
}  // namespace manet::graph
