// Unit tests for CH_HOP1/CH_HOP2 tables, asserted verbatim against the
// paper's Figure 3 walkthrough.
#include "core/neighbor_tables.hpp"

#include <gtest/gtest.h>

#include "cluster/lowest_id.hpp"
#include "paper_fixtures.hpp"

namespace manet::core {
namespace {

using Entries = std::vector<Hop2Entry>;

class Figure3Tables : public ::testing::Test {
 protected:
  graph::Graph g_ = testing::paper_figure3_network();
  cluster::Clustering c_ = cluster::lowest_id_clustering(g_);
  NeighborTables t25_ =
      build_neighbor_tables(g_, c_, CoverageMode::kTwoPointFiveHop);
  NeighborTables t3_ = build_neighbor_tables(g_, c_, CoverageMode::kThreeHop);
};

TEST_F(Figure3Tables, ChHop1MatchesPaperMessages) {
  // Paper: CH_HOP1(5)={1*}, CH_HOP1(6)={1*,2}, CH_HOP1(7)={1*,3},
  //        CH_HOP1(8)={2*,3}, CH_HOP1(9)={3*,4}, CH_HOP1(10)={3*,4}.
  EXPECT_TRUE(testing::same_row(t25_.ch_hop1[4], NodeSet{0}));
  EXPECT_TRUE(testing::same_row(t25_.ch_hop1[5], NodeSet{0, 1}));
  EXPECT_TRUE(testing::same_row(t25_.ch_hop1[6], NodeSet{0, 2}));
  EXPECT_TRUE(testing::same_row(t25_.ch_hop1[7], NodeSet{1, 2}));
  EXPECT_TRUE(testing::same_row(t25_.ch_hop1[8], NodeSet{2, 3}));
  EXPECT_TRUE(testing::same_row(t25_.ch_hop1[9], NodeSet{2, 3}));
}

TEST_F(Figure3Tables, HeadsSendNoChHop1) {
  for (NodeId h : c_.heads) EXPECT_TRUE(t25_.ch_hop1[h].empty());
}

TEST_F(Figure3Tables, ChHop1IsModeIndependent) {
  for (NodeId v = 0; v < g_.order(); ++v)
    EXPECT_TRUE(testing::same_row(t25_.ch_hop1[v], t3_.ch_hop1[v]))
        << "node " << v;
}

TEST_F(Figure3Tables, ChHop2MatchesPaperMessages) {
  // Paper: CH_HOP2(9) = {1[5]} and CH_HOP2(5) = {3[9]}; all others empty.
  EXPECT_TRUE(testing::same_row(t25_.ch_hop2[8], Entries{{0, 4}}));
  EXPECT_TRUE(testing::same_row(t25_.ch_hop2[4], Entries{{2, 8}}));
  for (NodeId v : {5u, 6u, 7u, 9u}) {
    EXPECT_TRUE(t25_.ch_hop2[v].empty()) << "node " << v;
  }
}

TEST_F(Figure3Tables, TwoPointFiveModeOnlyReportsOwnHead) {
  // Paper's note on node 5: head 4 (ours 3) is NOT added to node 5's
  // (ours 4) 2-hop set even though 9 (ours 8) is adjacent to it — only
  // the clusterhead *of* the reporting neighbor counts.
  for (const auto& e : t25_.ch_hop2[4]) EXPECT_NE(e.head, 3u);
}

TEST_F(Figure3Tables, ThreeHopModeReportsAllHeardHeads) {
  // In 3-hop mode node 4 (paper 5) also records head 3 (paper 4) from
  // CH_HOP1(9)={3,4}.
  EXPECT_TRUE(testing::same_row(t3_.ch_hop2[4], Entries{{2, 8}, {3, 8}}));
}

TEST_F(Figure3Tables, EntriesExcludeOwnNeighbors) {
  // "If the clusterhead of u is a neighbor of v, v ignores the message."
  for (NodeId v = 0; v < g_.order(); ++v)
    for (const auto& e : t3_.ch_hop2[v])
      EXPECT_FALSE(g_.has_edge(v, e.head))
          << "node " << v << " recorded adjacent head " << e.head;
}

TEST_F(Figure3Tables, ViasAreNonHeadNeighbors) {
  for (NodeId v = 0; v < g_.order(); ++v) {
    for (const auto& e : t25_.ch_hop2[v]) {
      EXPECT_TRUE(g_.has_edge(v, e.via));
      EXPECT_FALSE(c_.is_head(e.via));
      EXPECT_TRUE(g_.has_edge(e.via, e.head));
    }
  }
}

TEST_F(Figure3Tables, Hop2HeadsDedupes) {
  EXPECT_EQ(t3_.hop2_heads(4), (NodeSet{2, 3}));
  EXPECT_EQ(t3_.hop2_heads(5), (NodeSet{}));
}

TEST(NeighborTablesTest, ModeToString) {
  EXPECT_STREQ(to_string(CoverageMode::kTwoPointFiveHop), "2.5-hop");
  EXPECT_STREQ(to_string(CoverageMode::kThreeHop), "3-hop");
}

TEST(NeighborTablesTest, MismatchedClusteringRejected) {
  const auto g = graph::make_path(4);
  auto c = cluster::lowest_id_clustering(graph::make_path(3));
  EXPECT_THROW(build_neighbor_tables(g, c, CoverageMode::kThreeHop),
               std::invalid_argument);
}

}  // namespace
}  // namespace manet::core
