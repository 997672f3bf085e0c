// Unit + property tests for the static backbone (Theorem 1), the
// cluster graph (Figure 4), and the digest and diff every engine reads
// its backbone through.
#include "core/static_backbone.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "core/cluster_graph.hpp"
#include "core/state_hash.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "paper_fixtures.hpp"

namespace manet::core {
namespace {

class Figure3Backbone : public ::testing::Test {
 protected:
  graph::Graph g_ = testing::paper_figure3_network();
  StaticBackbone b25_ =
      build_static_backbone(g_, CoverageMode::kTwoPointFiveHop);
  StaticBackbone b3_ = build_static_backbone(g_, CoverageMode::kThreeHop);
};

TEST_F(Figure3Backbone, BackboneMatchesPaperFigure3c) {
  // Paper: the SI-CDS backbone is nodes 1..9 (ours 0..8); node 10 (ours
  // 9) stays out.
  EXPECT_EQ(b25_.cds, (NodeSet{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(b25_.in_backbone(0));
  EXPECT_FALSE(b25_.in_backbone(9));
  EXPECT_EQ(b25_.gateways, (NodeSet{4, 5, 6, 7, 8}));
}

TEST_F(Figure3Backbone, BackboneIsACds) {
  EXPECT_EQ(validate_static_backbone(g_, b25_), "");
  EXPECT_EQ(validate_static_backbone(g_, b3_), "");
  EXPECT_TRUE(graph::is_connected_dominating_set(g_, b25_.cds));
  EXPECT_TRUE(graph::is_connected_dominating_set(g_, b3_.cds));
}

TEST_F(Figure3Backbone, ClusterGraphMatchesFigure4a) {
  // 2.5-hop cluster graph (paper ids in comments): arcs 1<->2, 1<->3,
  // 2<->3, 3<->4 and the one-way 4->1.
  const auto cg = build_cluster_graph(b25_.clustering, b25_.coverage);
  ASSERT_EQ(cg.heads, (NodeSet{0, 1, 2, 3}));
  EXPECT_TRUE(cg.has_arc_between_heads(0, 1));
  EXPECT_TRUE(cg.has_arc_between_heads(1, 0));
  EXPECT_TRUE(cg.has_arc_between_heads(0, 2));
  EXPECT_TRUE(cg.has_arc_between_heads(2, 0));
  EXPECT_TRUE(cg.has_arc_between_heads(1, 2));
  EXPECT_TRUE(cg.has_arc_between_heads(2, 1));
  EXPECT_TRUE(cg.has_arc_between_heads(2, 3));
  EXPECT_TRUE(cg.has_arc_between_heads(3, 2));
  // The asymmetric pair of Figure 4 (a): 4 -> 1 but not 1 -> 4.
  EXPECT_TRUE(cg.has_arc_between_heads(3, 0));
  EXPECT_FALSE(cg.has_arc_between_heads(0, 3));
  EXPECT_TRUE(graph::is_strongly_connected(cg.digraph));
}

TEST_F(Figure3Backbone, ClusterGraphMatchesFigure4b) {
  // 3-hop coverage makes the cluster graph symmetric: 1 -> 4 appears.
  const auto cg = build_cluster_graph(b3_.clustering, b3_.coverage);
  EXPECT_TRUE(cg.has_arc_between_heads(0, 3));
  EXPECT_TRUE(cg.has_arc_between_heads(3, 0));
  for (const auto& [u, v] : cg.digraph.arcs())
    EXPECT_TRUE(cg.digraph.has_arc(v, u)) << "asymmetric arc in 3-hop G'";
}

TEST_F(Figure3Backbone, IndexOfRejectsNonHead) {
  const auto cg = build_cluster_graph(b25_.clustering, b25_.coverage);
  EXPECT_EQ(cg.index_of(2), 2u);
  EXPECT_THROW(cg.index_of(7), std::invalid_argument);
}

TEST_F(Figure3Backbone, DiffNamesTheFirstDifferingFieldAndNode) {
  NodeId witness = 0;
  const auto diff = [&](const StaticBackbone& got) {
    return diff_backbones(BackboneRef(got), BackboneRef(b25_), &witness);
  };
  EXPECT_EQ(diff(b25_), "");
  EXPECT_EQ(witness, kInvalidNode);

  // One field of a copy at a time; the witness is the perturbed node.
  StaticBackbone b = b25_;
  b.clustering.head_of[9] = 3;
  EXPECT_EQ(diff(b), "head_of[9]: 3 vs 2");
  EXPECT_EQ(witness, 9u);
  b = b25_;
  b.clustering.roles[9] = cluster::Role::kClusterhead;
  EXPECT_EQ(diff(b), "role[9] differs");
  EXPECT_EQ(witness, 9u);
  b = b25_;
  const NodeSet one_head{0};
  b.tables.ch_hop1.assign(5, one_head);
  EXPECT_EQ(diff(b), "ch_hop1[5] differs");
  EXPECT_EQ(witness, 5u);
  b = b25_;
  ASSERT_FALSE(b.coverage.three_hop[3].empty());
  b.coverage.three_hop.assign(3, {});
  EXPECT_EQ(diff(b), "coverage[3] differs");
  EXPECT_EQ(witness, 3u);
  b = b25_;
  const auto selection = b.selection[0];
  ASSERT_FALSE(selection.empty());
  b.selection.assign(0, selection.first(selection.size() - 1));
  EXPECT_EQ(diff(b), "selection[0] differs");
  EXPECT_EQ(witness, 0u);

  // Differing head sets name the first head only `got` has, else the
  // first only `want` has.
  b = b25_;
  b.clustering.heads = {0, 1, 2, 3, 9};
  EXPECT_EQ(diff(b), "clusterhead sets differ (5 vs 4)");
  EXPECT_EQ(witness, 9u);
  b.clustering.heads = {0, 1, 3};
  EXPECT_EQ(diff(b), "clusterhead sets differ (3 vs 4)");
  EXPECT_EQ(witness, 2u);

  // Whole-structure differences have no single witness.
  b = b25_;
  b.gateways.pop_back();
  EXPECT_EQ(diff(b), "gateway unions differ");
  EXPECT_EQ(witness, kInvalidNode);
  b = b25_;
  b.cds.pop_back();
  EXPECT_EQ(diff(b), "CDS differs");
  EXPECT_EQ(witness, kInvalidNode);
  EXPECT_EQ(diff(b3_), "coverage modes differ");
  EXPECT_EQ(witness, kInvalidNode);

  // The node count is compared before any per-node field is read.
  const StaticBackbone triangle = build_static_backbone(
      testing::paper_figure5_triangle(), CoverageMode::kTwoPointFiveHop);
  EXPECT_EQ(diff(triangle), "orders differ (3 vs 10 nodes)");
  EXPECT_EQ(witness, kInvalidNode);
  EXPECT_EQ(diff_backbones(BackboneRef(b25_), BackboneRef(triangle)),
            "orders differ (10 vs 3 nodes)");
}

TEST(StateHashTest, DigestIsPinnedOnAFixedLayout) {
  // Every engine hashes through one fold, so a change to its field order
  // would move every digest together and no equivalence test would see
  // it. These values pin the fold itself.
  Rng rng(2003);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 200;
  cfg.range =
      geom::range_for_average_degree(8.0, cfg.nodes, cfg.width, cfg.height);
  const graph::Graph g = geom::generate_unit_disk(cfg, rng).graph;
  for (const auto& [mode, digest] :
       {std::pair{CoverageMode::kTwoPointFiveHop,
                  std::uint64_t{0xa2fb32946f52ed0d}},
        std::pair{CoverageMode::kThreeHop,
                  std::uint64_t{0x625420397a749827}}}) {
    const StaticBackbone b = build_static_backbone(g, mode);
    EXPECT_EQ(backbone_state_hash(BackboneRef(b)), digest);
    EXPECT_EQ(backbone_state_hash(b.clustering, b.tables, b.coverage,
                                  b.selection, b.gateways, b.cds),
              digest);
  }
}

TEST(StaticBackboneEdgeCases, SingletonNetwork) {
  const auto g = graph::GraphBuilder(1).build();
  const auto b = build_static_backbone(g, CoverageMode::kThreeHop);
  EXPECT_EQ(b.cds, (NodeSet{0}));
  EXPECT_EQ(validate_static_backbone(g, b), "");
}

TEST(StaticBackboneEdgeCases, SingleClusterHasNoGateways) {
  const auto g = graph::make_star(8);
  const auto b = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  EXPECT_TRUE(b.gateways.empty());
  EXPECT_EQ(b.cds, (NodeSet{0}));
}

TEST(StaticBackboneEdgeCases, PathBackboneIsWholeInterior) {
  const auto g = graph::make_path(7);
  const auto b = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  // Heads 0,2,4,6; connectors 1,3,5 -> the CDS is the whole path.
  EXPECT_EQ(b.cds, (NodeSet{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(validate_static_backbone(g, b), "");
}

TEST(StaticBackboneEdgeCases, DisconnectedGraphNeedsOneCdsPiecePerComponent) {
  // Two paths, 0..4 and 5..9. Each component needs its own connected
  // backbone piece; a CDS split inside one component fails Theorem 1
  // although it still dominates and every selection still validates.
  const auto g = graph::make_graph(10, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                        {5, 6}, {6, 7}, {7, 8}, {8, 9}});
  auto b = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  ASSERT_EQ(b.cds, (NodeSet{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(validate_static_backbone(g, b), "");
  erase_sorted(b.cds, 6);  // {5} and {7, 8, 9}: two pieces in one component
  ASSERT_TRUE(graph::is_dominating_set(g, b.cds));
  EXPECT_EQ(validate_static_backbone(g, b), "static backbone is not a CDS");
}

// ---- Property sweep: Theorem 1 on random unit-disk graphs --------------

struct BbParam {
  std::size_t nodes;
  double degree;
  std::uint64_t seed;
  CoverageMode mode;

  friend std::ostream& operator<<(std::ostream& os, const BbParam& p) {
    return os << testing::param_tag(p.nodes, p.degree, p.seed,
                                    core::to_string(p.mode));
  }
};

class BackboneSweep : public ::testing::TestWithParam<BbParam> {};

TEST_P(BackboneSweep, Theorem1HoldsOnRandomGraphs) {
  const auto [n, d, seed, mode] = GetParam();
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());

  const auto b = build_static_backbone(net->graph, mode);
  EXPECT_EQ(validate_static_backbone(net->graph, b), "");
  EXPECT_TRUE(graph::is_connected_dominating_set(net->graph, b.cds));

  // The Wu–Lou strong-connectivity result behind Theorem 1.
  const auto cg = build_cluster_graph(b.clustering, b.coverage);
  EXPECT_TRUE(graph::is_strongly_connected(cg.digraph));

  // Static backbone never out-sizes MO_CDS-style per-target selection by
  // construction sanity: CDS contains all heads.
  EXPECT_TRUE(is_subset(b.clustering.heads, b.cds));
}

INSTANTIATE_TEST_SUITE_P(
    RandomUnitDisk, BackboneSweep,
    ::testing::Values(
        BbParam{20, 6, 31, CoverageMode::kTwoPointFiveHop},
        BbParam{20, 6, 31, CoverageMode::kThreeHop},
        BbParam{40, 6, 32, CoverageMode::kTwoPointFiveHop},
        BbParam{40, 6, 32, CoverageMode::kThreeHop},
        BbParam{60, 18, 33, CoverageMode::kTwoPointFiveHop},
        BbParam{60, 18, 33, CoverageMode::kThreeHop},
        BbParam{80, 6, 34, CoverageMode::kTwoPointFiveHop},
        BbParam{80, 6, 34, CoverageMode::kThreeHop},
        BbParam{100, 18, 35, CoverageMode::kTwoPointFiveHop},
        BbParam{100, 18, 35, CoverageMode::kThreeHop},
        BbParam{100, 6, 36, CoverageMode::kTwoPointFiveHop},
        BbParam{100, 6, 36, CoverageMode::kThreeHop},
        BbParam{70, 12, 37, CoverageMode::kTwoPointFiveHop},
        BbParam{70, 12, 37, CoverageMode::kThreeHop}));

}  // namespace
}  // namespace manet::core
