// Unit + property tests for the MO_CDS baseline (Alzoubi et al.), and the
// size relation to the static backbone reported in the paper's Figure 6.
#include "core/mo_cds.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "paper_fixtures.hpp"
#include "stats/running.hpp"

namespace manet::core {
namespace {

TEST(MoCdsTest, Figure3NetworkProducesACds) {
  const auto g = testing::paper_figure3_network();
  const auto mo = build_mo_cds(g);
  EXPECT_EQ(validate_mo_cds(g, mo), "");
  EXPECT_TRUE(graph::is_connected_dominating_set(g, mo.cds));
  EXPECT_EQ(mo.clustering.heads, (NodeSet{0, 1, 2, 3}));
  EXPECT_TRUE(is_subset(mo.clustering.heads, mo.cds));
}

TEST(MoCdsTest, UsesThreeHopCoverage) {
  // Head 0's coverage in MO_CDS includes the 3-hop head 3, so a pair of
  // connectors toward it must be selected (4 and 8).
  const auto g = testing::paper_figure3_network();
  const auto mo = build_mo_cds(g);
  EXPECT_TRUE(testing::same_row(mo.coverage.three_hop[0], NodeSet{3}));
  EXPECT_TRUE(contains_sorted(mo.connectors, 4));
  EXPECT_TRUE(contains_sorted(mo.connectors, 8));
}

TEST(MoCdsTest, SingleClusterNoConnectors) {
  const auto g = graph::make_star(6);
  const auto mo = build_mo_cds(g);
  EXPECT_TRUE(mo.connectors.empty());
  EXPECT_EQ(mo.cds, (NodeSet{0}));
}

TEST(MoCdsTest, PathSelectsEveryInterior) {
  const auto g = graph::make_path(7);
  const auto mo = build_mo_cds(g);
  EXPECT_EQ(mo.cds, (NodeSet{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(validate_mo_cds(g, mo), "");
}

TEST(MoCdsTest, PerTargetSelectionNeverBeatsGreedy) {
  // Construct a topology where one gateway reaches two heads: the greedy
  // static backbone shares it, MO_CDS picks per-target but the smallest-id
  // neighbor rule happens to also share. Then verify |static| <= |MO| on
  // the instance where sharing matters (node 1 reaches heads 5 and 6;
  // node 2 reaches 6 and 7).
  const auto g = graph::make_graph(
      8, {{0, 1}, {0, 2}, {1, 5}, {1, 6}, {2, 6}, {2, 7}});
  const auto st = build_static_backbone(g, CoverageMode::kThreeHop);
  const auto mo = build_mo_cds(g);
  EXPECT_LE(st.cds.size(), mo.cds.size());
}

// ---- Property sweep: MO_CDS validity + Figure 6 size relation ----------

struct MoParam {
  std::size_t nodes;
  double degree;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const MoParam& p) {
    return os << testing::param_tag(p.nodes, p.degree, p.seed);
  }
};

class MoCdsSweep : public ::testing::TestWithParam<MoParam> {};

TEST_P(MoCdsSweep, ValidCdsOnRandomGraphs) {
  const auto [n, d, seed] = GetParam();
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto mo = build_mo_cds(net->graph);
  EXPECT_EQ(validate_mo_cds(net->graph, mo), "");
}

INSTANTIATE_TEST_SUITE_P(
    RandomUnitDisk, MoCdsSweep,
    ::testing::Values(MoParam{20, 6, 41}, MoParam{40, 6, 42},
                      MoParam{60, 6, 43}, MoParam{80, 18, 44},
                      MoParam{100, 18, 45}, MoParam{100, 6, 46},
                      MoParam{50, 12, 47}, MoParam{30, 18, 48}));

TEST(MoCdsFigure6Shape, StaticBackboneIsNoWorseOnAverage) {
  // Figure 6's qualitative claim: static backbone and MO_CDS have similar
  // CDS sizes, with the static backbone slightly smaller. Check the
  // averaged relation over a few dozen random networks.
  Rng rng(2003);
  stats::RunningStats static_size, mo_size;
  for (int i = 0; i < 40; ++i) {
    geom::UnitDiskConfig cfg;
    cfg.nodes = 60;
    cfg.range = geom::range_for_average_degree(6.0, cfg.nodes, cfg.width,
                                               cfg.height);
    const auto net = geom::generate_connected_unit_disk(cfg, rng);
    ASSERT_TRUE(net.has_value());
    const auto c = cluster::lowest_id_clustering(net->graph);
    static_size.add(static_cast<double>(
        build_static_backbone(net->graph, c, CoverageMode::kThreeHop)
            .cds.size()));
    mo_size.add(static_cast<double>(build_mo_cds(net->graph, c).cds.size()));
  }
  EXPECT_LE(static_size.mean(), mo_size.mean() * 1.02);
}

}  // namespace
}  // namespace manet::core
