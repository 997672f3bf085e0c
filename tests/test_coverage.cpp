// Unit + property tests for coverage sets (paper §1/§3, Figure 1).
#include "core/coverage.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/table_kernels.hpp"

#include "common/rng.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "paper_fixtures.hpp"

namespace manet::core {
namespace {

class Figure3Coverage : public ::testing::Test {
 protected:
  graph::Graph g_ = testing::paper_figure3_network();
  cluster::Clustering c_ = cluster::lowest_id_clustering(g_);
  NeighborTables t25_ =
      build_neighbor_tables(g_, c_, CoverageMode::kTwoPointFiveHop);
  NeighborTables t3_ = build_neighbor_tables(g_, c_, CoverageMode::kThreeHop);
};

TEST_F(Figure3Coverage, TwoPointFiveHopMatchesPaper) {
  // Paper: C(1)={2,3}, C(2)={1,3}, C(3)={1,2,4}, C(4)={3} ∪ {1}.
  const auto cov = build_all_coverage(g_, c_, t25_);
  EXPECT_TRUE(testing::same_row(cov.two_hop[0], NodeSet{1, 2}));
  EXPECT_TRUE(cov.three_hop[0].empty());
  EXPECT_TRUE(testing::same_row(cov.two_hop[1], NodeSet{0, 2}));
  EXPECT_TRUE(cov.three_hop[1].empty());
  EXPECT_TRUE(testing::same_row(cov.two_hop[2], NodeSet{0, 1, 3}));
  EXPECT_TRUE(cov.three_hop[2].empty());
  EXPECT_TRUE(testing::same_row(cov.two_hop[3], NodeSet{2}));
  EXPECT_TRUE(testing::same_row(cov.three_hop[3], NodeSet{0}));
}

TEST_F(Figure3Coverage, ThreeHopAddsTheFigure1Case) {
  // With the 3-hop coverage set, head 0 also covers head 3 (distance 3
  // but no member of 3 inside N^2(0)) — the distinction Figure 1
  // illustrates with clusterhead c'.
  const auto cov25 = build_all_coverage(g_, c_, t25_);
  const auto cov3 = build_all_coverage(g_, c_, t3_);
  EXPECT_TRUE(cov25.three_hop[0].empty());
  EXPECT_TRUE(testing::same_row(cov3.three_hop[0], NodeSet{3}));
  // 2.5-hop coverage is never larger than 3-hop coverage.
  for (NodeId h : c_.heads) {
    EXPECT_TRUE(testing::same_row(cov25.two_hop[h], cov3.two_hop[h]));
    EXPECT_TRUE(std::ranges::includes(cov3.three_hop[h], cov25.three_hop[h]));
  }
}

TEST_F(Figure3Coverage, AllAndSizeHelpers) {
  const auto cov = build_coverage(g_, c_, t25_, 3);
  EXPECT_EQ(cov.all(), (NodeSet{0, 2}));
  EXPECT_EQ(cov.size(), 2u);
  EXPECT_FALSE(cov.empty());
  EXPECT_TRUE(Coverage{}.empty());
}

TEST_F(Figure3Coverage, ValidatesAgainstGroundTruth) {
  for (NodeId h : c_.heads) {
    EXPECT_EQ(validate_coverage(g_, c_, t25_, h,
                                build_coverage(g_, c_, t25_, h)),
              "");
    EXPECT_EQ(validate_coverage(g_, c_, t3_, h,
                                build_coverage(g_, c_, t3_, h)),
              "");
  }
}

TEST_F(Figure3Coverage, ValidateDetectsCorruption) {
  auto cov = build_coverage(g_, c_, t25_, 0);
  cov.two_hop.pop_back();
  EXPECT_NE(validate_coverage(g_, c_, t25_, 0, cov), "");
}

TEST_F(Figure3Coverage, RejectsNonHead) {
  EXPECT_THROW(build_coverage(g_, c_, t25_, 4), std::invalid_argument);
}

TEST(CoverageEdgeCases, IsolatedClusterHasEmptyCoverage) {
  const auto g = graph::make_star(5);
  const auto c = cluster::lowest_id_clustering(g);
  const auto t = build_neighbor_tables(g, c, CoverageMode::kThreeHop);
  const auto cov = build_coverage(g, c, t, 0);
  EXPECT_TRUE(cov.empty());
}

TEST(CoverageEdgeCases, PathCoverageChains) {
  // Path 0..8 clusters at heads 0,2,4,6,8; C2 of interior heads holds
  // both neighbors' heads, C3 nothing (all heads are 2 apart).
  const auto g = graph::make_path(9);
  const auto c = cluster::lowest_id_clustering(g);
  const auto t = build_neighbor_tables(g, c, CoverageMode::kThreeHop);
  const auto cov = build_all_coverage(g, c, t);
  EXPECT_TRUE(testing::same_row(cov.two_hop[4], NodeSet{2, 6}));
  EXPECT_TRUE(cov.three_hop[4].empty());
  EXPECT_TRUE(testing::same_row(cov.two_hop[0], NodeSet{2}));
}

TEST(CoverageEdgeCases, LongPathGetsThreeHopEntries) {
  // Path 0-1-2-3-4-5-6 with ids arranged so heads are 3 hops apart:
  // relabel via explicit edges 0-2-4-1-5-3-6 (a path in that visit
  // order). Heads: 0; 1? neighbors {4,5}: no smaller head adjacent -> 1
  // is head; 3: neighbors {5,6} -> head. dist(0,1): 0-2? path edges:
  // (0,2),(2,4),(4,1),(1,5),(5,3),(3,6). dist(0,1)=3.
  const auto g = graph::make_graph(
      7, {{0, 2}, {2, 4}, {4, 1}, {1, 5}, {5, 3}, {3, 6}});
  const auto c = cluster::lowest_id_clustering(g);
  ASSERT_EQ(c.heads, (NodeSet{0, 1, 3}));
  const auto t25 =
      build_neighbor_tables(g, c, CoverageMode::kTwoPointFiveHop);
  const auto cov = build_coverage(g, c, t25, 0);
  // Head 1 has a member (4) in N^2(0), so 1 is in 0's 2.5-hop coverage.
  EXPECT_EQ(cov.three_hop, (NodeSet{1}));
  EXPECT_EQ(validate_coverage(g, c, t25, 0, cov), "");
}

TEST(CoverageScratchTest, ScratchKernelMatchesScratchlessAndComesBackClean) {
  // coverage_row on a scratch reused across heads must be bit-identical
  // to a fresh scratch per head and must return its bitsets fully
  // cleared, or the next head computed with the same scratch inherits
  // stale bits.
  Rng rng(99);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 120;
  cfg.range = geom::range_for_average_degree(8, 120, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto c = cluster::lowest_id_clustering(net->graph);
  for (const auto mode :
       {CoverageMode::kTwoPointFiveHop, CoverageMode::kThreeHop}) {
    const auto t = build_neighbor_tables(net->graph, c, mode);
    const TablesView<graph::Graph> view{net->graph, c, t};
    CoverageScratch scratch;  // deliberately shared across all heads
    Coverage with_scratch;    // ...and so is its row buffer
    for (NodeId h : c.heads) {
      coverage_row(view, h, cfg.nodes, scratch, with_scratch);
      CoverageScratch fresh_scratch;
      Coverage fresh;
      coverage_row(view, h, cfg.nodes, fresh_scratch, fresh);
      EXPECT_EQ(with_scratch.two_hop, fresh.two_hop) << "head " << h;
      EXPECT_EQ(with_scratch.three_hop, fresh.three_hop) << "head " << h;
      for (std::size_t v = 0; v < cfg.nodes; ++v) {
        ASSERT_FALSE(scratch.two.test(static_cast<NodeId>(v)))
            << "stale two-hop bit " << v << " after head " << h;
        ASSERT_FALSE(scratch.three.test(static_cast<NodeId>(v)))
            << "stale three-hop bit " << v << " after head " << h;
      }
    }
  }
}

// ---- Property sweep: message-built coverage equals BFS ground truth ----

struct CovParam {
  std::size_t nodes;
  double degree;
  std::uint64_t seed;
  CoverageMode mode;

  friend std::ostream& operator<<(std::ostream& os, const CovParam& p) {
    return os << testing::param_tag(p.nodes, p.degree, p.seed,
                                    core::to_string(p.mode));
  }
};

class CoverageSweep : public ::testing::TestWithParam<CovParam> {};

TEST_P(CoverageSweep, MatchesGroundTruthDefinition) {
  const auto [n, d, seed, mode] = GetParam();
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto c = cluster::lowest_id_clustering(net->graph);
  const auto t = build_neighbor_tables(net->graph, c, mode);
  for (NodeId h : c.heads) {
    const auto cov = build_coverage(net->graph, c, t, h);
    EXPECT_EQ(validate_coverage(net->graph, c, t, h, cov), "")
        << "head " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomUnitDisk, CoverageSweep,
    ::testing::Values(
        CovParam{20, 6, 1, CoverageMode::kTwoPointFiveHop},
        CovParam{20, 6, 1, CoverageMode::kThreeHop},
        CovParam{40, 6, 2, CoverageMode::kTwoPointFiveHop},
        CovParam{40, 6, 2, CoverageMode::kThreeHop},
        CovParam{60, 18, 3, CoverageMode::kTwoPointFiveHop},
        CovParam{60, 18, 3, CoverageMode::kThreeHop},
        CovParam{80, 6, 4, CoverageMode::kTwoPointFiveHop},
        CovParam{80, 6, 4, CoverageMode::kThreeHop},
        CovParam{100, 18, 5, CoverageMode::kTwoPointFiveHop},
        CovParam{100, 18, 5, CoverageMode::kThreeHop},
        CovParam{100, 6, 6, CoverageMode::kTwoPointFiveHop},
        CovParam{100, 6, 6, CoverageMode::kThreeHop},
        CovParam{50, 12, 7, CoverageMode::kTwoPointFiveHop},
        CovParam{50, 12, 7, CoverageMode::kThreeHop}));

}  // namespace
}  // namespace manet::core
