// Tests for the first-copy latency metric across all broadcast engines.
#include <gtest/gtest.h>

#include "broadcast/dominant_pruning.hpp"
#include "broadcast/flooding.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/si_cds.hpp"
#include "common/rng.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "paper_fixtures.hpp"

namespace manet::broadcast {
namespace {

std::uint32_t eccentricity(const graph::Graph& g, NodeId v) {
  std::uint32_t worst = 0;
  for (std::uint32_t d : graph::bfs_distances(g, v))
    if (d != graph::kUnreachable) worst = std::max(worst, d);
  return worst;
}

TEST(LatencyTest, FloodMatchesBfsEccentricity) {
  const auto g = testing::paper_figure3_network();
  for (NodeId s = 0; s < g.order(); ++s) {
    const auto stats = flood(g, s);
    EXPECT_EQ(stats.latency_hops(), eccentricity(g, s)) << "source " << s;
    // First-copy hops are exactly the BFS distances under flooding.
    const auto dist = graph::bfs_distances(g, s);
    for (NodeId v = 0; v < g.order(); ++v)
      EXPECT_EQ(stats.first_copy_hops[v], dist[v]) << "node " << v;
  }
}

TEST(LatencyTest, PathLatencyIsLength) {
  const auto g = graph::make_path(9);
  EXPECT_EQ(flood(g, 0).latency_hops(), 8u);
  EXPECT_EQ(flood(g, 4).latency_hops(), 4u);
}

TEST(LatencyTest, EmptyStatsReportZero) {
  BroadcastStats empty;
  EXPECT_EQ(empty.latency_hops(), 0u);
}

TEST(LatencyTest, UnreachedNodesExcluded) {
  const auto g = graph::make_graph(4, {{0, 1}, {2, 3}});
  const auto stats = flood(g, 0);
  EXPECT_EQ(stats.latency_hops(), 1u);
  EXPECT_EQ(stats.first_copy_hops[2], kUnreachableHops);
}

TEST(LatencyTest, BackbonesAddBoundedDetour) {
  Rng rng(33);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(10.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto c = cluster::lowest_id_clustering(net->graph);
  const auto st = core::build_static_backbone(
      net->graph, c, core::CoverageMode::kTwoPointFiveHop);
  for (NodeId s = 0; s < net->graph.order(); s += 7) {
    const auto lower = eccentricity(net->graph, s);
    const auto si = si_cds_broadcast(net->graph, st.cds, s).latency_hops();
    const auto sd = core::dynamic_broadcast(net->graph, st, s).latency_hops();
    const auto mp = mpr_broadcast(net->graph, s).latency_hops();
    const auto dp = dominant_pruning_broadcast(net->graph, s,
                                               PruningRule::kDominant)
                        .latency_hops();
    EXPECT_GE(si, lower);
    EXPECT_GE(sd, lower);
    EXPECT_GE(mp, lower);
    EXPECT_GE(dp, lower);
    // Detours stay bounded (a small constant factor on these densities).
    EXPECT_LE(si, 3 * lower + 3);
    EXPECT_LE(sd, 3 * lower + 3);
  }
}

TEST(LatencyTest, DynamicEngineTracksHops) {
  const auto g = testing::paper_figure3_network();
  const auto bb =
      core::build_static_backbone(g, core::CoverageMode::kTwoPointFiveHop);
  const auto r = core::dynamic_broadcast(g, bb, 0);
  EXPECT_EQ(r.first_copy_hops[0], 0u);
  // Every reached node is within graph distance + detour of the source.
  const auto dist = graph::bfs_distances(g, 0);
  for (NodeId v = 0; v < g.order(); ++v)
    EXPECT_GE(r.first_copy_hops[v], dist[v]) << "node " << v;
  EXPECT_GT(r.latency_hops(), 0u);
}

}  // namespace
}  // namespace manet::broadcast
