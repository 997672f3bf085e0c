// Reproducibility guarantees: identical seeds produce bit-identical
// results across the whole pipeline — the property the README promises
// and every EXPERIMENTS.md number relies on.
#include <gtest/gtest.h>

#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "exp/ablations.hpp"
#include "exp/figures.hpp"
#include "net/protocol.hpp"

namespace manet::exp {
namespace {

stats::ReplicationPolicy tiny_policy() {
  stats::ReplicationPolicy p;
  p.min_replications = 5;
  p.max_replications = 10;
  return p;
}

PaperScenario tiny_scenario() {
  PaperScenario s;
  s.sizes = {20, 40};
  s.degrees = {6.0};
  return s;
}

TEST(DeterminismTest, Fig6RowsIdenticalAcrossRuns) {
  const auto a = run_fig6(tiny_scenario(), tiny_policy(), 777);
  const auto b = run_fig6(tiny_scenario(), tiny_policy(), 777);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replications, b[i].replications);
    EXPECT_EQ(a[i].static_25.mean, b[i].static_25.mean);
    EXPECT_EQ(a[i].static_3.mean, b[i].static_3.mean);
    EXPECT_EQ(a[i].mo_cds.mean, b[i].mo_cds.mean);
  }
}

TEST(DeterminismTest, Fig7And8RowsIdenticalAcrossRuns) {
  const auto a7 = run_fig7(tiny_scenario(), tiny_policy(), 778);
  const auto b7 = run_fig7(tiny_scenario(), tiny_policy(), 778);
  ASSERT_EQ(a7.size(), b7.size());
  for (std::size_t i = 0; i < a7.size(); ++i)
    EXPECT_EQ(a7[i].dynamic_25.mean, b7[i].dynamic_25.mean);

  const auto a8 = run_fig8(tiny_scenario(), tiny_policy(), 779);
  const auto b8 = run_fig8(tiny_scenario(), tiny_policy(), 779);
  ASSERT_EQ(a8.size(), b8.size());
  for (std::size_t i = 0; i < a8.size(); ++i) {
    EXPECT_EQ(a8[i].static_25.mean, b8[i].static_25.mean);
    EXPECT_EQ(a8[i].dynamic_3.mean, b8[i].dynamic_3.mean);
  }
}

TEST(DeterminismTest, FigureSeriesMatchPinnedValues) {
  // Means printed with %.17g before the SD-CDS callers moved onto the
  // static backbone; a change that shifts every run alike fails here.
  struct Fig7 {
    double dynamic_25, dynamic_3, mo_cds_broadcast;
    std::size_t replications;
  };
  const Fig7 fig7[] = {
      {11.299999999999999, 11.5, 12.100000000000001, 10},
      {24.299999999999997, 24.5, 25.700000000000003, 10}};
  const auto r7 = run_fig7(tiny_scenario(), tiny_policy(), 778);
  ASSERT_EQ(r7.size(), 2u);
  for (std::size_t i = 0; i < r7.size(); ++i) {
    EXPECT_EQ(r7[i].dynamic_25.mean, fig7[i].dynamic_25) << i;
    EXPECT_EQ(r7[i].dynamic_3.mean, fig7[i].dynamic_3) << i;
    EXPECT_EQ(r7[i].mo_cds_broadcast.mean, fig7[i].mo_cds_broadcast) << i;
    EXPECT_EQ(r7[i].replications, fig7[i].replications) << i;
  }

  struct Fig8 {
    double static_25, static_3, dynamic_25, dynamic_3;
    std::size_t replications;
  };
  const Fig8 fig8[] = {{13.699999999999998, 13.699999999999999,
                        12.200000000000001, 12.4, 10},
                       {23.299999999999997, 23.400000000000002,
                        22.499999999999996, 22.800000000000001, 10}};
  const auto r8 = run_fig8(tiny_scenario(), tiny_policy(), 779);
  ASSERT_EQ(r8.size(), 2u);
  for (std::size_t i = 0; i < r8.size(); ++i) {
    EXPECT_EQ(r8[i].static_25.mean, fig8[i].static_25) << i;
    EXPECT_EQ(r8[i].static_3.mean, fig8[i].static_3) << i;
    EXPECT_EQ(r8[i].dynamic_25.mean, fig8[i].dynamic_25) << i;
    EXPECT_EQ(r8[i].dynamic_3.mean, fig8[i].dynamic_3) << i;
    EXPECT_EQ(r8[i].replications, fig8[i].replications) << i;
  }

  const double pruning[][4] = {
      {12, 11, 11.800000000000001, 10.6},
      {26.199999999999999, 23, 26, 22.800000000000001}};
  const auto rp = run_pruning_ablation({20, 40}, {6.0}, 5, 321);
  ASSERT_EQ(rp.size(), 2u);
  for (std::size_t i = 0; i < rp.size(); ++i) {
    EXPECT_EQ(rp[i].forward_none, pruning[i][0]) << i;
    EXPECT_EQ(rp[i].forward_piggyback, pruning[i][1]) << i;
    EXPECT_EQ(rp[i].forward_relay, pruning[i][2]) << i;
    EXPECT_EQ(rp[i].forward_both, pruning[i][3]) << i;
    EXPECT_TRUE(rp[i].all_delivered) << i;
  }

  // hello, roles, ch_hop1, ch_hop2, gateway, construction_total,
  // per_node, rounds, data, deliveries, inbox_resets.
  const double msg[][11] = {
      {20, 20, 14, 14, 14.666666666666666, 82.666666666666671,
       4.1333333333333337, 13, 11, 335.66666666666669, 162.66666666666666},
      {40, 40, 28.666666666666668, 28.666666666666668, 32.333333333333336,
       169.66666666666666, 4.2416666666666663, 13.666666666666666,
       23.666666666666668, 828.33333333333337, 363}};
  const auto rm = run_msg_complexity({20, 40}, {6.0}, 3, 7);
  ASSERT_EQ(rm.size(), 2u);
  for (std::size_t i = 0; i < rm.size(); ++i) {
    const double got[] = {rm[i].hello,   rm[i].roles,
                          rm[i].ch_hop1, rm[i].ch_hop2,
                          rm[i].gateway, rm[i].construction_total,
                          rm[i].per_node, rm[i].rounds,
                          rm[i].data,    rm[i].deliveries,
                          rm[i].inbox_resets};
    for (std::size_t k = 0; k < 11; ++k)
      EXPECT_EQ(got[k], msg[i][k]) << "row " << i << " field " << k;
  }
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  const auto a = run_fig6(tiny_scenario(), tiny_policy(), 1);
  const auto b = run_fig6(tiny_scenario(), tiny_policy(), 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].static_25.mean != b[i].static_25.mean) any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(DeterminismTest, WholePipelineIsPure) {
  // Building the backbone twice on the same graph yields identical
  // structures (no hidden global state anywhere in the pipeline).
  const PaperScenario s = tiny_scenario();
  const auto net = make_network(s, {40, 6.0}, 99, 0);
  const auto b1 = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  const auto b2 = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  EXPECT_EQ(b1.cds, b2.cds);
  EXPECT_EQ(b1.gateways, b2.gateways);

  const auto r1 = core::dynamic_broadcast(net.graph, b1, 5);
  const auto r2 = core::dynamic_broadcast(net.graph, b1, 5);
  EXPECT_EQ(r1.forward_nodes, r2.forward_nodes);

  const auto d1 = net::run_distributed_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  const auto d2 = net::run_distributed_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  EXPECT_EQ(d1.flagged, d2.flagged);
  EXPECT_EQ(d1.counts.total(), d2.counts.total());
  EXPECT_EQ(d1.rounds, d2.rounds);
}

}  // namespace
}  // namespace manet::exp
