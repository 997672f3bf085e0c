// Tests for the experiment harness: scenario generation, the figure
// runners (on a reduced grid), the churn runner's topology handling,
// and the paper's qualitative shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "exp/churn.hpp"
#include "exp/figures.hpp"
#include "exp/mobility_mix.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"

namespace manet::exp {
namespace {

stats::ReplicationPolicy test_policy() {
  stats::ReplicationPolicy p;
  p.min_replications = 8;
  p.max_replications = 40;
  return p;
}

PaperScenario small_scenario() {
  PaperScenario s;
  s.sizes = {20, 40};
  s.degrees = {6.0, 18.0};
  return s;
}

TEST(ScenarioTest, PointsAreTheFullGrid) {
  const PaperScenario s;
  const auto pts = s.points();
  EXPECT_EQ(pts.size(), 18u);  // 9 sizes x 2 degrees
  EXPECT_EQ(pts.front().nodes, 20u);
  EXPECT_DOUBLE_EQ(pts.front().degree, 6.0);
  EXPECT_EQ(pts.back().nodes, 100u);
  EXPECT_DOUBLE_EQ(pts.back().degree, 18.0);
}

TEST(ScenarioTest, NetworksAreConnectedAndSized) {
  const PaperScenario s;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    const auto net = make_network(s, {50, 6.0}, 42, rep);
    EXPECT_EQ(net.graph.order(), 50u);
    EXPECT_TRUE(graph::is_connected(net.graph));
  }
}

TEST(ScenarioTest, ReplicationsAreIndependentButDeterministic) {
  const PaperScenario s;
  const auto a = make_network(s, {30, 6.0}, 7, 0);
  const auto b = make_network(s, {30, 6.0}, 7, 1);
  const auto a_again = make_network(s, {30, 6.0}, 7, 0);
  EXPECT_NE(a.graph.edges(), b.graph.edges());
  EXPECT_EQ(a.graph.edges(), a_again.graph.edges());
}

TEST(ChurnRunnerTest, ReportsConnectedTopologyAndAttempts) {
  // Small dense config: the rejection sampler finds a connected layout
  // well within the budget, and the result says so.
  ChurnConfig config;
  config.nodes = 40;
  config.degree = 18.0;
  config.ticks = 3;
  config.seed = 5;
  config.rebuild_baseline = false;
  const ChurnResult r = run_churn(config);
  EXPECT_TRUE(r.connected);
  EXPECT_EQ(r.giant_fraction, 1.0);
  EXPECT_GE(r.connect_attempts_used, 1u);
  EXPECT_LE(r.connect_attempts_used, config.connect_attempts);
  EXPECT_NE(r.state_hash, 0u);
}

/// Share of the nodes in the largest component of `config`'s initial
/// layout, read off the materialized unit-disk graph.
double initial_giant_fraction(const ChurnConfig& config) {
  const MobilityMix mix(config);
  const auto [label, count] =
      graph::components(geom::unit_disk_graph(mix.positions(), mix.range()));
  std::vector<std::size_t> size(count, 0);
  for (const std::uint32_t c : label) ++size[c];
  return static_cast<double>(*std::max_element(size.begin(), size.end())) /
         static_cast<double>(config.nodes);
}

TEST(ChurnRunnerTest, ExhaustedConnectBudgetIsReportedOrFatal) {
  // 200 nodes at average degree 0.3 are never connected. By default the
  // runner falls back to a disconnected layout but reports the spent
  // budget; with require_connected it must fail loudly instead of
  // silently running a different experiment.
  ChurnConfig config;
  config.nodes = 200;
  config.degree = 0.3;
  config.ticks = 2;
  config.seed = 6;
  config.rebuild_baseline = false;
  config.connect_attempts = 3;
  const ChurnResult r = run_churn(config);
  EXPECT_FALSE(r.connected);
  EXPECT_EQ(r.connect_attempts_used, 3u);
  // The result reports the initial layout's giant component, on both
  // placement paths.
  EXPECT_GT(r.giant_fraction, 0.0);
  EXPECT_LT(r.giant_fraction, 1.0);
  EXPECT_EQ(r.giant_fraction, initial_giant_fraction(config));
  ChurnConfig streaming = config;
  streaming.streaming_placement = true;
  const ChurnResult s = run_churn(streaming);
  EXPECT_LT(s.giant_fraction, 1.0);
  EXPECT_EQ(s.giant_fraction, initial_giant_fraction(streaming));

  config.require_connected = true;
  EXPECT_THROW(run_churn(config), std::invalid_argument);
}

TEST(ChurnRunnerTest, BothEnginesReproduceHeadTotals) {
  // Run totals of both engines on one workload, recorded when each
  // engine still had a runner of its own. Comparing the engines with
  // each other would pass even if the shared loop fed both a different
  // move sequence or counted a field twice.
  ChurnConfig config;
  config.nodes = 150;
  config.degree = 6.0;
  config.ticks = 60;
  config.move_fraction = 0.04;
  config.seed = 2026;
  config.connect_attempts = 5;
  config.model = ChurnConfig::Model::kWaypoint;
  config.mode = core::CoverageMode::kTwoPointFiveHop;
  config.rebuild_baseline = false;
  const auto per_tick = [](double total) { return total / 60.0; };
  const auto per_node_tick = [](double total) { return total / 9000.0; };

  const ChurnResult incr = run_churn(config);
  config.engine = ChurnConfig::Engine::kProto;
  config.threads = 0;
  const ChurnResult proto = run_churn(config);

  for (const ChurnResult& r : {incr, proto}) {
    EXPECT_EQ(r.state_hash, 0x83a96566588608f9ULL);
    EXPECT_DOUBLE_EQ(r.mean_link_changes, per_tick(322));
    EXPECT_DOUBLE_EQ(r.mean_head_changes, per_tick(74));
    EXPECT_DOUBLE_EQ(r.mean_role_changes, per_tick(78));
  }
  EXPECT_DOUBLE_EQ(incr.mean_backbone_changes, per_tick(197));
  EXPECT_DOUBLE_EQ(incr.mean_coverage_changes, per_tick(266));
  EXPECT_DOUBLE_EQ(incr.mean_rows_recomputed, per_tick(1888));
  EXPECT_DOUBLE_EQ(incr.mean_heads_reselected, per_tick(477));

  EXPECT_DOUBLE_EQ(proto.mean_rounds, per_tick(466));
  EXPECT_EQ(proto.max_rounds, 12u);
  EXPECT_DOUBLE_EQ(proto.mean_rows_changed, per_tick(474));
  EXPECT_DOUBLE_EQ(proto.mean_heads_refreshed, per_tick(352));
  EXPECT_DOUBLE_EQ(proto.deliveries_rate, per_node_tick(74823));
  EXPECT_DOUBLE_EQ(proto.hello_rate, per_node_tick(9000));
  EXPECT_DOUBLE_EQ(proto.repair_rate, per_node_tick(206));
  EXPECT_DOUBLE_EQ(proto.rows_rate, per_node_tick(859));
  EXPECT_DOUBLE_EQ(proto.gateway_rate, per_node_tick(2882));
  EXPECT_DOUBLE_EQ(proto.total_rate, per_node_tick(12947));
}

TEST(ChurnRunnerTest, RejectsContradictoryConfigs) {
  ChurnConfig config;
  config.nodes = 40;
  config.ticks = 2;
  config.rebuild_baseline = false;
  config.pipeline_depth = 2;
  config.crosscheck = true;
  EXPECT_THROW(run_churn(config), std::invalid_argument);
  config.crosscheck = false;
  config.engine = ChurnConfig::Engine::kProto;
  EXPECT_THROW(run_churn(config), std::invalid_argument);
  config.pipeline_depth = 1;
  config.engine = ChurnConfig::Engine::kIncr;
  config.inject_stale_gateway_fault = true;
  EXPECT_THROW(run_churn(config), std::invalid_argument);
}

TEST(Fig6RunnerTest, ShapesMatchThePaper) {
  const auto rows = run_fig6(small_scenario(), test_policy(), 2026);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    // Figure 6's qualitative content: all three algorithms are close;
    // the static backbone does not exceed MO_CDS (it shares gateways).
    EXPECT_LE(r.static_25.mean, r.mo_cds.mean * 1.05)
        << "n=" << r.nodes << " d=" << r.degree;
    EXPECT_LE(r.static_3.mean, r.mo_cds.mean * 1.05);
    // The paper: 2.5-hop vs 3-hop differ by <2%; allow noise headroom.
    EXPECT_NEAR(r.static_25.mean, r.static_3.mean,
                0.12 * r.static_3.mean + 0.5);
    EXPECT_GT(r.static_25.mean, 0.0);
  }
  // CDS size grows with n within one degree series.
  EXPECT_LT(rows[0].static_25.mean, rows[1].static_25.mean);  // d=6
  // Denser networks need a smaller fraction of nodes.
  const auto& sparse40 = rows[1];
  const auto& dense40 = rows[3];
  EXPECT_LT(dense40.static_25.mean, sparse40.static_25.mean);
}

TEST(Fig7RunnerTest, DynamicBeatsMoCds) {
  const auto rows = run_fig7(small_scenario(), test_policy(), 2027);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_LT(r.dynamic_25.mean, r.mo_cds_broadcast.mean)
        << "n=" << r.nodes << " d=" << r.degree;
    EXPECT_LT(r.dynamic_3.mean, r.mo_cds_broadcast.mean);
  }
}

TEST(Fig8RunnerTest, DynamicBeatsStatic) {
  const auto rows = run_fig8(small_scenario(), test_policy(), 2028);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_LE(r.dynamic_25.mean, r.static_25.mean * 1.01)
        << "n=" << r.nodes << " d=" << r.degree;
    EXPECT_LE(r.dynamic_3.mean, r.static_3.mean * 1.01);
  }
}

TEST(ReportTest, RendersAllSeries) {
  const auto policy = test_policy();
  const auto scenario = small_scenario();
  const auto r6 = run_fig6(scenario, policy, 1);
  const auto out6 = render_fig6(r6);
  EXPECT_NE(out6.find("Figure 6"), std::string::npos);
  EXPECT_NE(out6.find("MO_CDS"), std::string::npos);
  EXPECT_NE(out6.find("d = 6"), std::string::npos);
  EXPECT_NE(out6.find("d = 18"), std::string::npos);

  const auto r7 = run_fig7(scenario, policy, 1);
  EXPECT_NE(render_fig7(r7).find("dynamic 2.5-hop"), std::string::npos);
  const auto r8 = run_fig8(scenario, policy, 1);
  EXPECT_NE(render_fig8(r8).find("static 3-hop"), std::string::npos);
}

TEST(ReportTest, CsvMirrorsRows) {
  const auto policy = test_policy();
  PaperScenario tiny;
  tiny.sizes = {20};
  tiny.degrees = {6.0};
  const auto dir = ::testing::TempDir();
  const auto r6 = run_fig6(tiny, policy, 3);
  write_fig6_csv(r6, dir + "fig6.csv");
  const auto r7 = run_fig7(tiny, policy, 3);
  write_fig7_csv(r7, dir + "fig7.csv");
  const auto r8 = run_fig8(tiny, policy, 3);
  write_fig8_csv(r8, dir + "fig8.csv");
  std::ifstream in(dir + "fig6.csv");
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "nodes,degree,static25_mean,static25_ci,static3_mean,"
            "static3_ci,mocds_mean,mocds_ci,replications,converged");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row.substr(0, 5), "20,6,");
}

}  // namespace
}  // namespace manet::exp
