#include "exp/figures.hpp"

#include "broadcast/si_cds.hpp"
#include "cluster/lowest_id.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/mo_cds.hpp"
#include "core/static_backbone.hpp"

namespace manet::exp {
namespace {

using core::CoverageMode;

Measurement to_measurement(const stats::RunningStats& s, double confidence) {
  return {s.mean(), s.ci_halfwidth(confidence)};
}

/// Per-replication uniform source pick, independent of topology stream.
NodeId pick_source(std::uint64_t seed, std::size_t replication,
                   std::size_t n) {
  Rng rng(derive_seed(seed, replication, 0x50uL));
  return static_cast<NodeId>(rng.index(n));
}

}  // namespace

std::vector<Fig6Row> run_fig6(const PaperScenario& scenario,
                              const stats::ReplicationPolicy& policy,
                              std::uint64_t seed) {
  std::vector<Fig6Row> rows;
  for (const auto& point : scenario.points()) {
    const auto result = stats::replicate(
        policy, 3, [&](std::size_t rep, std::vector<double>& out) {
          const auto net = make_network(scenario, point, seed, rep);
          const auto c = cluster::lowest_id_clustering(net.graph);
          out.push_back(static_cast<double>(
              core::build_static_backbone(net.graph, c,
                                          CoverageMode::kTwoPointFiveHop)
                  .cds.size()));
          out.push_back(static_cast<double>(
              core::build_static_backbone(net.graph, c,
                                          CoverageMode::kThreeHop)
                  .cds.size()));
          out.push_back(static_cast<double>(
              core::build_mo_cds(net.graph, c).cds.size()));
        });
    rows.push_back({point.nodes, point.degree,
                    to_measurement(result.metrics[0], policy.confidence),
                    to_measurement(result.metrics[1], policy.confidence),
                    to_measurement(result.metrics[2], policy.confidence),
                    result.replications, result.converged});
  }
  return rows;
}

std::vector<Fig7Row> run_fig7(const PaperScenario& scenario,
                              const stats::ReplicationPolicy& policy,
                              std::uint64_t seed) {
  std::vector<Fig7Row> rows;
  for (const auto& point : scenario.points()) {
    const auto result = stats::replicate(
        policy, 3, [&](std::size_t rep, std::vector<double>& out) {
          const auto net = make_network(scenario, point, seed, rep);
          const auto c = cluster::lowest_id_clustering(net.graph);
          const auto source =
              pick_source(seed, rep, net.graph.order());
          const auto bb25 = core::build_static_backbone(
              net.graph, c, CoverageMode::kTwoPointFiveHop);
          const auto bb3 = core::build_static_backbone(
              net.graph, c, CoverageMode::kThreeHop);
          const auto mo = core::build_mo_cds(net.graph, c);
          out.push_back(static_cast<double>(
              core::dynamic_broadcast(net.graph, bb25, source)
                  .forward_count()));
          out.push_back(static_cast<double>(
              core::dynamic_broadcast(net.graph, bb3, source)
                  .forward_count()));
          out.push_back(static_cast<double>(
              broadcast::si_cds_broadcast(net.graph, mo.cds, source)
                  .forward_count()));
        });
    rows.push_back({point.nodes, point.degree,
                    to_measurement(result.metrics[0], policy.confidence),
                    to_measurement(result.metrics[1], policy.confidence),
                    to_measurement(result.metrics[2], policy.confidence),
                    result.replications, result.converged});
  }
  return rows;
}

std::vector<Fig8Row> run_fig8(const PaperScenario& scenario,
                              const stats::ReplicationPolicy& policy,
                              std::uint64_t seed) {
  std::vector<Fig8Row> rows;
  for (const auto& point : scenario.points()) {
    const auto result = stats::replicate(
        policy, 4, [&](std::size_t rep, std::vector<double>& out) {
          const auto net = make_network(scenario, point, seed, rep);
          const auto c = cluster::lowest_id_clustering(net.graph);
          const auto source =
              pick_source(seed, rep, net.graph.order());
          // One backbone per mode feeds both broadcasts.
          const core::StaticBackbone st[2] = {
              core::build_static_backbone(net.graph, c,
                                          CoverageMode::kTwoPointFiveHop),
              core::build_static_backbone(net.graph, c,
                                          CoverageMode::kThreeHop)};
          for (const auto& b : st)
            out.push_back(static_cast<double>(
                broadcast::si_cds_broadcast(net.graph, b.cds, source)
                    .forward_count()));
          for (const auto& b : st)
            out.push_back(static_cast<double>(
                core::dynamic_broadcast(net.graph, b, source)
                    .forward_count()));
        });
    rows.push_back({point.nodes, point.degree,
                    to_measurement(result.metrics[0], policy.confidence),
                    to_measurement(result.metrics[1], policy.confidence),
                    to_measurement(result.metrics[2], policy.confidence),
                    to_measurement(result.metrics[3], policy.confidence),
                    result.replications, result.converged});
  }
  return rows;
}

}  // namespace manet::exp
