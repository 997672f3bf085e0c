#include "exp/ablations.hpp"

#include "cluster/lowest_id.hpp"
#include "common/assert.hpp"
#include "core/dynamic_broadcast.hpp"
#include "net/protocol.hpp"
#include "stats/running.hpp"

namespace manet::exp {

std::vector<PruningAblationRow> run_pruning_ablation(
    const std::vector<std::size_t>& sizes,
    const std::vector<double>& degrees, std::size_t replications,
    std::uint64_t seed) {
  MANET_REQUIRE(replications > 0, "need at least one replication");
  const PaperScenario scenario;
  const core::DynamicBroadcastOptions variants[4] = {
      {false, false}, {true, false}, {false, true}, {true, true}};

  std::vector<PruningAblationRow> rows;
  for (double d : degrees) {
    for (std::size_t n : sizes) {
      stats::RunningStats fwd[4];
      bool all_delivered = true;
      for (std::size_t rep = 0; rep < replications; ++rep) {
        const auto net = make_network(scenario, {n, d}, seed, rep);
        const auto bb = core::build_static_backbone(
            net.graph, core::CoverageMode::kTwoPointFiveHop);
        Rng pick(derive_seed(seed, rep, 98));
        const auto source =
            static_cast<NodeId>(pick.index(net.graph.order()));
        for (int i = 0; i < 4; ++i) {
          const auto r =
              core::dynamic_broadcast(net.graph, bb, source, variants[i]);
          all_delivered = all_delivered && r.delivered_all;
          fwd[i].add(static_cast<double>(r.forward_count()));
        }
      }
      rows.push_back({n, d, fwd[0].mean(), fwd[1].mean(), fwd[2].mean(),
                      fwd[3].mean(), all_delivered});
    }
  }
  return rows;
}

std::vector<MsgComplexityRow> run_msg_complexity(
    const std::vector<std::size_t>& sizes,
    const std::vector<double>& degrees, std::size_t replications,
    std::uint64_t seed) {
  MANET_REQUIRE(replications > 0, "need at least one replication");
  const PaperScenario scenario;
  std::vector<MsgComplexityRow> rows;
  for (double d : degrees) {
    for (std::size_t n : sizes) {
      stats::RunningStats hello, roles, hop1, hop2, gateway, total, rounds,
          data, deliveries, resets;
      for (std::size_t rep = 0; rep < replications; ++rep) {
        const auto net = make_network(scenario, {n, d}, seed, rep);
        const auto run = net::run_distributed_backbone(
            net.graph, core::CoverageMode::kTwoPointFiveHop);
        hello.add(static_cast<double>(run.counts.hello));
        roles.add(static_cast<double>(run.counts.cluster_head +
                                      run.counts.non_cluster_head));
        hop1.add(static_cast<double>(run.counts.ch_hop1));
        hop2.add(static_cast<double>(run.counts.ch_hop2));
        gateway.add(static_cast<double>(run.counts.gateway));
        total.add(static_cast<double>(run.counts.total()));
        rounds.add(static_cast<double>(run.rounds));
        deliveries.add(static_cast<double>(run.delivery.deliveries));
        resets.add(static_cast<double>(run.delivery.inbox_resets));
        const auto bcast = net::run_distributed_broadcast(
            net.graph, core::CoverageMode::kTwoPointFiveHop, 0);
        data.add(static_cast<double>(bcast.data_messages));
      }
      rows.push_back({n, d, hello.mean(), roles.mean(), hop1.mean(),
                      hop2.mean(), gateway.mean(), total.mean(),
                      total.mean() / static_cast<double>(n), rounds.mean(),
                      data.mean(), deliveries.mean(), resets.mean()});
    }
  }
  return rows;
}

}  // namespace manet::exp
