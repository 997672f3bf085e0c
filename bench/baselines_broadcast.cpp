// Extension bench — the full broadcast-protocol zoo on one table:
// blind flooding, MPR, DP, PDP, broadcasting over the static SI-CDS, and
// the paper's dynamic SD-CDS. All protocols see identical topologies and
// sources, so the columns are directly comparable (the paper's §2
// taxonomy, quantified).
//
// Flags: --seed=<u64>, --reps=<int>,
//        --json=<path> (protocol metric totals from the obs registry,
//        default BENCH_broadcast_metrics.json under --out-dir).
#include <cstdio>

#include "broadcast/dominant_pruning.hpp"
#include "broadcast/flooding.hpp"
#include "broadcast/forwarding_tree.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/si_cds.hpp"
#include "broadcast/suppression.hpp"
#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 65));
  const auto reps = flags.get_count("reps", 40);

  std::puts("manetcast :: broadcast baselines — mean forward-node count");
  std::puts("(identical topologies and sources per row; SI/SD use the "
            "2.5-hop coverage set)\n");

  const exp::PaperScenario scenario;
  TextTable table({"n", "d", "flood", "backoff", "piggyback", "MPR", "DP",
                   "PDP", "tree", "SI static", "SD dynamic"});
  for (double d : {6.0, 18.0}) {
    for (std::size_t n : {20u, 40u, 60u, 80u, 100u}) {
      stats::RunningStats flood_s, backoff_s, piggy_s, mpr_s, dp_s, pdp_s,
          tree_s, si_s, sd_s;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto net = exp::make_network(scenario, {n, d}, seed, rep);
        Rng pick(derive_seed(seed, rep, 97));
        const auto source =
            static_cast<NodeId>(pick.index(net.graph.order()));
        const auto c = cluster::lowest_id_clustering(net.graph);
        const auto st = core::build_static_backbone(
            net.graph, c, core::CoverageMode::kTwoPointFiveHop);

        flood_s.add(static_cast<double>(
            broadcast::flood(net.graph, source).forward_count()));
        Rng sup_rng(derive_seed(seed, rep, 94));
        broadcast::SuppressionOptions sup;
        backoff_s.add(static_cast<double>(
            broadcast::suppression_flood(net.graph, source, sup, sup_rng)
                .forward_count()));
        sup.piggyback_neighbors = true;
        piggy_s.add(static_cast<double>(
            broadcast::suppression_flood(net.graph, source, sup, sup_rng)
                .forward_count()));
        const auto tree = broadcast::build_forwarding_tree(
            net.graph, c, st.tables, source);
        tree_s.add(static_cast<double>(
            broadcast::forwarding_tree_broadcast(net.graph, tree, source)
                .forward_count()));
        mpr_s.add(static_cast<double>(
            broadcast::mpr_broadcast(net.graph, source).forward_count()));
        dp_s.add(static_cast<double>(
            broadcast::dominant_pruning_broadcast(
                net.graph, source, broadcast::PruningRule::kDominant)
                .forward_count()));
        pdp_s.add(static_cast<double>(
            broadcast::dominant_pruning_broadcast(
                net.graph, source, broadcast::PruningRule::kPartialDominant)
                .forward_count()));
        si_s.add(static_cast<double>(
            broadcast::si_cds_broadcast(net.graph, st.cds, source)
                .forward_count()));
        sd_s.add(static_cast<double>(
            core::dynamic_broadcast(net.graph, st, source)
                .forward_count()));
      }
      table.row({std::to_string(n), TextTable::num(d, 0),
                 TextTable::num(flood_s.mean(), 1),
                 TextTable::num(backoff_s.mean(), 1),
                 TextTable::num(piggy_s.mean(), 1),
                 TextTable::num(mpr_s.mean(), 1),
                 TextTable::num(dp_s.mean(), 1),
                 TextTable::num(pdp_s.mean(), 1),
                 TextTable::num(tree_s.mean(), 1),
                 TextTable::num(si_s.mean(), 1),
                 TextTable::num(sd_s.mean(), 1)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: flood = n; every pruned protocol well below it; "
            "SD dynamic below SI static.");
  // Every protocol run above recorded its broadcast.* counters and the
  // shared forward-set/delivery/latency histograms ambiently.
  const std::string metrics_path = artifact_path(
      flags, flags.get("json", "BENCH_broadcast_metrics.json"));
  obs::global_registry().snapshot().write_json_file(metrics_path);
  std::printf("obs metrics written to %s\n", metrics_path.c_str());
  return 0;
}
