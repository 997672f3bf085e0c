// Extension bench — broadcast latency in relay hops.
//
// Pruning trades not only robustness but also path directness: backbone
// routes can be longer than the flooding-optimal BFS paths. This bench
// reports the mean first-copy latency (relay hops until the last node is
// reached) for flooding (the BFS lower bound), MPR, DP, the SI static
// backbone and the SD dynamic backbone.
//
// Flags: --seed=<u64>, --reps=<int>.
#include <cstdio>

#include "broadcast/dominant_pruning.hpp"
#include "broadcast/flooding.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/si_cds.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "stats/running.hpp"
#include "stats/samples.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 69));
  const auto reps = flags.get_count("reps", 40);

  std::puts("manetcast :: broadcast latency (relay hops to the last node)");
  std::puts("(flooding equals the BFS eccentricity — the lower bound)\n");

  const exp::PaperScenario scenario;
  TextTable table({"n", "d", "flood", "MPR", "DP", "SI static",
                   "SD dynamic", "SD p95"});
  for (double d : {6.0, 18.0}) {
    for (std::size_t n : {20u, 40u, 60u, 80u, 100u}) {
      stats::RunningStats fl, mp, dp, si;
      stats::SampleSet sd;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto net = exp::make_network(scenario, {n, d}, seed, rep);
        Rng pick(derive_seed(seed, rep, 95));
        const auto source =
            static_cast<NodeId>(pick.index(net.graph.order()));
        const auto c = cluster::lowest_id_clustering(net.graph);
        const auto st = core::build_static_backbone(
            net.graph, c, core::CoverageMode::kTwoPointFiveHop);
        fl.add(broadcast::flood(net.graph, source).latency_hops());
        mp.add(broadcast::mpr_broadcast(net.graph, source).latency_hops());
        dp.add(broadcast::dominant_pruning_broadcast(
                   net.graph, source, broadcast::PruningRule::kDominant)
                   .latency_hops());
        si.add(broadcast::si_cds_broadcast(net.graph, st.cds, source)
                   .latency_hops());
        sd.add(core::dynamic_broadcast(net.graph, st, source)
                   .latency_hops());
      }
      table.row({std::to_string(n), TextTable::num(d, 0),
                 TextTable::num(fl.mean(), 2), TextTable::num(mp.mean(), 2),
                 TextTable::num(dp.mean(), 2), TextTable::num(si.mean(), 2),
                 TextTable::num(sd.mean(), 2),
                 TextTable::num(sd.quantile(0.95), 2)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: flooding is the shortest; backbone detours cost "
            "about one extra hop on average.");
  return 0;
}
