// Ablation — what does the 2.5-hop coverage set give up vs the 3-hop one?
//
// The paper's claim (§4, conclusions): the 2.5-hop variant has comparable
// backbone quality (<2% size difference) while being cheaper to maintain
// (smaller coverage sets and CH_HOP2 tables). This bench quantifies both
// halves: CDS size, per-broadcast forward count, total coverage-set
// entries and total CH_HOP2 entries (the state a head must keep fresh
// under mobility).
//
// Flags: --seed=<u64>, --reps=<int>.
#include <cstdio>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 61));
  const auto reps = flags.get_count("reps", 40);

  std::puts("manetcast :: ablation — 2.5-hop vs 3-hop coverage sets");
  std::puts("(means over random connected topologies; 'hop2 entries' and "
            "'coverage entries' proxy the maintenance state)\n");

  const exp::PaperScenario scenario;
  TextTable table({"n", "d", "mode", "CDS size", "forward", "cov entries",
                   "hop2 entries"});
  for (double d : {6.0, 18.0}) {
    for (std::size_t n : {20u, 40u, 60u, 80u, 100u}) {
      for (const auto mode : {core::CoverageMode::kTwoPointFiveHop,
                              core::CoverageMode::kThreeHop}) {
        stats::RunningStats cds, fwd, cov_entries, hop2_entries;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          const auto net =
              exp::make_network(scenario, {n, d}, seed, rep);
          const auto st = core::build_static_backbone(net.graph, mode);
          cds.add(static_cast<double>(st.cds.size()));
          double centries = 0;
          for (NodeId h : st.clustering.heads)
            centries += static_cast<double>(st.coverage[h].size());
          cov_entries.add(centries);
          double h2 = 0;
          for (NodeId v = 0; v < net.graph.order(); ++v)
            h2 += static_cast<double>(st.tables.ch_hop2[v].size());
          hop2_entries.add(h2);

          Rng pick(derive_seed(seed, rep, 99));
          const auto source =
              static_cast<NodeId>(pick.index(net.graph.order()));
          fwd.add(static_cast<double>(
              core::dynamic_broadcast(net.graph, st, source)
                  .forward_count()));
        }
        table.row({std::to_string(n), TextTable::num(d, 0),
                   core::to_string(mode), TextTable::num(cds.mean(), 2),
                   TextTable::num(fwd.mean(), 2),
                   TextTable::num(cov_entries.mean(), 1),
                   TextTable::num(hop2_entries.mean(), 1)});
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: CDS sizes within ~2%; 2.5-hop keeps fewer entries.");
  return 0;
}
