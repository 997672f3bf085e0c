// Extension bench — every SI-CDS construction in the repository on one
// table: the paper's static backbone (both coverage modes), MO_CDS, the
// Wu–Li marking process (raw, Rule 1, Rules 1+2), the greedy
// Guha–Khuller CDS, and the Pagani–Rossi forwarding tree (per-source;
// averaged over random roots). Smaller is better; all are verified CDSs.
//
// Flags: --seed=<u64>, --reps=<int>.
#include <cstdio>

#include "broadcast/forwarding_tree.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/mo_cds.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "mcds/greedy.hpp"
#include "mcds/wu_li.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 67));
  const auto reps = flags.get_count("reps", 40);

  std::puts("manetcast :: CDS constructions — average backbone size");
  std::puts("(same topologies per row; 'tree' is the per-source forwarding "
            "tree, averaged over a random root)\n");

  const exp::PaperScenario scenario;
  TextTable table({"n", "d", "static 2.5", "static 3", "MO_CDS",
                   "WuLi marked", "WuLi R1", "WuLi R1+R2", "greedy GK",
                   "tree"});
  for (double d : {6.0, 18.0}) {
    for (std::size_t n : {20u, 40u, 60u, 80u, 100u}) {
      stats::RunningStats s25, s3, mo, marked, r1, r12, gk, tree;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto net = exp::make_network(scenario, {n, d}, seed, rep);
        const auto c = cluster::lowest_id_clustering(net.graph);
        s25.add(static_cast<double>(
            core::build_static_backbone(net.graph, c,
                                        core::CoverageMode::kTwoPointFiveHop)
                .cds.size()));
        s3.add(static_cast<double>(
            core::build_static_backbone(net.graph, c,
                                        core::CoverageMode::kThreeHop)
                .cds.size()));
        mo.add(static_cast<double>(
            core::build_mo_cds(net.graph, c).cds.size()));
        marked.add(static_cast<double>(
            mcds::wu_li_cds(net.graph, {false, false}).size()));
        r1.add(static_cast<double>(
            mcds::wu_li_cds(net.graph, {true, false}).size()));
        r12.add(static_cast<double>(mcds::wu_li_cds(net.graph).size()));
        gk.add(static_cast<double>(mcds::greedy_cds(net.graph).size()));
        const auto tables = core::build_neighbor_tables(
            net.graph, c, core::CoverageMode::kTwoPointFiveHop);
        Rng pick(derive_seed(seed, rep, 96));
        const auto source =
            static_cast<NodeId>(pick.index(net.graph.order()));
        tree.add(static_cast<double>(
            broadcast::build_forwarding_tree(net.graph, c, tables, source)
                .members.size()));
      }
      table.row({std::to_string(n), TextTable::num(d, 0),
                 TextTable::num(s25.mean(), 1), TextTable::num(s3.mean(), 1),
                 TextTable::num(mo.mean(), 1),
                 TextTable::num(marked.mean(), 1),
                 TextTable::num(r1.mean(), 1), TextTable::num(r12.mean(), 1),
                 TextTable::num(gk.mean(), 1),
                 TextTable::num(tree.mean(), 1)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: Wu–Li marking alone is large and the rules shrink "
            "it; greedy GK is the smallest; cluster backbones sit between.");
  return 0;
}
