// Empirical approximation ratios against the true minimum CDS.
//
// The paper (and [1], [14]) prove a *constant* approximation ratio for
// the cluster-based backbones. The exact branch-and-bound solver is only
// tractable on small instances, so this bench reports, for n = 12..20,
// the mean ratio |CDS| / |MCDS| of the static backbone (both modes),
// MO_CDS and the greedy Guha–Khuller CDS.
//
// Flags: --seed=<u64>, --reps=<int>.
#include <cstdio>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/mo_cds.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "mcds/bounds.hpp"
#include "mcds/exact.hpp"
#include "mcds/greedy.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 64));
  const auto reps = flags.get_count("reps", 20);

  std::puts("manetcast :: approximation ratios vs exact MCDS");
  std::puts("(small instances; ratio = |CDS| / |MCDS|, mean over random "
            "connected unit-disk graphs, d = 6)\n");

  const exp::PaperScenario scenario;
  TextTable table({"n", "MCDS", "static 2.5", "static 3", "MO_CDS",
                   "greedy GK"});
  for (std::size_t n : {12u, 14u, 16u, 18u, 20u}) {
    stats::RunningStats opt, r25, r3, rmo, rgk;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto net = exp::make_network(scenario, {n, 6.0}, seed, rep);
      const auto mcds =
          static_cast<double>(mcds::exact_mcds(net.graph).size());
      opt.add(mcds);
      r25.add(static_cast<double>(
                  core::build_static_backbone(
                      net.graph, core::CoverageMode::kTwoPointFiveHop)
                      .cds.size()) /
              mcds);
      r3.add(static_cast<double>(
                 core::build_static_backbone(net.graph,
                                             core::CoverageMode::kThreeHop)
                     .cds.size()) /
             mcds);
      rmo.add(static_cast<double>(core::build_mo_cds(net.graph).cds.size()) /
              mcds);
      rgk.add(static_cast<double>(mcds::greedy_cds(net.graph).size()) /
              mcds);
    }
    table.row({std::to_string(n), TextTable::num(opt.mean(), 2),
               TextTable::num(r25.mean(), 2), TextTable::num(r3.mean(), 2),
               TextTable::num(rmo.mean(), 2),
               TextTable::num(rgk.mean(), 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: ratios stay bounded (constant-factor claim) and "
            "do not grow with n.\n");

  // Paper scale: the exact solver is out of reach, so certify against
  // the sound lower bound max(ceil(n/(Δ+1)), diam-1). These ratios
  // over-estimate the true ones but still bound them from above.
  std::puts("ratio vs MCDS *lower bound* at paper scale (d = 6):");
  TextTable big({"n", "lower bound", "static 2.5 /lb", "MO_CDS /lb",
                 "greedy GK /lb"});
  for (std::size_t n : {40u, 60u, 80u, 100u}) {
    stats::RunningStats lb, r25, rmo, rgk;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto net = exp::make_network(scenario, {n, 6.0}, seed, rep);
      const auto bound =
          static_cast<double>(mcds::mcds_lower_bound(net.graph));
      lb.add(bound);
      r25.add(static_cast<double>(
                  core::build_static_backbone(
                      net.graph, core::CoverageMode::kTwoPointFiveHop)
                      .cds.size()) /
              bound);
      rmo.add(static_cast<double>(core::build_mo_cds(net.graph).cds.size()) /
              bound);
      rgk.add(static_cast<double>(mcds::greedy_cds(net.graph).size()) /
              bound);
    }
    big.row({std::to_string(n), TextTable::num(lb.mean(), 2),
             TextTable::num(r25.mean(), 2), TextTable::num(rmo.mean(), 2),
             TextTable::num(rgk.mean(), 2)});
  }
  std::fputs(big.render().c_str(), stdout);
  return 0;
}
