// Regenerates Figure 8 — average forward-node-set sizes of the static
// vs the dynamic backbone, for d = 6 and 18, n = 20..100. Paper's
// observations: broadcasting in the dynamic backbone has less redundancy
// than in the static backbone, and the 2.5-hop / 3-hop difference is
// very small.
//
// Flags: --fast, --seed=<u64>, --csv=<path> (under --out-dir, default
// results/),
//        --threads=<k> (parallel replications; 0 = hardware threads).
#include <cstdio>
#include <string>

#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"

int main(int argc, char** argv) {
  const manet::Flags flags(argc, argv);
  manet::exp::PaperScenario scenario;
  auto policy = manet::exp::bench_policy(flags.get_count("threads", 1));
  if (flags.get_bool("fast")) {
    policy.min_replications = 10;
    policy.max_replications = 60;
  }
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 20030424));

  std::puts("manetcast :: Figure 8 — forward node sets, static vs dynamic");
  std::puts("(99% CI half-widths shown; '*' = replication cap hit)\n");
  const auto rows = manet::exp::run_fig8(scenario, policy, seed);
  std::fputs(manet::exp::render_fig8(rows).c_str(), stdout);

  const auto csv =
      manet::artifact_path(flags, flags.get("csv", "fig8.csv"));
  manet::exp::write_fig8_csv(rows, csv);
  std::printf("series written to %s\n", csv.c_str());
  return 0;
}
