// Regenerates Figure 6 — average CDS size of the static backbone
// (2.5-hop and 3-hop coverage) vs MO_CDS, for d = 6 and d = 18,
// n = 20..100. The paper's observations to check against:
//   * both algorithms produce similar CDS sizes;
//   * the static backbone is (insignificantly) better than MO_CDS;
//   * 2.5-hop vs 3-hop differ by less than ~2%.
//
// Flags: --fast (reduced replication caps), --seed=<u64>,
//        --csv=<path> (defaults to fig6.csv under --out-dir, default results/),
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
      static_cast<std::uint64_t>(flags.get_int("seed", 20030422));

  std::puts("manetcast :: Figure 6 — average size of the generated CDS");
  std::puts("(static backbone vs MO_CDS; 99% CI half-widths shown; '*' = "
            "replication cap hit)\n");
  const auto rows = manet::exp::run_fig6(scenario, policy, seed);
  std::fputs(manet::exp::render_fig6(rows).c_str(), stdout);

  const auto csv =
      manet::artifact_path(flags, flags.get("csv", "fig6.csv"));
  manet::exp::write_fig6_csv(rows, csv);
  std::printf("series written to %s\n", csv.c_str());
  return 0;
}
