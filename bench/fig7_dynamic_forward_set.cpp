// Regenerates Figure 7 — average size of the forward-node set per
// broadcast: the dynamic backbone (2.5-hop and 3-hop) vs broadcasting
// over the MO_CDS, for d = 6 and 18, n = 20..100, uniformly random
// source per replication. Paper's observation: "the dynamic backbone
// algorithm shows much better performance than the MO_CDS".
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
      static_cast<std::uint64_t>(flags.get_int("seed", 20030423));

  std::puts("manetcast :: Figure 7 — average size of the forward node set");
  std::puts("(dynamic backbone vs MO_CDS broadcast; 99% CI half-widths "
            "shown; '*' = replication cap hit)\n");
  const auto rows = manet::exp::run_fig7(scenario, policy, seed);
  std::fputs(manet::exp::render_fig7(rows).c_str(), stdout);

  const auto csv =
      manet::artifact_path(flags, flags.get("csv", "fig7.csv"));
  manet::exp::write_fig7_csv(rows, csv);
  std::printf("series written to %s\n", csv.c_str());
  return 0;
}
