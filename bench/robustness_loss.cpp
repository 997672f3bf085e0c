// Extension bench — the redundancy/robustness trade-off under packet
// loss. The paper (like the CDS literature) assumes an ideal MAC; this
// bench quantifies what the pruned backbones give up when deliveries fail
// independently with probability p: delivery ratio of blind flooding vs
// MPR vs SI-CDS (static backbone) vs the suppression floods of §3.
//
// Flags: --seed=<u64>, --reps=<int>, --nodes=<int>, --degree=<float>.
#include <cstdio>

#include "broadcast/lossy.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/suppression.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 68));
  const auto reps = flags.get_count("reps", 60);
  const auto n = flags.get_count("nodes", 80);
  const double d = flags.get_double("degree", 10.0);

  std::printf("manetcast :: delivery ratio under per-delivery loss "
              "(n=%zu, d=%.0f, %zu reps)\n\n",
              n, d, reps);

  const exp::PaperScenario scenario;
  TextTable table({"loss", "flood", "MPR", "SI-CDS", "flood fwd",
                   "SI fwd"});
  for (double loss : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    stats::RunningStats fl, mp, si, fl_fwd, si_fwd;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto net = exp::make_network(scenario, {n, d}, seed, rep);
      const auto bb = core::build_static_backbone(
          net.graph, core::CoverageMode::kTwoPointFiveHop);
      const auto mpr = broadcast::compute_mpr_sets(net.graph);
      Rng rng(derive_seed(seed, rep, static_cast<std::uint64_t>(loss * 100)));
      const auto source = static_cast<NodeId>(rng.index(n));
      const broadcast::LossModel model{loss};
      const auto f = broadcast::flood_lossy(net.graph, source, model, rng);
      fl.add(f.delivery_ratio());
      fl_fwd.add(static_cast<double>(f.forward_count()));
      mp.add(broadcast::mpr_broadcast_lossy(net.graph, mpr, source, model,
                                            rng)
                 .delivery_ratio());
      const auto s = broadcast::si_cds_broadcast_lossy(net.graph, bb.cds,
                                                       source, model, rng);
      si.add(s.delivery_ratio());
      si_fwd.add(static_cast<double>(s.forward_count()));
    }
    table.row({TextTable::num(loss, 1), TextTable::num(fl.mean(), 3),
               TextTable::num(mp.mean(), 3), TextTable::num(si.mean(), 3),
               TextTable::num(fl_fwd.mean(), 1),
               TextTable::num(si_fwd.mean(), 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: flooding degrades most gracefully (its redundancy "
            "buys robustness); the pruned backbone pays for its savings as "
            "loss grows.");
  return 0;
}
