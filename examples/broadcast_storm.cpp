// Broadcast storm demo — the scenario that motivates the paper (§1).
//
// As density grows, blind flooding keeps every node transmitting while
// backbone-based broadcasting holds the forward set nearly flat. This
// example sweeps the average degree on a fixed population and prints the
// redundancy (transmissions that deliver no first copy) of each scheme —
// the quantity that causes the collision/contention collapse Ni et al.
// described.
//
// Run:  ./broadcast_storm [--nodes=80] [--seed=11] [--reps=20]
#include <cstdio>

#include "broadcast/flooding.hpp"
#include "broadcast/si_cds.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto n = flags.get_count("nodes", 80);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  const auto reps = flags.get_count("reps", 20);

  std::printf("broadcast storm demo: %zu nodes, degree sweep, %zu "
              "replications per point\n\n",
              n, reps);
  TextTable table({"avg degree", "flood fwd", "static fwd", "dynamic fwd",
                   "flood redundancy", "dynamic redundancy"});

  for (double d : {4.0, 6.0, 10.0, 14.0, 18.0, 24.0}) {
    stats::RunningStats flood_fwd, static_fwd, dyn_fwd;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Rng rng(derive_seed(seed, rep, static_cast<std::uint64_t>(d)));
      geom::UnitDiskConfig cfg;
      cfg.nodes = n;
      cfg.range =
          geom::range_for_average_degree(d, n, cfg.width, cfg.height);
      const auto net = geom::generate_connected_unit_disk(cfg, rng);
      if (!net) continue;  // sparse configs occasionally fail; skip
      const auto source = static_cast<NodeId>(rng.index(n));
      flood_fwd.add(static_cast<double>(
          broadcast::flood(net->graph, source).forward_count()));
      const auto st = core::build_static_backbone(
          net->graph, core::CoverageMode::kTwoPointFiveHop);
      static_fwd.add(static_cast<double>(
          broadcast::si_cds_broadcast(net->graph, st.cds, source)
              .forward_count()));
      dyn_fwd.add(static_cast<double>(
          core::dynamic_broadcast(net->graph, st, source).forward_count()));
    }
    if (flood_fwd.count() == 0) continue;
    // Redundancy: n-1 first deliveries suffice; everything beyond one
    // transmission per delivery is overhead.
    const auto nd = static_cast<double>(n);
    const double flood_red = 100.0 * (flood_fwd.mean() - 1) / (nd - 1);
    const double dyn_red = 100.0 * (dyn_fwd.mean() - 1) / (nd - 1);
    table.row({TextTable::num(d, 0), TextTable::num(flood_fwd.mean(), 1),
               TextTable::num(static_fwd.mean(), 1),
               TextTable::num(dyn_fwd.mean(), 1),
               TextTable::num(flood_red, 0) + "%",
               TextTable::num(dyn_red, 0) + "%"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nFlooding keeps ~100% of nodes transmitting regardless of "
            "density;\nthe cluster backbone converts density into savings.");
  return 0;
}
