// Network planning — using the library as a deployment design tool.
//
// Given an area, a node count and a transmission-range budget, report the
// structures a cluster-based deployment would run on: connectivity odds,
// cluster count, backbone size, broadcast cost, and the maintenance churn
// to expect at a given node speed. Sweeps the transmission range so an
// operator can pick the smallest radio power that still meets targets.
//
// Run:  ./network_planning [--nodes=60] [--width=100] [--height=100]
//                          [--speed=1.0] [--seed=5] [--reps=25]
#include <cstdio>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "mobility/maintenance.hpp"
#include "mobility/waypoint.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto n = flags.get_count("nodes", 60);
  const double width = flags.get_double("width", 100.0);
  const double height = flags.get_double("height", 100.0);
  const double speed = flags.get_double("speed", 1.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const auto reps = flags.get_count("reps", 25);

  std::printf("network planning: %zu nodes in %.0fx%.0f, node speed %.1f\n\n",
              n, width, height, speed);

  TextTable table({"range", "connected", "clusters", "backbone", "bcast fwd",
                   "churn/step"});
  for (double factor : {0.8, 1.0, 1.25, 1.5, 2.0}) {
    const double base =
        geom::range_for_average_degree(6.0, n, width, height);
    const double range = base * factor;
    std::size_t connected = 0;
    stats::RunningStats clusters, backbone, fwd, churn;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Rng rng(derive_seed(seed, rep, static_cast<std::uint64_t>(factor * 8)));
      geom::UnitDiskConfig cfg{width, height, n, range};
      const auto net = geom::generate_unit_disk(cfg, rng);
      if (!graph::is_connected(net.graph)) continue;
      ++connected;
      const auto st = core::build_static_backbone(
          net.graph, core::CoverageMode::kTwoPointFiveHop);
      clusters.add(static_cast<double>(st.clustering.heads.size()));
      backbone.add(static_cast<double>(st.cds.size()));
      fwd.add(static_cast<double>(
          core::dynamic_broadcast(net.graph, st, 0).forward_count()));

      // One mobility step of churn at the requested speed.
      mobility::WaypointConfig wcfg;
      wcfg.min_speed = std::max(0.1, speed * 0.5);
      wcfg.max_speed = std::max(wcfg.min_speed, speed);
      wcfg.width = width;
      wcfg.height = height;
      mobility::WaypointModel model(net.positions, wcfg,
                                    Rng(derive_seed(seed, rep, 17)));
      model.step(1.0);
      churn.add(static_cast<double>(
          mobility::compare_snapshots(net.graph, model.snapshot(range),
                                      core::CoverageMode::kTwoPointFiveHop)
              .dynamic_maintenance()));
    }
    const double conn_pct =
        100.0 * static_cast<double>(connected) / static_cast<double>(reps);
    table.row({TextTable::num(range, 1), TextTable::num(conn_pct, 0) + "%",
               connected ? TextTable::num(clusters.mean(), 1) : "-",
               connected ? TextTable::num(backbone.mean(), 1) : "-",
               connected ? TextTable::num(fwd.mean(), 1) : "-",
               connected ? TextTable::num(churn.mean(), 1) : "-"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nPick the smallest range with acceptable connectivity — the "
            "backbone absorbs the extra density of larger ranges.");
  return 0;
}
