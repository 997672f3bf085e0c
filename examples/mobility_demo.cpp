// Mobility demo — watch the backbone breathe as nodes move.
//
// Runs both mobility models (random waypoint and random direction) over
// the same initial deployment and prints, per time step, the link churn,
// cluster changes, backbone repair cost and one dynamic broadcast's
// forward count. The punchline is the paper's conclusion: the static
// backbone's standing state churns ~2x what the dynamic backbone needs.
//
// Run:  ./mobility_demo [--nodes=50] [--degree=8] [--speed=2.0]
//                       [--steps=12] [--seed=9] [--model=waypoint|direction]
#include <cstdio>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/dynamic_broadcast.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "mobility/maintenance.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/waypoint.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto n = flags.get_count("nodes", 50);
  const double d = flags.get_double("degree", 8.0);
  const double speed = flags.get_double("speed", 2.0);
  const auto steps = flags.get_count("steps", 12);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 9));
  const auto model_name = flags.get("model", "waypoint");

  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  if (!net) {
    std::puts("could not generate a connected topology — raise --degree");
    return 1;
  }
  std::printf("%zu nodes, range %.1f, model %s, speed ~%.1f\n\n", n,
              cfg.range, model_name.c_str(), speed);

  // Either mobility model behind one stepping closure.
  mobility::WaypointConfig wcfg;
  wcfg.min_speed = speed * 0.5;
  wcfg.max_speed = speed;
  mobility::RandomDirectionConfig rcfg;
  rcfg.min_speed = speed * 0.5;
  rcfg.max_speed = speed;
  mobility::WaypointModel waypoint(net->positions, wcfg, Rng(seed + 1));
  mobility::RandomDirectionModel direction(net->positions, rcfg,
                                           Rng(seed + 1));
  const bool use_waypoint = model_name != "direction";

  TextTable table({"t", "links +/-", "head chg", "static cost",
                   "dynamic cost", "connected", "SD forward"});
  auto prev = net->graph;
  for (std::size_t t = 1; t <= steps; ++t) {
    graph::Graph cur;
    if (use_waypoint) {
      waypoint.step(1.0);
      cur = waypoint.snapshot(cfg.range);
    } else {
      direction.step(1.0);
      cur = direction.snapshot(cfg.range);
    }
    const auto delta = mobility::compare_snapshots(
        prev, cur, core::CoverageMode::kTwoPointFiveHop);
    const bool connected = graph::is_connected(cur);
    std::string forward = "-";
    if (connected) {
      const auto bb = core::build_static_backbone(
          cur, core::CoverageMode::kTwoPointFiveHop);
      forward = std::to_string(
          core::dynamic_broadcast(cur, bb, 0).forward_count());
    }
    table.row({std::to_string(t), std::to_string(delta.link_changes),
               std::to_string(delta.head_changes),
               std::to_string(delta.static_maintenance()),
               std::to_string(delta.dynamic_maintenance()),
               connected ? "yes" : "no", forward});
    prev = cur;
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nstatic cost = clusters + gateway selections to repair;\n"
            "dynamic cost = clusters only (gateways are re-derived per "
            "broadcast).");
  return 0;
}
