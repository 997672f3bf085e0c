// Extension bench — the maintenance-cost argument of the paper's
// conclusions: "maintaining a static backbone at all times for
// broadcasting is costly and unnecessary. Therefore, building a dynamic
// backbone on-demand is a better choice."
//
// Nodes move under random waypoint; after every time step we diff the
// structures. The static backbone must repair clustering + coverage +
// gateway selections (static column); the dynamic backbone only repairs
// clustering + coverage (dynamic column). Faster nodes widen the gap.
//
// Flags: --seed=<u64>, --steps=<int>, --nodes=<int>.
#include <cstdio>

#include "cluster/lcc.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "exp/scenario.hpp"
#include "mobility/maintenance.hpp"
#include "mobility/waypoint.hpp"
#include "stats/running.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 66));
  const auto steps = flags.get_count("steps", 30);
  const auto nodes = flags.get_count("nodes", 60);

  std::puts("manetcast :: backbone maintenance under random waypoint");
  std::puts("(per-step mean structure churn; static = heads + backbone "
            "membership + coverage, dynamic = heads + coverage)\n");

  const exp::PaperScenario scenario;
  TextTable table({"speed", "link chg", "head chg", "backbone chg",
                   "static cost", "dynamic cost", "saving", "LCC churn"});
  for (double speed : {0.5, 1.0, 2.0, 4.0}) {
    const auto net = exp::make_network(scenario, {nodes, 8.0}, seed, 0);
    mobility::WaypointConfig cfg;
    cfg.min_speed = speed * 0.5;
    cfg.max_speed = speed;
    mobility::WaypointModel model(net.positions, cfg,
                                  Rng(derive_seed(seed, 1, 7)));
    stats::RunningStats links, heads, backbone, stat_cost, dyn_cost,
        lcc_churn;
    auto prev = net.graph;
    auto lcc = cluster::lowest_id_clustering(net.graph);
    for (std::size_t step = 0; step < steps; ++step) {
      model.step(1.0);
      const auto cur = model.snapshot(net.config.range);
      const auto delta = mobility::compare_snapshots(
          prev, cur, core::CoverageMode::kTwoPointFiveHop);
      links.add(static_cast<double>(delta.link_changes));
      heads.add(static_cast<double>(delta.head_changes));
      backbone.add(static_cast<double>(delta.backbone_changes));
      stat_cost.add(static_cast<double>(delta.static_maintenance()));
      dyn_cost.add(static_cast<double>(delta.dynamic_maintenance()));
      // Incremental LCC repair instead of full re-clustering.
      cluster::LccDelta repair;
      lcc = cluster::lcc_update(cur, lcc, &repair);
      lcc_churn.add(static_cast<double>(repair.total()));
      prev = cur;
    }
    const double saving =
        stat_cost.mean() > 0
            ? 100.0 * (stat_cost.mean() - dyn_cost.mean()) / stat_cost.mean()
            : 0.0;
    table.row({TextTable::num(speed, 1), TextTable::num(links.mean(), 1),
               TextTable::num(heads.mean(), 1),
               TextTable::num(backbone.mean(), 1),
               TextTable::num(stat_cost.mean(), 1),
               TextTable::num(dyn_cost.mean(), 1),
               TextTable::num(saving, 0) + "%",
               TextTable::num(lcc_churn.mean(), 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: churn grows with speed; the dynamic backbone "
            "always repairs less state.");
  return 0;
}
