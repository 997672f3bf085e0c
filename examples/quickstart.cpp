// Quickstart — the 60-second tour of the public API:
//   1. generate a random connected MANET topology (unit-disk graph);
//   2. cluster it with lowest-ID and build the static SI-CDS backbone;
//   3. broadcast once over the static backbone, once over the dynamic
//      SD-CDS backbone, and compare the forward-node sets.
//
// Run:  ./quickstart [--nodes=50] [--degree=6] [--seed=7] [--mode=2.5|3]
#include <cstdio>

#include "broadcast/si_cds.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto n = flags.get_count("nodes", 50);
  const double d = flags.get_double("degree", 6.0);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));
  const auto mode = flags.get("mode", "2.5") == "3"
                        ? core::CoverageMode::kThreeHop
                        : core::CoverageMode::kTwoPointFiveHop;

  // 1. Topology: n nodes in the paper's 100x100 working space, range
  //    calibrated for the requested average degree, connected or retry.
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  if (!net) {
    std::puts("could not generate a connected topology — raise --degree");
    return 1;
  }
  std::printf("topology: %zu nodes, %zu links, avg degree %.2f, range %.2f\n",
              net->graph.order(), net->graph.edge_count(),
              net->graph.average_degree(), cfg.range);

  // 2. Static backbone: clusterheads + source-independent gateways.
  const auto backbone = core::build_static_backbone(net->graph, mode);
  std::printf("clusters: %zu heads; static %s backbone (SI-CDS): %zu nodes\n",
              backbone.clustering.heads.size(), core::to_string(mode),
              backbone.cds.size());

  // 3. One broadcast each way, from node 0, over the same backbone.
  const auto si = broadcast::si_cds_broadcast(net->graph, backbone.cds, 0);
  const auto sd = core::dynamic_broadcast(net->graph, backbone, 0);

  std::printf("broadcast from node 0:\n");
  std::printf("  static  SI-CDS : %3zu forward nodes, delivery %s\n",
              si.forward_count(), si.delivered_all ? "100%" : "INCOMPLETE");
  std::printf("  dynamic SD-CDS : %3zu forward nodes, delivery %s\n",
              sd.forward_count(),
              sd.delivered_all ? "100%" : "INCOMPLETE");
  std::printf("  blind flooding would use %zu forward nodes\n",
              net->graph.order());
  return 0;
}
