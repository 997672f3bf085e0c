#include "exp/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/assert.hpp"
#include "common/lanes.hpp"

namespace manet::exp {

std::vector<ScenarioPoint> PaperScenario::points() const {
  std::vector<ScenarioPoint> out;
  out.reserve(sizes.size() * degrees.size());
  for (double d : degrees)
    for (std::size_t n : sizes) out.push_back({n, d});
  return out;
}

geom::UnitDiskNetwork make_network(const PaperScenario& scenario,
                                   const ScenarioPoint& point,
                                   std::uint64_t base_seed,
                                   std::size_t replication) {
  // Stream tag folds in the scenario point so every (n, d) series draws
  // independent topologies.
  const std::uint64_t stream =
      point.nodes * 1000 + static_cast<std::uint64_t>(point.degree);
  Rng rng(derive_seed(base_seed, replication, stream));
  geom::UnitDiskConfig cfg;
  cfg.width = scenario.width;
  cfg.height = scenario.height;
  cfg.nodes = point.nodes;
  cfg.range = geom::range_for_average_degree(point.degree, point.nodes,
                                             cfg.width, cfg.height);
  auto net = geom::generate_connected_unit_disk(cfg, rng);
  if (!net.has_value())
    throw std::runtime_error("could not generate a connected topology");
  return std::move(*net);
}

stats::ReplicationPolicy bench_policy(std::size_t threads) {
  stats::ReplicationPolicy policy;  // 99% CI within +-5%, as in the paper
  policy.min_replications = 30;
  policy.max_replications = 800;
  if (threads == 0)
    threads = std::min<std::size_t>(kMaxLanes,
                                    std::thread::hardware_concurrency());
  policy.threads = std::max<std::size_t>(1, threads);
  return policy;
}

}  // namespace manet::exp
