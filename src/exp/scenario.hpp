// The paper's simulation environment (§4):
//   * 100 x 100 confined working space, uniform random placement;
//   * identical transmission ranges, bidirectional links;
//   * fixed average node degree d ∈ {6, 18} (common / highly dense);
//   * n ranging 20..100; disconnected topologies discarded;
//   * replications until the 99% CI is within ±5%.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "geom/unit_disk.hpp"
#include "stats/replicator.hpp"

namespace manet::exp {

/// One x-axis point of a paper figure.
struct ScenarioPoint {
  std::size_t nodes;
  double degree;
};

/// The full grid of the paper's evaluation.
struct PaperScenario {
  std::vector<std::size_t> sizes{20, 30, 40, 50, 60, 70, 80, 90, 100};
  std::vector<double> degrees{6.0, 18.0};
  double width = 100.0;
  double height = 100.0;

  std::vector<ScenarioPoint> points() const;
};

/// Generates the topology of one replication, deterministically from
/// (base_seed, replication, point). Throws std::runtime_error if a
/// connected topology cannot be found (pathological configuration).
geom::UnitDiskNetwork make_network(const PaperScenario& scenario,
                                   const ScenarioPoint& point,
                                   std::uint64_t base_seed,
                                   std::size_t replication);

/// Replication policy used by the benches: the paper's stopping rule with
/// a cap that keeps a full figure regeneration in the minutes range.
/// `threads` > 1 evaluates replications on a worker pool (deterministic:
/// results are bitwise identical to threads = 1; see stats::replicate).
/// threads = 0 resolves to the hardware concurrency, at most kMaxLanes.
stats::ReplicationPolicy bench_policy(std::size_t threads = 1);

}  // namespace manet::exp
