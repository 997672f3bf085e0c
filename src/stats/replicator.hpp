// Replication controller implementing the paper's stopping rule:
// "We repeat the simulation until the 99% confidence interval of the
//  result is within +-5%."
//
// A Replicator runs a sample-producing callback until every tracked metric
// meets the CI target (or the replication cap is hit, so a pathological
// scenario cannot hang a bench).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/running.hpp"

namespace manet::stats {

/// Stopping-rule settings. Defaults mirror the paper.
struct ReplicationPolicy {
  double confidence = 0.99;       ///< CI confidence level
  double relative_halfwidth = 0.05;  ///< target CI half-width / mean
  std::size_t min_replications = 25;
  std::size_t max_replications = 4000;
  /// Worker threads evaluating sample callbacks. 1 (or 0) = run
  /// sequentially on the caller's thread. With threads > 1 the callback
  /// must be safe to invoke concurrently for distinct replication indices
  /// (each replication deriving its own Rng stream from the index, as the
  /// exp module does); samples are still reduced in replication order, so
  /// results are bitwise identical to the sequential path. At most
  /// kMaxLanes (common/lanes.hpp).
  std::size_t threads = 1;
};

/// Result of one replicated experiment: per-metric statistics.
struct ReplicationResult {
  std::vector<RunningStats> metrics;
  std::size_t replications = 0;
  bool converged = false;  ///< all metrics met the CI target before the cap
};

/// Runs `sample` (which appends one value per metric to its output
/// argument, in a fixed order) until the policy is satisfied for every
/// metric. The callback receives the replication index so it can derive
/// per-replication seeds.
///
/// Determinism contract: for a callback that is a pure function of the
/// replication index, the returned ReplicationResult is bitwise identical
/// for every policy.threads value. Parallel workers only *evaluate*
/// callbacks (in batches of `threads` consecutive indices); accumulation
/// and the stopping-rule check happen on the caller's thread in strict
/// replication order, and batch samples beyond the stopping point are
/// discarded exactly as if they had never run.
ReplicationResult replicate(
    const ReplicationPolicy& policy, std::size_t metric_count,
    const std::function<void(std::size_t replication,
                             std::vector<double>& out)>& sample);

}  // namespace manet::stats
