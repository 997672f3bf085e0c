#include "stats/replicator.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/lanes.hpp"

namespace manet::stats {
namespace {

/// One evaluated replication: the sample vector or the exception the
/// callback threw (rethrown on the caller's thread in replication order,
/// so parallel error behavior matches sequential).
struct Slot {
  std::vector<double> values;
  std::exception_ptr error;
};

/// Adds one replication's samples and evaluates the stopping rule.
/// Returns true when the experiment has converged.
bool reduce_one(const ReplicationPolicy& policy, std::size_t metric_count,
                std::size_t rep, const std::vector<double>& values,
                ReplicationResult& result) {
  MANET_REQUIRE(values.size() == metric_count,
                "sample callback produced wrong metric arity");
  for (std::size_t m = 0; m < metric_count; ++m)
    result.metrics[m].add(values[m]);
  result.replications = rep + 1;

  if (result.replications < policy.min_replications) return false;
  for (const auto& stat : result.metrics)
    if (stat.relative_halfwidth(policy.confidence) >
        policy.relative_halfwidth)
      return false;
  result.converged = true;
  return true;
}

/// Parallel path: workers evaluate one batch of `threads` consecutive
/// replication indices; the caller's thread then reduces the batch in
/// index order and applies the stopping rule exactly as the sequential
/// path would, discarding any slack samples past the stopping point. The
/// per-batch thread spawn is noise next to a sample callback that
/// generates a topology and builds a backbone.
ReplicationResult replicate_parallel(
    const ReplicationPolicy& policy, std::size_t metric_count,
    const std::function<void(std::size_t, std::vector<double>&)>& sample) {
  ReplicationResult result;
  result.metrics.resize(metric_count);

  std::vector<Slot> slots;
  for (std::size_t base = 0;
       base < policy.max_replications && !result.converged;
       base += slots.size()) {
    slots.assign(std::min(policy.threads, policy.max_replications - base),
                 Slot{});
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(slots.size());
    for (std::size_t t = 0; t < slots.size(); ++t)
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= slots.size()) return;
          try {
            sample(base + i, slots[i].values);
          } catch (...) {
            slots[i].error = std::current_exception();
          }
        }
      });
    for (auto& w : workers) w.join();

    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].error) std::rethrow_exception(slots[i].error);
      if (reduce_one(policy, metric_count, base + i, slots[i].values,
                     result))
        break;  // later slots in the batch are discarded
    }
  }
  return result;
}

}  // namespace

ReplicationResult replicate(
    const ReplicationPolicy& policy, std::size_t metric_count,
    const std::function<void(std::size_t, std::vector<double>&)>& sample) {
  MANET_REQUIRE(metric_count > 0, "at least one metric is required");
  MANET_REQUIRE(policy.min_replications >= 2,
                "need >= 2 replications for a confidence interval");
  MANET_REQUIRE(policy.min_replications <= policy.max_replications,
                "min_replications must not exceed max_replications");
  MANET_REQUIRE(policy.threads <= kMaxLanes,
                "replication thread count out of range");

  if (policy.threads > 1)
    return replicate_parallel(policy, metric_count, sample);

  ReplicationResult result;
  result.metrics.resize(metric_count);
  std::vector<double> values;
  values.reserve(metric_count);

  for (std::size_t rep = 0; rep < policy.max_replications; ++rep) {
    values.clear();
    sample(rep, values);
    if (reduce_one(policy, metric_count, rep, values, result)) break;
  }
  return result;
}

}  // namespace manet::stats
