#include "broadcast/lossy.hpp"

#include <deque>

#include "common/assert.hpp"

namespace manet::broadcast {
namespace {

/// Shared lossy relay loop: `relays(v, from_mpr_selector)` decides whether
/// a first-copy receiver becomes a transmitter.
template <typename RelayPredicate>
BroadcastStats run_lossy(const graph::Graph& g, NodeId source,
                         const LossModel& model, Rng& rng,
                         RelayPredicate relays) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  MANET_REQUIRE(model.loss >= 0.0 && model.loss < 1.0,
                "loss probability must be in [0, 1)");
  BroadcastStats stats;
  stats.received.assign(g.order(), 0);
  stats.first_copy_hops.assign(g.order(), kUnreachableHops);
  std::vector<char> transmitted(g.order(), 0);
  std::deque<NodeId> queue{source};
  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  transmitted[source] = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    stats.forward_nodes.push_back(v);
    ++stats.transmissions;
    for (NodeId w : g.neighbors(v)) {
      if (rng.chance(model.loss)) continue;  // delivery failed
      const bool first_copy = !stats.received[w];
      if (first_copy)
        stats.first_copy_hops[w] = stats.first_copy_hops[v] + 1;
      stats.received[w] = 1;
      if (first_copy && !transmitted[w] && relays(v, w)) {
        transmitted[w] = 1;
        queue.push_back(w);
      }
    }
  }
  normalize(stats.forward_nodes);
  finalize(stats, "lossy");
  return stats;
}

}  // namespace

BroadcastStats flood_lossy(const graph::Graph& g, NodeId source,
                           const LossModel& model, Rng& rng) {
  return run_lossy(g, source, model, rng,
                   [](NodeId, NodeId) { return true; });
}

BroadcastStats si_cds_broadcast_lossy(const graph::Graph& g,
                                      const NodeSet& cds, NodeId source,
                                      const LossModel& model, Rng& rng) {
  return run_lossy(g, source, model, rng, [&](NodeId, NodeId w) {
    return contains_sorted(cds, w);
  });
}

BroadcastStats mpr_broadcast_lossy(const graph::Graph& g,
                                   const std::vector<NodeSet>& mpr,
                                   NodeId source, const LossModel& model,
                                   Rng& rng) {
  MANET_REQUIRE(mpr.size() == g.order(), "mpr table does not match graph");
  return run_lossy(g, source, model, rng, [&](NodeId sender, NodeId w) {
    return contains_sorted(mpr[sender], w);
  });
}

}  // namespace manet::broadcast
