#include "broadcast/flooding.hpp"

#include <deque>

#include "common/assert.hpp"

namespace manet::broadcast {

BroadcastStats flood(const graph::Graph& g, NodeId source) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  BroadcastStats stats;
  stats.received.assign(g.order(), 0);
  stats.first_copy_hops.assign(g.order(), kUnreachableHops);
  std::deque<NodeId> queue{source};
  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  std::vector<char> transmitted(g.order(), 0);
  transmitted[source] = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    stats.forward_nodes.push_back(v);
    ++stats.transmissions;
    for (NodeId w : g.neighbors(v)) {
      if (!stats.received[w])
        stats.first_copy_hops[w] = stats.first_copy_hops[v] + 1;
      stats.received[w] = 1;
      if (!transmitted[w]) {
        transmitted[w] = 1;
        queue.push_back(w);
      }
    }
  }
  normalize(stats.forward_nodes);
  finalize(stats, "flooding");
  return stats;
}

}  // namespace manet::broadcast
