#include "broadcast/si_cds.hpp"

#include "common/assert.hpp"

namespace manet::broadcast {

BroadcastStats si_cds_broadcast(const graph::Graph& g, const NodeSet& cds,
                                NodeId source) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  BroadcastStats stats;
  stats.received.assign(g.order(), 0);
  stats.first_copy_hops.assign(g.order(), kUnreachableHops);
  std::vector<char> in_cds(g.order(), 0);
  for (NodeId v : cds)
    if (v < g.order()) in_cds[v] = 1;
  // FIFO of transmitters: the source, then each CDS member on its first
  // copy (so at most once), transmitting in queue order.
  NodeSet queue{source};
  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  for (std::size_t next = 0; next < queue.size(); ++next) {
    const NodeId v = queue[next];
    for (NodeId w : g.neighbors(v)) {
      if (stats.received[w]) continue;
      stats.received[w] = 1;
      stats.first_copy_hops[w] = stats.first_copy_hops[v] + 1;
      if (in_cds[w]) queue.push_back(w);
    }
  }
  stats.transmissions = queue.size();
  // The transmitters are the source and every reached CDS member: gather
  // them in ascending id from the flags instead of sorting the queue.
  for (NodeId v = 0; v < g.order(); ++v)
    if (v == source || (in_cds[v] && stats.received[v]))
      stats.forward_nodes.push_back(v);
  finalize(stats, "si_cds");
  return stats;
}

}  // namespace manet::broadcast
