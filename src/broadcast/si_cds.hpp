// Broadcasting over a source-independent CDS (paper §3, "Broadcasting in
// a Cluster-Based SI-CDS Backbone"):
//   1. the source sends to all its neighbors;
//   2. a backbone node relays the first copy it receives;
//   3. everyone else stays silent.
// Works with any CDS — the static backbone, MO_CDS, or an exact MCDS.
#pragma once

#include <vector>

#include "broadcast/stats.hpp"
#include "common/assert.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Simulates a broadcast from `source` where exactly the nodes of `cds`
/// (sorted-unique) relay. The source transmits regardless of membership.
/// `Adj` is graph::Graph or graph::DynamicAdjacency (a maintained
/// engine's live adjacency, with `cds` from its view).
template <class Adj>
BroadcastStats si_cds_broadcast(const Adj& g, const NodeSet& cds,
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
