#include "broadcast/dominant_pruning.hpp"

#include <deque>

#include "common/assert.hpp"

namespace manet::broadcast {
namespace {

/// Closed neighborhood N[v] as a sorted set.
NodeSet closed_neighborhood(const graph::Graph& g, NodeId v) {
  const auto nb = g.neighbors(v);
  NodeSet out(nb.begin(), nb.end());
  insert_sorted(out, v);
  return out;
}

/// Greedy max-cover: pick nodes from `candidates` until `targets` is
/// covered or no candidate helps; returns the forward list.
NodeSet greedy_cover(const graph::Graph& g, const NodeSet& candidates,
                     NodeSet targets) {
  NodeSet forward;
  while (!targets.empty()) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId w : candidates) {
      if (contains_sorted(forward, w)) continue;
      NodeSet nw = closed_neighborhood(g, w);
      const std::size_t gain = intersection_size(nw, targets);
      if (gain > best_gain) {  // ties: first (smallest id) wins
        best_gain = gain;
        best = w;
      }
    }
    if (best == kInvalidNode) break;  // leftovers are upstream's duty
    insert_sorted(forward, best);
    targets = set_difference(targets, closed_neighborhood(g, best));
  }
  return forward;
}

struct Packet {
  NodeId sender;
  NodeSet forward_list;
};

}  // namespace

BroadcastStats dominant_pruning_broadcast(const graph::Graph& g,
                                          NodeId source, PruningRule rule) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  BroadcastStats stats;
  stats.received.assign(g.order(), 0);
  stats.first_copy_hops.assign(g.order(), kUnreachableHops);
  std::vector<char> acted(g.order(), 0);  // processed its first copy
  std::deque<Packet> queue;

  auto select_and_send = [&](NodeId v, NodeId upstream) {
    // Upstream's closed neighborhood: empty exclusion for the source.
    NodeSet n_u;
    if (upstream != kInvalidNode) n_u = closed_neighborhood(g, upstream);
    const NodeSet n_v = closed_neighborhood(g, v);

    // Two-hop targets.
    NodeSet targets;
    for (NodeId x : g.neighbors(v))
      for (NodeId y : g.neighbors(x)) insert_sorted(targets, y);
    targets = set_difference(targets, n_u);
    targets = set_difference(targets, n_v);
    if (rule == PruningRule::kPartialDominant && upstream != kInvalidNode) {
      // N(N(u) ∩ N(v)): neighbors of the common neighbors.
      const NodeSet common = set_intersection(
          NodeSet(g.neighbors(upstream).begin(), g.neighbors(upstream).end()),
          NodeSet(g.neighbors(v).begin(), g.neighbors(v).end()));
      NodeSet extra;
      for (NodeId w : common)
        for (NodeId y : g.neighbors(w)) insert_sorted(extra, y);
      targets = set_difference(targets, extra);
    }

    // Candidate relays: v's neighbors outside N[u].
    NodeSet candidates(g.neighbors(v).begin(), g.neighbors(v).end());
    candidates = set_difference(candidates, n_u);

    Packet p;
    p.sender = v;
    p.forward_list = greedy_cover(g, candidates, std::move(targets));
    stats.forward_nodes.push_back(v);
    ++stats.transmissions;
    queue.push_back(std::move(p));
  };

  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  acted[source] = 1;
  select_and_send(source, kInvalidNode);

  while (!queue.empty()) {
    const Packet p = std::move(queue.front());
    queue.pop_front();
    for (NodeId w : g.neighbors(p.sender)) {
      if (!stats.received[w])
        stats.first_copy_hops[w] = stats.first_copy_hops[p.sender] + 1;
      stats.received[w] = 1;
      // A named node relays once, on the first packet that names it —
      // even if an unnamed copy arrived earlier (otherwise the selector's
      // coverage obligation would silently break).
      if (!acted[w] && contains_sorted(p.forward_list, w)) {
        acted[w] = 1;
        select_and_send(w, p.sender);
      }
    }
  }
  normalize(stats.forward_nodes);
  finalize(stats, "dominant_pruning");
  return stats;
}

}  // namespace manet::broadcast
