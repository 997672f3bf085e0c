#include "core/dynamic_broadcast.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace manet::core {
namespace {

/// Per-broadcast mutable state. The per-node arrays are sized once per
/// call, so a broadcast costs O(n) to set up plus its transmissions times
/// their degree, plus each head's selection.
struct Session {
  const graph::Graph& g;
  const DynamicBackbone& bb;
  const DynamicBroadcastOptions& options;
  BroadcastResult result;
  /// Relay dedup, one flag per (origin head, forward node) pair. A node
  /// relays at most once per origin: refusing the second origin outright
  /// could strand that origin's second-hop relays (they learn their
  /// forward-node role only from the first hop's relay), while relaying
  /// per-origin keeps the total transmission count linear and delivery
  /// airtight. The forward-node *set* — the paper's metric — still counts
  /// a node once. F(h) owns relayed[first_slot[h] + k] for its k-th
  /// member. Only relays consult it: heads and the source's handoff
  /// transmit exactly once by construction.
  std::vector<std::size_t> first_slot;
  std::vector<char> relayed;
  std::vector<char> head_processed;
  /// sent[v]: v transmitted at least once (the forward-node set).
  std::vector<char> sent;
  /// pruned_by[v] == h: the packet head h processed proves v covered.
  std::vector<NodeId> pruned_by;
  Coverage remaining;        ///< what the head being processed must cover
  SelectionScratch scratch;  ///< shared by every head's greedy

  Session(const graph::Graph& graph, const DynamicBackbone& backbone,
          const DynamicBroadcastOptions& opts)
      : g(graph), bb(backbone), options(opts) {
    result.received.assign(g.order(), 0);
    result.first_copy_hops.assign(g.order(),
                                  std::numeric_limits<std::uint32_t>::max());
    first_slot.assign(g.order(), 0);
    head_processed.assign(g.order(), 0);
    sent.assign(g.order(), 0);
    pruned_by.assign(g.order(), kInvalidNode);
  }

  /// Queues a transmission. result.trace doubles as the FIFO: run()
  /// simulates the entries in the order they are appended here.
  void transmit(NodeId sender, NodeId origin_head, NodeSet forward_set) {
    result.received[sender] = 1;  // the sender trivially holds the packet
    sent[sender] = 1;
    result.trace.push_back({sender, origin_head, std::move(forward_set)});
  }

  /// Clusterhead `h` processes its first copy; `relay` is the node it
  /// heard it from, and `upstream`'s coverage set rides on the packet.
  void head_process(NodeId h, NodeId relay, NodeId upstream) {
    if (head_processed[h]) return;
    head_processed[h] = 1;

    // C(h) - C(u) - {u} - N(r): mark what the packet proves covered, then
    // keep the rest of C(h) in order.
    const auto prune = [&](std::span<const NodeId> covered) {
      for (NodeId v : covered) pruned_by[v] = h;
    };
    if (options.piggyback_pruning && upstream != kInvalidNode) {
      prune(bb.coverage[upstream].two_hop);
      prune(bb.coverage[upstream].three_hop);
      pruned_by[upstream] = h;
    }
    if (options.relay_exclusion && relay != kInvalidNode &&
        !bb.clustering.is_head(relay)) {
      // Heads adjacent to the relay heard its transmission too.
      prune(bb.tables.ch_hop1[relay]);
    }
    const auto keep = [&](const NodeSet& targets, NodeSet& out) {
      out.clear();
      for (NodeId v : targets)
        if (pruned_by[v] != h) out.push_back(v);
    };
    keep(bb.coverage[h].two_hop, remaining.two_hop);
    keep(bb.coverage[h].three_hop, remaining.three_hop);

    auto sel = select_gateways(g, bb.clustering, bb.tables, h, remaining,
                               scratch);
    first_slot[h] = relayed.size();
    relayed.resize(relayed.size() + sel.gateways.size(), 0);
    // Every head locally broadcasts once, even with an empty forward set,
    // to reach its own cluster members.
    transmit(h, h, std::move(sel.gateways));
  }

  /// Delivers trace entry `i` to `receiver`. Both branches may append to
  /// the trace, so the entry is re-read by index, never held by reference
  /// across a transmit().
  void deliver(std::size_t i, NodeId receiver) {
    const NodeId sender = result.trace[i].sender;
    const NodeId origin = result.trace[i].origin_head;
    if (!result.received[receiver])
      result.first_copy_hops[receiver] = result.first_copy_hops[sender] + 1;
    result.received[receiver] = 1;
    if (bb.clustering.is_head(receiver)) {
      head_process(receiver, sender, origin);
      return;
    }
    // Forward nodes relay onward, once per origin; the forward set and
    // origin metadata are carried unchanged by relays.
    const NodeSet& forward_set = result.trace[i].forward_set;
    const auto it =
        std::lower_bound(forward_set.begin(), forward_set.end(), receiver);
    if (it == forward_set.end() || *it != receiver) return;
    char& done = relayed[first_slot[origin] +
                         static_cast<std::size_t>(it - forward_set.begin())];
    if (done) return;
    done = 1;
    NodeSet copy = forward_set;
    transmit(receiver, origin, std::move(copy));
  }

  void run(NodeId source) {
    result.first_copy_hops[source] = 0;
    if (bb.clustering.is_head(source)) {
      head_process(source, kInvalidNode, kInvalidNode);
    } else {
      // Step 1: the source hands the packet to its clusterhead. The
      // transmission physically reaches every neighbor.
      transmit(source, kInvalidNode, {});
    }
    for (std::size_t i = 0; i < result.trace.size(); ++i)
      for (NodeId nb : g.neighbors(result.trace[i].sender)) deliver(i, nb);
    // The forward-node set: every node that transmitted at least once,
    // gathered in ascending order from the per-node marks.
    for (NodeId v = 0; v < g.order(); ++v)
      if (sent[v]) result.forward_nodes.push_back(v);
    result.delivered_all =
        std::all_of(result.received.begin(), result.received.end(),
                    [](char c) { return c != 0; });
  }
};

}  // namespace

std::uint32_t BroadcastResult::latency_hops() const {
  std::uint32_t worst = 0;
  for (std::uint32_t h : first_copy_hops)
    if (h != std::numeric_limits<std::uint32_t>::max())
      worst = std::max(worst, h);
  return worst;
}

DynamicBackbone build_dynamic_backbone(const graph::Graph& g,
                                       CoverageMode mode) {
  return build_dynamic_backbone(g, cluster::lowest_id_clustering(g), mode);
}

DynamicBackbone build_dynamic_backbone(const graph::Graph& g,
                                       const cluster::Clustering& c,
                                       CoverageMode mode) {
  DynamicBackbone bb;
  bb.mode = mode;
  bb.clustering = c;
  bb.tables = build_neighbor_tables(g, bb.clustering, mode);
  bb.coverage = build_all_coverage(g, bb.clustering, bb.tables);
  return bb;
}

BroadcastResult dynamic_broadcast(const graph::Graph& g,
                                  const DynamicBackbone& backbone,
                                  NodeId source,
                                  const DynamicBroadcastOptions& options) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  MANET_REQUIRE(backbone.clustering.head_of.size() == g.order(),
                "backbone does not match graph");
  Session session(g, backbone, options);
  session.run(source);
  return std::move(session.result);  // a member: no implicit move
}

}  // namespace manet::core
