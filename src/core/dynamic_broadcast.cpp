#include "core/dynamic_broadcast.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "core/table_kernels.hpp"

namespace manet::core {
namespace {

/// Per-broadcast mutable state. The per-node arrays are sized once per
/// call, so a broadcast costs O(n) to set up plus its transmissions times
/// their degree, plus each head's selection. Nothing is allocated per
/// relay: a relay's trace entry names its origin's stored forward set.
struct Session {
  const graph::Graph& g;
  const DynamicBackbone& bb;
  const DynamicBroadcastOptions& options;
  BroadcastResult result;
  /// Relay dedup, one flag per (origin head, forward node) pair, parallel
  /// to result.forward_sets. A node relays at most once per origin:
  /// refusing the second origin outright could strand that origin's
  /// second-hop relays (they learn their forward-node role only from the
  /// first hop's relay), while relaying per-origin keeps the total
  /// transmission count linear and delivery airtight. The forward-node
  /// *set* — the paper's metric — still counts a node once. Only relays
  /// consult it: heads and the source's handoff transmit exactly once by
  /// construction.
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
    head_processed.assign(g.order(), 0);
    sent.assign(g.order(), 0);
    pruned_by.assign(g.order(), kInvalidNode);
  }

  /// Queues a transmission. result.trace doubles as the FIFO: run()
  /// simulates the entries in the order they are appended here.
  void transmit(const Transmission& t) {
    result.received[t.sender] = 1;  // the sender trivially holds the packet
    sent[t.sender] = 1;
    result.trace.push_back(t);
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

    // F(h) lands straight in its stored place, after every earlier head's.
    NodeSet& stored = result.forward_sets;
    const std::size_t begin = stored.size();
    select_gateways_local(TablesView<graph::Graph>{g, bb.clustering, bb.tables},
                          h, remaining, scratch, stored);
    MANET_REQUIRE(stored.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "forward sets exceed 2^32 entries");
    relayed.resize(stored.size(), 0);
    // Every head locally broadcasts once, even with an empty forward set,
    // to reach its own cluster members.
    transmit({h, h, static_cast<std::uint32_t>(begin),
              static_cast<std::uint32_t>(stored.size() - begin)});
  }

  /// Delivers transmission `t` to every neighbor of its sender. Heads
  /// process the packet; the other neighbors relay (once per origin) when
  /// F(origin) names them. Neighbor rows and forward sets are both
  /// sorted, so one cursor walks F(origin) alongside the row. `t` is a
  /// copy and F(origin) is read by index: head processing appends to the
  /// trace and to forward_sets, and either may reallocate.
  void deliver(const Transmission t) {
    std::size_t k = t.forward_begin;
    const std::size_t end = k + t.forward_size;
    const NodeSet& stored = result.forward_sets;
    for (NodeId nb : g.neighbors(t.sender)) {
      if (!result.received[nb])
        result.first_copy_hops[nb] = result.first_copy_hops[t.sender] + 1;
      result.received[nb] = 1;
      if (bb.clustering.is_head(nb)) {  // gateways are never heads
        head_process(nb, t.sender, t.origin_head);
        continue;
      }
      while (k < end && stored[k] < nb) ++k;
      if (k == end || stored[k] != nb || relayed[k]) continue;
      relayed[k] = 1;
      // Relays carry the forward set and origin metadata unchanged.
      transmit({nb, t.origin_head, t.forward_begin, t.forward_size});
    }
  }

  void run(NodeId source) {
    result.first_copy_hops[source] = 0;
    if (bb.clustering.is_head(source)) {
      head_process(source, kInvalidNode, kInvalidNode);
    } else {
      // Step 1: the source hands the packet to its clusterhead. The
      // transmission physically reaches every neighbor.
      transmit({source, kInvalidNode, 0, 0});
    }
    for (std::size_t i = 0; i < result.trace.size(); ++i)
      deliver(result.trace[i]);
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
  MANET_REQUIRE(backbone.clustering.head_of.size() == g.order() &&
                    backbone.coverage.size() == g.order() &&
                    backbone.tables.ch_hop1.size() == g.order() &&
                    backbone.tables.ch_hop2.size() == g.order(),
                "backbone does not match graph");
  Session session(g, backbone, options);
  session.run(source);
  return std::move(session.result);  // a member: no implicit move
}

}  // namespace manet::core
