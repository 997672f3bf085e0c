// Broadcasting in the cluster-based SD-CDS backbone (paper §3,
// Theorem 2).
//
// The dynamic backbone keeps the fixed clusterheads but selects gateways
// *per broadcast*, while the packet traverses the network:
//
//  1. A non-clusterhead source hands the packet to its clusterhead (its
//     transmission reaches all neighbors and counts as a forward).
//  2. A clusterhead processing the packet for the first time prunes its
//     coverage set with the information riding on the packet — the
//     upstream head's coverage set C(u) and the upstream head u itself,
//     plus (relay exclusion) the clusterhead neighbors of the relay it
//     heard the packet from, which provably also received that
//     transmission (the paper's "C(v) - C(u) - {u} - N(r)" rule) — then
//     runs the greedy selection on what remains and locally broadcasts
//     the packet carrying its own coverage set and forward-node set.
//     Every clusterhead transmits exactly once (it must reach its own
//     members even when nothing remains to cover).
//  3. A non-clusterhead relays (once) when a packet it receives names it
//     in the forward-node set.
//
// The forward-node set of the broadcast — the paper's Figure 7/8 metric —
// is the set of nodes that transmitted.
//
// It reads the backbone through the view of core/state_hash.hpp, so a
// StaticBackbone and a maintained engine's live view() broadcast alike.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/assert.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"
#include "graph/graph.hpp"

namespace manet::core {

/// Pruning knobs (both on = the paper's algorithm; ablations switch them
/// off to measure what each rule buys).
struct DynamicBroadcastOptions {
  /// Exclude the upstream head and its piggybacked coverage set.
  bool piggyback_pruning = true;
  /// Exclude clusterhead neighbors of the delivering relay (the paper's
  /// N(r) term; generalized to every relay hop, see DESIGN.md).
  bool relay_exclusion = true;
};

/// One transmission in the broadcast trace (16 B, no heap block). The
/// forward set F(origin) riding on the packet is not copied into it: it
/// lives once in BroadcastResult::forward_sets, and every relay of an
/// origin names the same range as that origin head's own transmission.
struct Transmission {
  NodeId sender;
  NodeId origin_head;           ///< head whose selection this packet carries
                                ///< (kInvalidNode for a non-head source's
                                ///< handoff, whose forward set is empty)
  std::uint32_t forward_begin;  ///< F(origin) = forward_sets[begin, +size)
  std::uint32_t forward_size;
};

/// Result of one dynamic broadcast.
struct BroadcastResult {
  NodeSet forward_nodes;           ///< nodes that transmitted
  std::vector<char> received;      ///< per-node delivery flag
  std::vector<Transmission> trace; ///< transmissions in simulation order
  /// Every processed head's forward set F(h), sorted, stored end to end
  /// in head-processing order; transmissions index into it.
  NodeSet forward_sets;
  bool delivered_all = false;
  /// Relay hops at which each node received its first copy (0 for the
  /// source; max value = never reached).
  std::vector<std::uint32_t> first_copy_hops;

  std::size_t forward_count() const { return forward_nodes.size(); }
  /// F(origin) riding on `t`; valid while this result lives unmodified.
  std::span<const NodeId> forward_set(const Transmission& t) const {
    return std::span<const NodeId>(forward_sets)
        .subspan(t.forward_begin, t.forward_size);
  }
  /// Largest first-copy hop count among reached nodes.
  std::uint32_t latency_hops() const;
};

/// The one-line alias perfbench/runner.cpp still names; it goes at the
/// next change to the benchmark.
using DynamicBackbone = StaticBackbone;

namespace detail {

/// Per-broadcast mutable state, and the greedy's kernel view
/// (table_kernels.hpp) over `g` and the backbone. The per-node arrays are
/// sized once per call, so a broadcast costs O(n) to set up plus its
/// transmissions times their degree, plus each head's selection. Nothing
/// is allocated per relay: a relay's trace entry names its origin's
/// stored forward set.
template <class Adj, class View>
struct BroadcastSession {
  const Adj& g;
  const View& bb;
  const cluster::Clustering& clustering;
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

  BroadcastSession(const Adj& graph, const View& backbone,
                   const DynamicBroadcastOptions& opts)
      : g(graph),
        bb(backbone),
        clustering(backbone.clustering()),
        options(opts) {
    result.received.assign(g.order(), 0);
    result.first_copy_hops.assign(g.order(),
                                  std::numeric_limits<std::uint32_t>::max());
    head_processed.assign(g.order(), 0);
    sent.assign(g.order(), 0);
    pruned_by.assign(g.order(), kInvalidNode);
  }

  std::span<const NodeId> neighbors(NodeId v) const { return g.neighbors(v); }
  bool has_edge(NodeId u, NodeId w) const { return g.has_edge(u, w); }
  bool is_head(NodeId x) const { return clustering.is_head(x); }
  NodeId head_of(NodeId x) const { return clustering.head_of[x]; }
  std::span<const NodeId> hop1(NodeId x) const { return bb.hop1(x); }
  std::span<const Hop2Entry> hop2(NodeId x) const { return bb.hop2(x); }

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
      prune(bb.coverage_two_hop(upstream));
      prune(bb.coverage_three_hop(upstream));
      pruned_by[upstream] = h;
    }
    if (options.relay_exclusion && relay != kInvalidNode &&
        !clustering.is_head(relay)) {
      // Heads adjacent to the relay heard its transmission too.
      prune(bb.hop1(relay));
    }
    const auto keep = [&](std::span<const NodeId> targets, NodeSet& out) {
      out.clear();
      for (NodeId v : targets)
        if (pruned_by[v] != h) out.push_back(v);
    };
    keep(bb.coverage_two_hop(h), remaining.two_hop);
    keep(bb.coverage_three_hop(h), remaining.three_hop);

    // F(h) lands straight in its stored place, after every earlier head's.
    NodeSet& stored = result.forward_sets;
    const std::size_t begin = stored.size();
    select_gateways_local(*this, h, remaining, scratch, stored);
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
      if (clustering.is_head(nb)) {  // gateways are never heads
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
    if (clustering.is_head(source)) {
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

}  // namespace detail

/// Simulates one broadcast from `source` over adjacency `g`
/// (graph::Graph or graph::DynamicAdjacency) and a backbone view of the
/// same network. Throws std::invalid_argument when `source` or the view's
/// clustering does not fit `g`.
template <class Adj, class View>
BroadcastResult dynamic_broadcast(const Adj& g, const View& backbone,
                                  NodeId source,
                                  const DynamicBroadcastOptions& options = {}) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  MANET_REQUIRE(backbone.clustering().head_of.size() == g.order(),
                "backbone does not match graph");
  detail::BroadcastSession<Adj, View> session(g, backbone, options);
  session.run(source);
  return std::move(session.result);  // a member: no implicit move
}

/// The same broadcast over a StaticBackbone of `g`, whose coverage and
/// tables must also be sized to `g`.
BroadcastResult dynamic_broadcast(const graph::Graph& g,
                                  const StaticBackbone& backbone,
                                  NodeId source,
                                  const DynamicBroadcastOptions& options = {});

}  // namespace manet::core
