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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
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

/// Precomputed per-topology state shared by all broadcasts (the backbone
/// infrastructure a deployment would maintain: clusters + tables +
/// coverage sets — but no gateways, which are chosen per broadcast).
struct DynamicBackbone {
  CoverageMode mode;
  cluster::Clustering clustering;
  NeighborTables tables;
  std::vector<Coverage> coverage;  ///< indexed by node id
};

/// Builds the shared state.
DynamicBackbone build_dynamic_backbone(const graph::Graph& g,
                                       CoverageMode mode);

/// Builds the shared state on an existing clustering.
DynamicBackbone build_dynamic_backbone(const graph::Graph& g,
                                       const cluster::Clustering& c,
                                       CoverageMode mode);

/// Simulates one broadcast from `source`.
BroadcastResult dynamic_broadcast(const graph::Graph& g,
                                  const DynamicBackbone& backbone,
                                  NodeId source,
                                  const DynamicBroadcastOptions& options = {});

}  // namespace manet::core
