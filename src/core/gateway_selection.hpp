// The clusterhead's gateway-selection process (paper §3).
//
// Given a clusterhead u and a set of target heads (its coverage set, or —
// for the dynamic backbone — whatever remains of it after pruning), pick
// gateways that connect u to every target:
//
//  1. While 2-hop targets remain, select the neighbor that *directly
//     covers* (is adjacent to) the most remaining 2-hop targets; break
//     ties by the number of remaining 3-hop targets it *indirectly
//     covers* (via a CH_HOP2 entry), then by smallest node id. Selecting
//     v also resolves the 3-hop targets v covers indirectly, selecting
//     the corresponding via-nodes as second-hop gateways.
//  2. Any 3-hop targets left are connected with an explicit pair of
//     non-clusterheads. The paper does not fix the pair choice; we prefer
//     pairs that reuse already-selected gateways, then the
//     lexicographically smallest (first-hop, second-hop) pair — see
//     DESIGN.md "unspecified details".
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/bitset.hpp"
#include "graph/graph.hpp"

namespace manet::core {

/// Result of one clusterhead's selection process.
struct GatewaySelection {
  /// All selected nodes: first-hop gateways plus second-hop via-nodes.
  /// Sorted-unique. This is the GATEWAY message payload (static backbone)
  /// or the forward-node set F(u) (dynamic backbone).
  NodeSet gateways;

  friend bool operator==(const GatewaySelection&, const GatewaySelection&) =
      default;
};

/// Why a node ended up in the gateway set: one greedy pick.
struct SelectionStep {
  NodeId gateway;            ///< first-hop neighbor picked by the greedy
  NodeSet direct_covered;    ///< 2-hop targets v was adjacent to
  std::vector<Hop2Entry> indirect_covered;  ///< 3-hop targets + via nodes

  friend bool operator==(const SelectionStep&, const SelectionStep&) =
      default;
};

/// A phase-2 connector pair: head -> first_hop -> second_hop -> target.
struct ConnectorPair {
  NodeId target;      ///< the 3-hop head being connected
  NodeId first_hop;   ///< neighbor of the selecting head
  NodeId second_hop;  ///< neighbor of the target

  friend bool operator==(const ConnectorPair&, const ConnectorPair&) =
      default;
};

/// A selection together with its pick trace (explain_gateways; no
/// production path records it).
struct SelectionExplanation {
  GatewaySelection selection;
  /// Greedy trace, in pick order.
  std::vector<SelectionStep> steps;
  /// Pairs appended by phase 2 for leftover 3-hop targets.
  std::vector<ConnectorPair> leftover_pairs;
};

/// Reusable bitset scratch for the selection greedy, mirroring
/// CoverageScratch: remaining-target membership and the accumulating
/// gateway set live in bitsets sized to the widest id ever targeted.
/// Hot loops (the batch build over all heads, the incremental reselect
/// lanes, the protocol engine's per-lane dispatch) keep one per thread so
/// the O(universe/64)-word allocation + zero-fill happens once, not per
/// head. Every select_gateways_local call requires the scratch clean (all
/// bits reset) and returns it clean, erasing bits through the result
/// lists in O(result).
struct SelectionScratch {
  graph::NodeBitset remaining2, remaining3, gateways;
};

/// Runs the selection process for clusterhead `head` against `targets`.
/// `targets.two_hop`/`targets.three_hop` must be subsets of the head's
/// coverage set (callers pass the full coverage for the static backbone,
/// a pruned copy for the dynamic one).
GatewaySelection select_gateways(const graph::Graph& g,
                                 const cluster::Clustering& c,
                                 const NeighborTables& tables, NodeId head,
                                 const Coverage& targets);

/// Same, reusing the caller's scratch across a loop over heads.
GatewaySelection select_gateways(const graph::Graph& g,
                                 const cluster::Clustering& c,
                                 const NeighborTables& tables, NodeId head,
                                 const Coverage& targets,
                                 SelectionScratch& scratch);

/// Same selection plus the greedy's pick trace, from the same kernel.
SelectionExplanation explain_gateways(const graph::Graph& g,
                                      const cluster::Clustering& c,
                                      const NeighborTables& tables,
                                      NodeId head, const Coverage& targets);

/// Read-only view of the information a clusterhead actually possesses
/// when it selects: its neighbor list and the CH_HOP1/CH_HOP2 messages
/// those neighbors sent. Every engine (batch, incremental, protocol,
/// message-level) runs the greedy through this interface so the
/// selection logic exists exactly once. Returned spans must stay valid
/// for the duration of the selection call.
class LocalSelectionView {
 public:
  virtual ~LocalSelectionView() = default;
  /// Sorted neighbor ids of the selecting head.
  virtual std::span<const NodeId> neighbors() const = 0;
  /// CH_HOP1 payload received from neighbor `v`.
  virtual std::span<const NodeId> hop1(NodeId v) const = 0;
  /// CH_HOP2 payload received from neighbor `v` (sorted by (head, via)).
  virtual std::span<const Hop2Entry> hop2(NodeId v) const = 0;
};

/// LocalSelectionView over a head's adjacency row and the shared
/// NeighborTables (batch build, SD-CDS, incremental repair).
class TablesSelectionView final : public LocalSelectionView {
 public:
  TablesSelectionView(std::span<const NodeId> neighbors,
                      const NeighborTables& tables)
      : neighbors_(neighbors), tables_(tables) {}
  std::span<const NodeId> neighbors() const override { return neighbors_; }
  std::span<const NodeId> hop1(NodeId v) const override {
    return tables_.ch_hop1[v];
  }
  std::span<const Hop2Entry> hop2(NodeId v) const override {
    return tables_.ch_hop2[v];
  }

 private:
  std::span<const NodeId> neighbors_;
  const NeighborTables& tables_;
};

/// The greedy selection on a local view (shared by centralized and
/// distributed code paths).
GatewaySelection select_gateways_local(const LocalSelectionView& view,
                                       const Coverage& targets);

/// Same, reusing the caller's scratch (must be clean; returned clean).
GatewaySelection select_gateways_local(const LocalSelectionView& view,
                                       const Coverage& targets,
                                       SelectionScratch& scratch);

/// Same kernel over the shared tables, without virtual row lookups.
GatewaySelection select_gateways_local(const TablesSelectionView& view,
                                       const Coverage& targets,
                                       SelectionScratch& scratch);

/// Checks that `selection` actually connects `head` to every target (each
/// 2-hop target adjacent to a selected neighbor of head; each 3-hop target
/// reached by a selected pair). Empty string when valid.
std::string validate_selection(const graph::Graph& g,
                               const cluster::Clustering& c, NodeId head,
                               const Coverage& targets,
                               const GatewaySelection& selection);

}  // namespace manet::core
