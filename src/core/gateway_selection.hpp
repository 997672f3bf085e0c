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

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/assert.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/bitset.hpp"
#include "graph/graph.hpp"

namespace manet::core {

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
  /// The selection itself, as select_gateways returns it.
  NodeSet gateways;
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
/// bits reset) and returns it clean, erasing bits through the gateways it
/// appended in O(result).
struct SelectionScratch {
  graph::NodeBitset remaining2, remaining3, gateways;
};

/// Runs the selection process for clusterhead `head` against `targets`
/// and returns every selected node: first-hop gateways plus second-hop
/// via-nodes, sorted-unique. That is the GATEWAY message payload (static
/// backbone) or the forward-node set F(u) (dynamic backbone).
/// `targets.two_hop`/`targets.three_hop` must be subsets of the head's
/// coverage set (callers pass the full coverage for the static backbone,
/// a pruned copy for the dynamic one).
NodeSet select_gateways(const graph::Graph& g, const cluster::Clustering& c,
                        const NeighborTables& tables, NodeId head,
                        const Coverage& targets);

/// Same, reusing the caller's scratch across a loop over heads.
NodeSet select_gateways(const graph::Graph& g, const cluster::Clustering& c,
                        const NeighborTables& tables, NodeId head,
                        const Coverage& targets, SelectionScratch& scratch);

/// Same selection plus the greedy's pick trace, from the same kernel.
SelectionExplanation explain_gateways(const graph::Graph& g,
                                      const cluster::Clustering& c,
                                      const NeighborTables& tables,
                                      NodeId head, const Coverage& targets);

namespace detail {

/// Distinct heads among `entries` that appear in `remaining`.
inline std::size_t distinct_covered_heads(std::span<const Hop2Entry> entries,
                                          const graph::NodeBitset& remaining) {
  std::size_t count = 0;
  NodeId last = kInvalidNode;
  for (const auto& e : entries) {  // entries sorted by (head, via)
    if (e.head != last && remaining.test(e.head)) {
      ++count;
      last = e.head;
    }
  }
  return count;
}

/// |s ∩ remaining| for a sorted row against a bitset.
inline std::size_t covered_count(std::span<const NodeId> s,
                                 const graph::NodeBitset& remaining) {
  std::size_t count = 0;
  for (NodeId v : s)
    if (remaining.test(v)) ++count;
  return count;
}

}  // namespace detail

/// The greedy selection of clusterhead `head` against `targets`, read
/// through a kernel view (table_kernels.hpp: `neighbors`, `hop1`, `hop2`)
/// — the one kernel behind every engine's selection. Appends the sorted
/// gateways to `out`, leaving what `out` held before untouched, so a
/// caller can collect many heads' selections in one buffer. `scratch`
/// must be clean and comes back clean. With `explain` null (every
/// production caller) nothing but the gateways is recorded;
/// explain_gateways passes a trace to fill.
template <typename V>
void select_gateways_local(const V& view, NodeId head, const Coverage& targets,
                           SelectionScratch& scratch, NodeSet& out,
                           SelectionExplanation* explain = nullptr) {
  // Remaining-target membership and the accumulating gateway set live in
  // bitsets during the greedy loops (O(1) test/insert/erase). Everything
  // whose natural cost is O(universe/64) words is avoided: loop progress
  // is tracked by counters instead of any()/none() scans, selected
  // gateways are harvested on first insertion and sorted once instead of
  // to_node_set(), and phase 2 walks the (sorted) target list filtered by
  // the bitset instead of materializing it. With a reused scratch the
  // whole call is O(targets + neighbor rows) — at 10M nodes the per-head
  // word scans this replaces dominated the bootstrap by orders of
  // magnitude.
  using detail::covered_count;
  using detail::distinct_covered_heads;
  graph::NodeBitset& remaining2 = scratch.remaining2;
  graph::NodeBitset& remaining3 = scratch.remaining3;
  graph::NodeBitset& gateways = scratch.gateways;
  const std::size_t first = out.size();
  for (NodeId w : targets.two_hop) remaining2.set(w);
  for (NodeId w : targets.three_hop) remaining3.set(w);
  // Coverage sets are sorted-unique, so with a clean scratch the live
  // counts start as the list sizes and decrement on each reset below.
  std::size_t left2 = targets.two_hop.size();
  std::size_t left3 = targets.three_hop.size();
  const std::span<const NodeId> neighbors = view.neighbors(head);

  // Phase 1: greedy max-direct-cover over the 2-hop targets.
  while (left2 > 0) {
    NodeId best = kInvalidNode;
    std::size_t best_direct = 0;
    std::size_t best_indirect = 0;
    for (NodeId v : neighbors) {  // ascending ids: first win = smallest id
      const std::size_t direct = covered_count(view.hop1(v), remaining2);
      if (direct == 0) continue;
      const std::size_t indirect =
          distinct_covered_heads(view.hop2(v), remaining3);
      if (best == kInvalidNode || direct > best_direct ||
          (direct == best_direct && indirect > best_indirect)) {
        best = v;
        best_direct = direct;
        best_indirect = indirect;
      }
    }
    MANET_ASSERT(best != kInvalidNode,
                 "every 2-hop coverage target has a witness neighbor");

    SelectionStep* step = nullptr;
    if (explain != nullptr) {
      step = &explain->steps.emplace_back();
      step->gateway = best;
    }
    for (NodeId w : view.hop1(best))  // sorted input -> sorted output
      if (remaining2.test(w)) {
        if (step != nullptr) step->direct_covered.push_back(w);
        remaining2.reset(w);
        --left2;
      }
    if (gateways.set(best)) out.push_back(best);

    // Indirectly covered 3-hop targets come along for free; their
    // via-nodes become second-hop gateways. For a head reachable through
    // several via-nodes of `best`, take the smallest via (entries are
    // sorted by (head, via), so the first hit wins).
    NodeId last_head = kInvalidNode;
    for (const auto& e : view.hop2(best)) {
      if (e.head == last_head) continue;
      if (!remaining3.test(e.head)) continue;
      last_head = e.head;
      if (step != nullptr) step->indirect_covered.push_back(e);
      remaining3.reset(e.head);
      --left3;
      if (gateways.set(e.via)) out.push_back(e.via);
    }
  }

  // Phase 2: leftover 3-hop targets get an explicit connector pair
  // (first-hop neighbor v of head, second-hop via x). Prefer pairs that
  // reuse already-selected gateways, then the smallest (v, x). Iterating
  // the sorted target list filtered by the bitset visits exactly the
  // leftover heads in the same ascending order the materialized set did.
  for (NodeId w : targets.three_hop) {
    if (left3 == 0) break;
    if (!remaining3.test(w)) continue;
    ConnectorPair best_pair{w, kInvalidNode, kInvalidNode};
    int best_score = -1;
    for (NodeId v : neighbors) {
      for (const auto& e : view.hop2(v)) {
        if (e.head != w) continue;
        const int score = (gateways.test(v) ? 1 : 0) +
                          (gateways.test(e.via) ? 1 : 0);
        if (score > best_score ||
            (score == best_score &&
             std::tie(v, e.via) <
                 std::tie(best_pair.first_hop, best_pair.second_hop))) {
          best_score = score;
          best_pair.first_hop = v;
          best_pair.second_hop = e.via;
        }
      }
    }
    MANET_ASSERT(best_score >= 0,
                 "every 3-hop coverage target has a witness pair");
    if (explain != nullptr) explain->leftover_pairs.push_back(best_pair);
    if (gateways.set(best_pair.first_hop)) out.push_back(best_pair.first_hop);
    if (gateways.set(best_pair.second_hop))
      out.push_back(best_pair.second_hop);
    remaining3.reset(w);
    --left3;
  }
  MANET_ASSERT(left3 == 0, "all 3-hop targets resolved");
  // remaining2/remaining3 were drained bit-by-bit above; hand the gateway
  // bits back clean through the appended range (O(result)).
  const auto appended = out.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(appended, out.end());
  for (auto it = appended; it != out.end(); ++it) gateways.reset(*it);
}

/// Checks that the gateways `selection` actually connect `head` to every
/// target (each 2-hop target adjacent to a selected neighbor of head; each
/// 3-hop target reached by a selected pair). Empty string when valid.
std::string validate_selection(const graph::Graph& g,
                               const cluster::Clustering& c, NodeId head,
                               const Coverage& targets,
                               std::span<const NodeId> selection);

}  // namespace manet::core
