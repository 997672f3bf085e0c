#include "core/gateway_selection.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/assert.hpp"
#include "graph/bitset.hpp"

namespace manet::core {
namespace {

using graph::NodeBitset;

/// Distinct heads among `entries` that appear in `remaining`.
std::size_t distinct_covered_heads(std::span<const Hop2Entry> entries,
                                   const NodeBitset& remaining) {
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
std::size_t covered_count(std::span<const NodeId> s,
                          const NodeBitset& remaining) {
  std::size_t count = 0;
  for (NodeId v : s)
    if (remaining.test(v)) ++count;
  return count;
}

/// The greedy itself, the one kernel behind every selection. With
/// `explain` null (every production caller) it records nothing but the
/// gateways; explain_gateways passes a trace to fill. It is instantiated
/// for the abstract LocalSelectionView and for the final
/// TablesSelectionView, whose row lookups then compile to direct calls.
template <class View>
GatewaySelection greedy(const View& view, const Coverage& targets,
                        SelectionScratch& scratch,
                        SelectionExplanation* explain) {
  GatewaySelection sel;
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
  NodeBitset& remaining2 = scratch.remaining2;
  NodeBitset& remaining3 = scratch.remaining3;
  NodeBitset& gateways = scratch.gateways;
  for (NodeId w : targets.two_hop) remaining2.set(w);
  for (NodeId w : targets.three_hop) remaining3.set(w);
  // Coverage sets are sorted-unique, so with a clean scratch the live
  // counts start as the list sizes and decrement on each reset below.
  std::size_t left2 = targets.two_hop.size();
  std::size_t left3 = targets.three_hop.size();
  const std::span<const NodeId> neighbors = view.neighbors();

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
    if (gateways.set(best)) sel.gateways.push_back(best);

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
      if (gateways.set(e.via)) sel.gateways.push_back(e.via);
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
    if (gateways.set(best_pair.first_hop))
      sel.gateways.push_back(best_pair.first_hop);
    if (gateways.set(best_pair.second_hop))
      sel.gateways.push_back(best_pair.second_hop);
    remaining3.reset(w);
    --left3;
  }
  MANET_ASSERT(left3 == 0, "all 3-hop targets resolved");
  // remaining2/remaining3 were drained bit-by-bit above; hand the gateway
  // bits back clean through the harvested list (O(result)).
  std::sort(sel.gateways.begin(), sel.gateways.end());
  for (NodeId v : sel.gateways) gateways.reset(v);
  return sel;
}

void require_head(const graph::Graph& g, const cluster::Clustering& c,
                  NodeId head) {
  MANET_REQUIRE(head < g.order(), "node id out of range");
  MANET_REQUIRE(c.is_head(head), "selection runs on clusterheads");
}

}  // namespace

GatewaySelection select_gateways_local(const LocalSelectionView& view,
                                       const Coverage& targets) {
  SelectionScratch scratch;
  return select_gateways_local(view, targets, scratch);
}

GatewaySelection select_gateways_local(const LocalSelectionView& view,
                                       const Coverage& targets,
                                       SelectionScratch& scratch) {
  return greedy(view, targets, scratch, nullptr);
}

GatewaySelection select_gateways_local(const TablesSelectionView& view,
                                       const Coverage& targets,
                                       SelectionScratch& scratch) {
  return greedy(view, targets, scratch, nullptr);
}

GatewaySelection select_gateways(const graph::Graph& g,
                                 const cluster::Clustering& c,
                                 const NeighborTables& tables, NodeId head,
                                 const Coverage& targets) {
  SelectionScratch scratch;
  return select_gateways(g, c, tables, head, targets, scratch);
}

GatewaySelection select_gateways(const graph::Graph& g,
                                 const cluster::Clustering& c,
                                 const NeighborTables& tables, NodeId head,
                                 const Coverage& targets,
                                 SelectionScratch& scratch) {
  require_head(g, c, head);
  return greedy(TablesSelectionView(g.neighbors(head), tables), targets,
                scratch, nullptr);
}

SelectionExplanation explain_gateways(const graph::Graph& g,
                                      const cluster::Clustering& c,
                                      const NeighborTables& tables,
                                      NodeId head, const Coverage& targets) {
  require_head(g, c, head);
  SelectionScratch scratch;
  SelectionExplanation out;
  out.selection = greedy(TablesSelectionView(g.neighbors(head), tables),
                         targets, scratch, &out);
  return out;
}

std::string validate_selection(const graph::Graph& g,
                               const cluster::Clustering& c, NodeId head,
                               const Coverage& targets,
                               const GatewaySelection& selection) {
  std::ostringstream err;
  // No clusterheads among gateways, and all gateways within 2 hops.
  for (NodeId v : selection.gateways) {
    if (c.is_head(v)) {
      err << "selected gateway " << v << " is a clusterhead";
      return err.str();
    }
  }
  // Every 2-hop target must be adjacent to a selected neighbor of head.
  for (NodeId w : targets.two_hop) {
    bool covered = false;
    for (NodeId v : selection.gateways)
      if (g.has_edge(head, v) && g.has_edge(v, w)) covered = true;
    if (!covered) {
      err << "2-hop target " << w << " of head " << head << " uncovered";
      return err.str();
    }
  }
  // Every 3-hop target must be reached by a selected (v, x) chain.
  for (NodeId w : targets.three_hop) {
    bool covered = false;
    for (NodeId v : selection.gateways) {
      if (!g.has_edge(head, v)) continue;
      for (NodeId x : selection.gateways)
        if (g.has_edge(v, x) && g.has_edge(x, w)) covered = true;
    }
    if (!covered) {
      err << "3-hop target " << w << " of head " << head << " uncovered";
      return err.str();
    }
  }
  return {};
}

}  // namespace manet::core
