// Per-row kernels behind the CH_HOP1/CH_HOP2 tables and coverage sets.
//
// build_neighbor_tables / build_all_coverage compute every row of these
// structures for an immutable Graph; the incremental maintenance engine
// (src/incr) recomputes single dirty rows against its mutable adjacency
// overlay. Both paths call the templates below, so a recomputed row is
// bit-identical to the batch row by construction — the equality the
// engine's oracle cross-check asserts after every tick.
//
// Every kernel reads a node's knowledge through one read-only view `V`:
//
//   neighbors(v)            sorted range of v's neighbor ids
//   has_edge(u, w)          whether u and w are adjacent
//   is_head(x), head_of(x)  x's clusterhead status and its head
//   hop1(x), hop2(x)        the CH_HOP1 / CH_HOP2 rows x reported, as
//                           spans (CH_HOP2 sorted by (head, via))
//
// TablesView implements it over whole-network state (graph::Graph or
// graph::DynamicAdjacency, a Clustering and the NeighborTables). The
// message-driven nodes (src/net construction, src/proto maintenance)
// implement it over their own neighbor list and received messages; a
// kernel only ever asks them about the node itself and its neighbors.
// One kernel, every engine — that is what makes the rows, coverage sets
// and selections bit-identical across the batch, incremental and
// protocol paths.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/bitset.hpp"

namespace manet::core {

/// The kernel view over whole-network state: adjacency `g`, the
/// clustering and the neighbor tables. `Adj` is graph::Graph or
/// graph::DynamicAdjacency.
template <typename Adj>
struct TablesView {
  const Adj& g;
  const cluster::Clustering& clustering;
  const NeighborTables& tables;

  std::span<const NodeId> neighbors(NodeId v) const { return g.neighbors(v); }
  bool has_edge(NodeId u, NodeId w) const { return g.has_edge(u, w); }
  bool is_head(NodeId x) const { return clustering.is_head(x); }
  NodeId head_of(NodeId x) const { return clustering.head_of[x]; }
  std::span<const NodeId> hop1(NodeId x) const { return tables.ch_hop1[x]; }
  std::span<const Hop2Entry> hop2(NodeId x) const {
    return tables.ch_hop2[x];
  }
};

/// CH_HOP1 row of `v` into `out` (cleared first; its capacity is
/// reused, so a loop over rows allocates once): sorted clusterheads
/// adjacent to v. Heads do not broadcast CH_HOP1, so their rows stay
/// empty.
template <typename V>
void hop1_row(const V& view, NodeId v, NodeSet& out) {
  out.clear();
  if (view.is_head(v)) return;
  for (NodeId w : view.neighbors(v))
    if (view.is_head(w)) out.push_back(w);  // sorted adjacency -> sorted row
}

/// CH_HOP2 row of `v` into `entries` (cleared first), built from the
/// CH_HOP1 rows of v's non-clusterhead neighbors (`view.hop1` must be
/// current for all of them). A head reported by neighbor x is recorded
/// unless it is already v's own neighbor ("If the clusterhead of x is a
/// neighbor of v, v ignores the message").
template <typename V>
void hop2_row(const V& view, CoverageMode mode, NodeId v,
              std::vector<Hop2Entry>& entries) {
  entries.clear();
  if (view.is_head(v)) return;
  for (NodeId x : view.neighbors(v)) {
    if (view.is_head(x)) continue;  // heads send no CH_HOP1
    if (mode == CoverageMode::kTwoPointFiveHop) {
      const NodeId head = view.head_of(x);
      if (!view.has_edge(v, head)) entries.push_back({head, x});
    } else {
      for (NodeId head : view.hop1(x))
        if (!view.has_edge(v, head)) entries.push_back({head, x});
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
}

/// Reusable bitset scratch for coverage_row. Hot loops (the batch build
/// over all heads, the incremental reselect stage) keep one per thread:
/// the O(universe) bitset allocation then happens once instead of per
/// head — at 100k nodes the per-head zeroing alone was the dominant
/// rebuild cost. The kernel returns it clean, erasing bits through the
/// materialized result sets (O(result), not O(universe)).
struct CoverageScratch {
  graph::NodeBitset two, three;
};

/// Coverage set C(head) = C²(head) ∪ C³(head) into `cov` (both halves
/// cleared first; their capacity is reused, so a loop over heads
/// allocates once), assembled from the table rows of head's neighbors
/// (which must be current). `universe` sizes the scratch bitsets (pass
/// the node count).
template <typename V>
void coverage_row(const V& view, NodeId head, std::size_t universe,
                  CoverageScratch& scratch, Coverage& cov) {
  if (scratch.two.capacity() < universe) {
    scratch.two = graph::NodeBitset(universe);
    scratch.three = graph::NodeBitset(universe);
  }
  cov.two_hop.clear();
  cov.three_hop.clear();
  // Collect membership in bitsets (O(1) insert, duplicates dropped by the
  // fresh-bit return of set()) and sort the harvested lists once, instead
  // of insert_sorted per report (O(k^2)). Harvesting on first insertion —
  // rather than to_node_set() at the end — keeps the whole kernel
  // O(row + result log result): to_node_set scans every word of the
  // universe-sized scratch, which at 10M nodes is 156k words *per head*
  // and dominated the cold start.
  // C²: union of the neighbors' CH_HOP1 reports, minus u itself.
  for (NodeId v : view.neighbors(head))
    for (NodeId w : view.hop1(v))
      if (w != head && scratch.two.set(w)) cov.two_hop.push_back(w);
  std::sort(cov.two_hop.begin(), cov.two_hop.end());

  // C³: union of the neighbors' CH_HOP2 heads, minus C² duplicates and u.
  for (NodeId v : view.neighbors(head))
    for (const auto& e : view.hop2(v))
      if (e.head != head && !scratch.two.test(e.head) &&
          scratch.three.set(e.head))
        cov.three_hop.push_back(e.head);
  std::sort(cov.three_hop.begin(), cov.three_hop.end());

  // Hand the scratch back clean in O(result), not O(universe): the
  // materialized sets list exactly the bits that were set.
  for (NodeId v : cov.two_hop) scratch.two.reset(v);
  for (NodeId v : cov.three_hop) scratch.three.reset(v);
}

}  // namespace manet::core
