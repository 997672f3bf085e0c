// Layer 2 of the incremental maintenance engine: LCC cluster repair
// bounded to the dirty region of an edge delta.
//
// cluster::lcc_update scans the whole node population per snapshot. Its
// rules are local, though, and the dirty region is computable from the
// delta alone:
//
//  * Rule 1 (adjacent heads -> larger id resigns) can only fire where a
//    *new* edge joined two previous heads — previous heads were
//    independent, so every head-head adjacency in the new topology runs
//    over an added edge. The resignation cascade stays inside that set.
//  * Rule 2 (re-affiliate or self-declare) only touches nodes whose old
//    affiliation broke: resigned heads, members whose head resigned,
//    and members whose link to their head disappeared. Everyone else
//    keeps its head verbatim ("members do not chase smaller-id heads"),
//    and freshly declared heads are only ever joined by nodes already in
//    that dirty set.
//  * Role flags (gateway/ordinary) are then refreshed for nodes whose
//    head changed, their current neighbors, and the changed-edge
//    endpoints — the exact support of the role predicate.
//
// Processing both rules in ascending id order inside the dirty sets
// replays cluster::lcc_update's global ascending scans exactly, so the
// repaired clustering is bit-identical to a full lcc_update against the
// new topology (pinned by tests and the pipeline's oracle mode).
//
// The rules run region at a time (repair_clustering_region): a region's
// rules read head status within two unit-disk hops of its changed edges
// and write it within one, so on the DeltaTracker's independent-region
// partition (core cells >= 5 grid cells apart, DESIGN S30) concurrent
// per-region scans can never observe each other and compose to exactly
// the global ascending scan. Head status is c.head_of[v] == v and
// nothing else: each region writes the head_of entries of its own nodes
// in place, and every entry is its own memory location, so concurrent
// regions never share a write. The caller merges the sorted heads list,
// the role refresh and the dirty sets.
#pragma once

#include <span>

#include "cluster/lcc.hpp"
#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "graph/dynamic_adjacency.hpp"
#include "incr/edge_delta.hpp"

namespace manet::incr {

/// What one bounded repair changed (all sets sorted-unique).
struct ClusterRepair {
  cluster::LccDelta churn;   ///< LCC rule counters, lcc_update-compatible
  NodeSet head_changed;      ///< nodes whose head_of changed
  NodeSet role_changed;      ///< nodes whose role changed
  NodeSet declared;          ///< members that became heads this tick
  NodeSet resigned;          ///< heads that stepped down this tick
};

/// Rules 1+2 for one independent region's slice of the tick delta,
/// against the clustering `c` valid before the delta and the post-delta
/// adjacency `g`. Writes c.head_of entries inside the region only
/// (disjoint across regions); does NOT touch c.heads or c.roles, so
/// concurrent calls on distinct regions of one RegionPartition are
/// race-free. The caller merges resigned / declared into the sorted heads
/// list, then refreshes roles over the combined support (see
/// role_support / refresh_roles). Expected O(dirty * d) work.
ClusterRepair repair_clustering_region(const graph::DynamicAdjacency& g,
                                       const EdgeDelta& region_delta,
                                       cluster::Clustering& c);

/// The support of the role predicate after a repair: head_changed ∪
/// N(head_changed) ∪ touched, sorted-unique.
NodeSet role_support(const graph::DynamicAdjacency& g,
                     const NodeSet& head_changed, const NodeSet& touched);

/// Recomputes roles for `nodes` (must be sorted ascending) against the
/// final post-repair head_of, appending nodes whose role flipped to
/// `changed` in order. Writes only c.roles[v] for v in `nodes`, so
/// disjoint chunks of one sorted support set can run concurrently and
/// their `changed` outputs concatenate (in chunk order) to the result of
/// one pass over the whole set.
void refresh_roles(const graph::DynamicAdjacency& g, cluster::Clustering& c,
                   std::span<const NodeId> nodes, NodeSet& changed);

}  // namespace manet::incr
