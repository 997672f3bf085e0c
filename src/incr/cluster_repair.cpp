#include "incr/cluster_repair.hpp"

namespace manet::incr {

using cluster::Role;

ClusterRepair repair_clustering_region(const graph::DynamicAdjacency& g,
                                       const EdgeDelta& region_delta,
                                       cluster::Clustering& c) {
  ClusterRepair rep;
  // --- Rule 1: resignations among previous heads joined by new edges.
  // The affected set is closed under the cascade: any previous head
  // adjacent to an affected head is itself an endpoint of an added
  // head-head edge (previous heads were pairwise non-adjacent).
  NodeSet affected_heads;
  for (const auto& [u, w] : region_delta.added) {
    if (c.is_head(u) && c.is_head(w)) {
      affected_heads.push_back(u);
      affected_heads.push_back(w);
    }
  }
  normalize(affected_heads);
  // Ascending scan replaying lcc_update's rule 1: h resigns iff some
  // smaller surviving previous head is adjacent. A resigning head is
  // marked with head_of[h] = kInvalidNode, so it no longer reads as a
  // head to the larger heads after it.
  for (const NodeId h : affected_heads) {
    for (const NodeId w : g.neighbors(h)) {
      if (w >= h) break;  // sorted adjacency
      if (c.is_head(w)) {
        c.head_of[h] = kInvalidNode;
        rep.resigned.push_back(h);
        break;
      }
    }
  }
  rep.churn.heads_resigned = rep.resigned.size();

  // --- Rule 2 dirty set: nodes whose old affiliation broke.
  NodeSet dirty = rep.resigned;
  for (const NodeId h : rep.resigned)
    for (const NodeId v : g.neighbors(h))
      if (c.head_of[v] == h) dirty.push_back(v);
  for (const auto& [u, w] : region_delta.removed) {
    if (c.head_of[u] == w) dirty.push_back(u);
    if (c.head_of[w] == u) dirty.push_back(w);
  }
  normalize(dirty);

  // Ascending scan replaying lcc_update's rule 2. head_of[w] == w is
  // exactly lcc_update's is_head[w] at the moment each dirty node is
  // visited: survivors of rule 1 plus smaller-id declarations (which can
  // only happen inside the dirty set). The rule 1 marker reads as "the
  // old head was v itself". A resigned head's smaller blocker survives,
  // so it always re-affiliates here and no marker outlives the call.
  for (const NodeId v : dirty) {
    const NodeId old_head = c.head_of[v] == kInvalidNode ? v : c.head_of[v];
    const bool old_head_ok = old_head != v && c.is_head(old_head) &&
                             g.has_edge(v, old_head);
    if (old_head_ok) continue;  // affiliation survived after all
    NodeId joined = kInvalidNode;
    for (const NodeId w : g.neighbors(v)) {
      if (c.is_head(w)) {
        joined = w;  // sorted adjacency -> smallest neighboring head
        break;
      }
    }
    if (joined != kInvalidNode) {
      c.head_of[v] = joined;
      ++rep.churn.reaffiliations;
    } else {
      c.head_of[v] = v;
      rep.declared.push_back(v);
      ++rep.churn.heads_declared;
    }
    if (c.head_of[v] != old_head) rep.head_changed.push_back(v);
  }
  // `dirty` is sorted, so head_changed / declared came out sorted too.
  return rep;
}

NodeSet role_support(const graph::DynamicAdjacency& g,
                     const NodeSet& head_changed, const NodeSet& touched) {
  NodeSet role_dirty = head_changed;
  for (const NodeId v : head_changed)
    for (const NodeId w : g.neighbors(v)) role_dirty.push_back(w);
  for (const NodeId v : touched) role_dirty.push_back(v);
  normalize(role_dirty);
  return role_dirty;
}

void refresh_roles(const graph::DynamicAdjacency& g, cluster::Clustering& c,
                   std::span<const NodeId> nodes, NodeSet& changed) {
  for (const NodeId v : nodes) {
    Role role = Role::kOrdinary;
    if (c.head_of[v] == v) {
      role = Role::kClusterhead;
    } else {
      for (const NodeId w : g.neighbors(v)) {
        if (c.head_of[w] != c.head_of[v]) {
          role = Role::kGateway;
          break;
        }
      }
    }
    if (c.roles[v] != role) {
      c.roles[v] = role;
      changed.push_back(v);
    }
  }
}

}  // namespace manet::incr
