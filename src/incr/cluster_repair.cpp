#include "incr/cluster_repair.hpp"

#include <algorithm>

namespace manet::incr {

using cluster::Role;

namespace {

// Rules 1+2 over one delta against any head-status view (the real
// bitset for a lone writer, a HeadStatusOverlay per concurrent region).
// Fills rep.resigned / declared / head_changed / churn; heads-list and
// role maintenance are the caller's.
template <typename HeadBits>
void run_rules(const graph::DynamicAdjacency& g, const EdgeDelta& delta,
               cluster::Clustering& c, HeadBits& head_bits,
               ClusterRepair& rep) {
  // --- Rule 1: resignations among previous heads joined by new edges.
  // The affected set is closed under the cascade: any previous head
  // adjacent to an affected head is itself an endpoint of an added
  // head-head edge (previous heads were pairwise non-adjacent).
  NodeSet affected_heads;
  for (const auto& [u, w] : delta.added) {
    if (c.head_of[u] == u && c.head_of[w] == w) {
      affected_heads.push_back(u);
      affected_heads.push_back(w);
    }
  }
  normalize(affected_heads);
  // Ascending scan replaying lcc_update's rule 1: h resigns iff some
  // smaller surviving previous head is adjacent.
  for (const NodeId h : affected_heads) {
    bool blocked = false;
    for (const NodeId w : g.neighbors(h)) {
      if (w >= h) break;  // sorted adjacency
      if (c.head_of[w] == w && head_bits.test(w)) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      head_bits.reset(h);
      rep.resigned.push_back(h);
    }
  }
  rep.churn.heads_resigned = rep.resigned.size();

  // --- Rule 2 dirty set: nodes whose old affiliation broke.
  NodeSet dirty = rep.resigned;
  for (const NodeId h : rep.resigned)
    for (const NodeId v : g.neighbors(h))
      if (c.head_of[v] == h) dirty.push_back(v);
  for (const auto& [u, w] : delta.removed) {
    if (c.head_of[u] == w) dirty.push_back(u);
    if (c.head_of[w] == u) dirty.push_back(w);
  }
  normalize(dirty);

  // Ascending scan replaying lcc_update's rule 2. head_bits is exactly
  // lcc_update's is_head[] at the moment each dirty node is visited:
  // survivors of rule 1 plus smaller-id declarations (which can only
  // happen inside the dirty set).
  const std::size_t n = g.order();
  for (const NodeId v : dirty) {
    const NodeId old_head = c.head_of[v];
    const bool old_head_ok = old_head != kInvalidNode && old_head != v &&
                             old_head < n && head_bits.test(old_head) &&
                             g.has_edge(v, old_head);
    if (old_head_ok) continue;  // affiliation survived after all
    NodeId joined = kInvalidNode;
    for (const NodeId w : g.neighbors(v)) {
      if (head_bits.test(w)) {
        joined = w;  // sorted adjacency -> smallest neighboring head
        break;
      }
    }
    if (joined != kInvalidNode) {
      c.head_of[v] = joined;
      ++rep.churn.reaffiliations;
    } else {
      head_bits.set(v);
      c.head_of[v] = v;
      rep.declared.push_back(v);
      ++rep.churn.heads_declared;
    }
    if (c.head_of[v] != old_head) rep.head_changed.push_back(v);
  }
  // `dirty` is sorted, so head_changed / declared came out sorted too.
}

}  // namespace

ClusterRepair repair_clustering_region(const graph::DynamicAdjacency& g,
                                       const EdgeDelta& region_delta,
                                       cluster::Clustering& c,
                                       HeadStatusOverlay& overlay) {
  ClusterRepair rep;
  run_rules(g, region_delta, c, overlay, rep);
  return rep;
}

ClusterRepair repair_clustering_region(const graph::DynamicAdjacency& g,
                                       const EdgeDelta& region_delta,
                                       cluster::Clustering& c,
                                       graph::NodeBitset& head_bits) {
  ClusterRepair rep;
  run_rules(g, region_delta, c, head_bits, rep);
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
