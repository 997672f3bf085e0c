#include "net/protocol.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/table_kernels.hpp"

namespace manet::net {

/// The shared core kernels' view (core/table_kernels.hpp) over the
/// node's neighbor list and received-message stores. The kernels only
/// ever query the node itself and its neighbors.
struct BackboneNode::View {
  const BackboneNode& node;

  std::span<const NodeId> neighbors(NodeId v) const {
    MANET_ASSERT(v == node.id_, "kernel asked for a non-local adjacency row");
    return node.neighbors_;
  }
  bool has_edge(NodeId u, NodeId w) const {
    MANET_ASSERT(u == node.id_, "kernel asked for a non-local edge");
    return contains_sorted(node.neighbors_, w);
  }
  /// As announced by x (self included; kInvalidNode before that).
  NodeId head_of(NodeId x) const {
    if (x == node.id_) return node.head_;
    const auto it = node.neighbor_head_.find(x);
    return it != node.neighbor_head_.end() ? it->second : kInvalidNode;
  }
  bool is_head(NodeId x) const { return head_of(x) == x; }
  /// Payloads received from neighbor x (empty if none).
  std::span<const NodeId> hop1(NodeId x) const {
    const auto it = node.hop1_received_.find(x);
    if (it == node.hop1_received_.end()) return {};
    return it->second;
  }
  std::span<const core::Hop2Entry> hop2(NodeId x) const {
    const auto it = node.hop2_received_.find(x);
    if (it == node.hop2_received_.end()) return {};
    return it->second;
  }
};

BackboneNode::BackboneNode(NodeId id, core::CoverageMode mode)
    : id_(id), mode_(mode) {}

void BackboneNode::start(Mailbox& out) { out.send(HelloMsg{}); }

std::size_t BackboneNode::non_head_neighbor_count() const {
  std::size_t count = 0;
  for (const auto& [w, h] : neighbor_head_)
    if (h != w) ++count;
  return count;
}

void BackboneNode::on_round(std::uint32_t round, Inbox inbox, Mailbox& out) {
  // Ingest everything delivered this round.
  for (const Message* mp : inbox) {
    const Message& m = *mp;
    if (std::holds_alternative<HelloMsg>(m.body)) {
      insert_sorted(neighbors_, m.from);
    } else if (std::holds_alternative<ClusterHeadMsg>(m.body)) {
      neighbor_head_[m.from] = m.from;
    } else if (const auto* nch = std::get_if<NonClusterHeadMsg>(&m.body)) {
      neighbor_head_[m.from] = nch->head;
    } else if (const auto* h1 = std::get_if<ChHop1Msg>(&m.body)) {
      hop1_received_[m.from] = h1->heads;
    } else if (const auto* h2 = std::get_if<ChHop2Msg>(&m.body)) {
      hop2_received_[m.from] = h2->entries;
    } else if (const auto* gw = std::get_if<GatewayMsg>(&m.body)) {
      if (contains_sorted(gw->selected, id_)) {
        gateway_flag_ = true;
        if (gw->ttl > 1 &&
            insert_sorted(forwarded_gateway_origins_, gw->origin)) {
          out.send(GatewayMsg{gw->origin, gw->selected,
                              static_cast<std::uint8_t>(gw->ttl - 1)});
        }
      }
    } else if (std::holds_alternative<DataMsg>(m.body)) {
      on_data(m, out);
    }
  }
  // All HELLOs were sent in round 0, so the neighbor set is final once
  // round 1 has been ingested (the unit-time synchronous model of the
  // paper's complexity analysis).
  if (round >= 1) neighbors_final_ = true;

  if (!neighbors_final_) return;
  try_decide_role(out);
  try_send_hop1(out);
  try_send_hop2(out);
  try_select(out);
}

void BackboneNode::try_decide_role(Mailbox& out) {
  if (role_.has_value()) return;
  // Wait until every smaller-id neighbor has announced.
  for (NodeId w : neighbors_) {
    if (w >= id_) break;  // sorted
    if (neighbor_head_.find(w) == neighbor_head_.end()) return;
  }
  // Join the smallest announced clusterhead neighbor, if any.
  NodeId smallest_head = kInvalidNode;
  for (const auto& [w, h] : neighbor_head_) {
    if (h == w && w < smallest_head) smallest_head = w;
  }
  if (smallest_head != kInvalidNode) {
    role_ = cluster::Role::kOrdinary;  // gateway status resolved later
    head_ = smallest_head;
    out.send(NonClusterHeadMsg{head_});
  } else {
    role_ = cluster::Role::kClusterhead;
    head_ = id_;
    out.send(ClusterHeadMsg{});
  }
}

void BackboneNode::try_send_hop1(Mailbox& out) {
  if (hop1_sent_ || !role_.has_value() || is_head()) return;
  // Every neighbor must have announced its role.
  if (neighbor_head_.size() != neighbors_.size()) return;
  core::hop1_row(View{*this}, id_, my_hop1_);
  hop1_sent_ = true;
  out.send(ChHop1Msg{my_hop1_});
}

void BackboneNode::try_send_hop2(Mailbox& out) {
  if (hop2_sent_ || !hop1_sent_) return;
  // CH_HOP1 must have arrived from every non-head neighbor.
  if (hop1_received_.size() != non_head_neighbor_count()) return;
  core::hop2_row(View{*this}, mode_, id_, my_hop2_);
  hop2_sent_ = true;
  out.send(ChHop2Msg{my_hop2_});
}

void BackboneNode::try_select(Mailbox& out) {
  if (selected_sent_ || !role_.has_value() || !is_head()) return;
  // A head's neighbors are all non-heads; it needs CH_HOP1 and CH_HOP2
  // from each of them.
  if (hop1_received_.size() != neighbors_.size() ||
      hop2_received_.size() != neighbors_.size())
    return;

  for (const auto& received : hop1_received_)
    for (NodeId w : received.second)
      if (w != id_) insert_sorted(coverage_.two_hop, w);
  for (const auto& received : hop2_received_)
    for (const auto& e : received.second)
      if (e.head != id_ && !contains_sorted(coverage_.two_hop, e.head))
        insert_sorted(coverage_.three_hop, e.head);

  core::SelectionScratch scratch;
  core::select_gateways_local(View{*this}, id_, coverage_, scratch,
                              selection_.gateways);
  selected_sent_ = true;
  if (!selection_.gateways.empty())
    out.send(GatewayMsg{id_, selection_.gateways, 2});
}

NodeSet BackboneNode::select_for_broadcast(
    NodeId relay, NodeId upstream, const NodeSet& upstream_cov) {
  core::Coverage remaining = coverage_;
  if (upstream != kInvalidNode) {
    remaining.two_hop = set_difference(remaining.two_hop, upstream_cov);
    remaining.three_hop = set_difference(remaining.three_hop, upstream_cov);
    erase_sorted(remaining.two_hop, upstream);
    erase_sorted(remaining.three_hop, upstream);
  }
  if (relay != kInvalidNode) {
    // Relay exclusion: heads adjacent to the relay heard its
    // transmission; their CH_HOP1 report is already in our store.
    const auto it = hop1_received_.find(relay);
    if (it != hop1_received_.end()) {
      remaining.two_hop = set_difference(remaining.two_hop, it->second);
      remaining.three_hop = set_difference(remaining.three_hop, it->second);
    }
  }
  NodeSet gateways;
  core::SelectionScratch scratch;
  core::select_gateways_local(View{*this}, id_, remaining, scratch, gateways);
  return gateways;
}

void BackboneNode::on_data(const Message& m, Mailbox& out) {
  const auto& data = std::get<DataMsg>(m.body);
  data_received_ = true;
  if (is_head()) {
    if (head_data_processed_) return;
    head_data_processed_ = true;
    data_sent_ = true;
    out.send(DataMsg{id_, coverage_.all(),
                     select_for_broadcast(m.from, data.origin_head,
                                          data.coverage)});
    return;
  }
  // A named forward node relays once per origin.
  if (contains_sorted(data.forward_set, id_)) {
    const NodeId origin_key =
        data.origin_head == kInvalidNode ? m.from : data.origin_head;
    if (insert_sorted(relayed_data_origins_, origin_key)) {
      data_sent_ = true;
      out.send(DataMsg{data.origin_head, data.coverage, data.forward_set});
    }
  }
}

MessageBody BackboneNode::make_broadcast_packet() {
  MANET_REQUIRE(decided(), "construction must finish before broadcasting");
  data_received_ = true;
  data_sent_ = true;
  if (is_head()) {
    MANET_REQUIRE(selected_sent_, "head has not built its coverage yet");
    head_data_processed_ = true;
    return DataMsg{id_, coverage_.all(),
                   select_for_broadcast(kInvalidNode, kInvalidNode, {})};
  }
  // Member handoff: physically a broadcast; the head picks it up.
  return DataMsg{kInvalidNode, {}, {}};
}

void BackboneNode::reset_broadcast_state() {
  data_received_ = false;
  data_sent_ = false;
  head_data_processed_ = false;
  relayed_data_origins_.clear();
}

bool BackboneNode::done() const {
  if (!role_.has_value()) return false;
  return is_head() ? selected_sent_ : hop2_sent_;
}

DistributedRun run_distributed_backbone(const graph::Graph& g,
                                        core::CoverageMode mode) {
  Simulator sim(g, [mode](NodeId v) {
    return std::make_unique<BackboneNode>(v, mode);
  });
  DistributedRun run;
  run.rounds = sim.run();
  run.counts = sim.counts();
  run.delivery = sim.delivery_stats();

  const std::size_t n = g.order();
  core::StaticBackbone& b = run.backbone;
  b.mode = mode;
  b.clustering.head_of.assign(n, kInvalidNode);
  b.clustering.roles.assign(n, cluster::Role::kOrdinary);
  b.tables = {mode, core::RowTable<NodeId>(n),
              core::RowTable<core::Hop2Entry>(n)};
  b.coverage.resize(n);
  b.selection.resize(n);

  for (NodeId v = 0; v < n; ++v) {
    const auto& node = dynamic_cast<const BackboneNode&>(sim.process(v));
    MANET_ASSERT(node.decided(), "protocol quiesced with undecided node");
    b.clustering.head_of[v] = node.head();
    if (node.is_head()) {
      b.clustering.heads.push_back(v);
      b.clustering.roles[v] = cluster::Role::kClusterhead;
      b.coverage[v] = node.coverage();
      b.selection[v] = node.selection();
      for (NodeId w : node.selection().gateways) insert_sorted(b.gateways, w);
    } else {
      b.tables.ch_hop1.assign(v, node.sent_hop1());
      b.tables.ch_hop2.assign(v, node.sent_hop2());
    }
    if (node.in_backbone()) run.flagged.push_back(v);
  }
  b.cds = set_union(b.clustering.heads, b.gateways);
  // Reconstruct gateway roles the classical way (neighbor in another
  // cluster) so the struct is directly comparable with the centralized
  // clustering.
  for (NodeId v = 0; v < n; ++v) {
    if (b.clustering.head_of[v] == v) continue;
    for (NodeId w : g.neighbors(v)) {
      if (b.clustering.head_of[w] != b.clustering.head_of[v]) {
        b.clustering.roles[v] = cluster::Role::kGateway;
        break;
      }
    }
  }
  return run;
}

DistributedBroadcast run_distributed_broadcast(const graph::Graph& g,
                                               core::CoverageMode mode,
                                               NodeId source) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  Simulator sim(g, [mode](NodeId v) {
    return std::make_unique<BackboneNode>(v, mode);
  });
  sim.run();  // construction phase to quiescence

  auto& src = dynamic_cast<BackboneNode&>(sim.process(source));
  sim.inject(source, src.make_broadcast_packet());
  DistributedBroadcast result;
  result.rounds = sim.run();  // broadcast phase
  result.data_messages = sim.counts().data;

  result.received.assign(g.order(), 0);
  for (NodeId v = 0; v < g.order(); ++v) {
    const auto& node = dynamic_cast<const BackboneNode&>(sim.process(v));
    result.received[v] = node.data_received() ? 1 : 0;
    if (node.data_forwarded()) result.forward_nodes.push_back(v);
  }
  result.delivered_all =
      std::all_of(result.received.begin(), result.received.end(),
                  [](char c) { return c != 0; });
  return result;
}

}  // namespace manet::net
