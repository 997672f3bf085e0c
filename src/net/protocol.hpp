// The distributed backbone-construction protocol (paper §3), as a node
// state machine for the round simulator.
//
// Phases per node, driven entirely by received messages and the round
// clock (no global knowledge):
//   1. HELLO        — round 0 beacon; neighbor sets known at round 1.
//   2. clustering   — a candidate decides once every smaller-id neighbor
//                     has announced: it joins the smallest announced
//                     clusterhead neighbor, or declares itself head.
//   3. CH_HOP1      — a non-head reports its adjacent heads once every
//                     neighbor has announced its role.
//   4. CH_HOP2      — sent once CH_HOP1 arrived from every non-head
//                     neighbor; contents depend on the coverage mode.
//   5. selection    — a head that heard CH_HOP1+CH_HOP2 from all its
//                     neighbors builds its coverage set, runs the shared
//                     greedy (core::select_gateways_local) and floods a
//                     GATEWAY message with TTL 2.
//   6. gateway      — selected nodes mark themselves backbone members and
//                     forward the GATEWAY message while TTL remains.
//
// Phases 3-5 run the shared core kernels (core::hop1_row,
// core::hop2_row, core::coverage_row, the greedy) over the node's kernel
// view of what it received, so every row, coverage set and selection is
// computed as the batch path computes it.
//
// The integration tests assert that the emergent clustering, tables,
// coverage sets, selections and backbone equal the centralized reference
// for every topology tried — and the message totals back the paper's
// O(n) communication-complexity claim.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "cluster/lowest_id.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"
#include "net/simulator.hpp"

namespace manet::net {

/// One node of the distributed protocol.
class BackboneNode final : public NodeProcess {
 public:
  /// Node `id` of a network of `order` nodes (the id range sizes the
  /// coverage kernel's scratch).
  BackboneNode(NodeId id, core::CoverageMode mode, std::size_t order);

  // NodeProcess interface.
  void start(Mailbox& out) override;
  void on_round(std::uint32_t round, Inbox inbox, Mailbox& out) override;
  bool done() const override;

  // Result accessors (valid after the simulation is quiescent).
  bool decided() const { return role_.has_value(); }
  bool is_head() const { return role_ == cluster::Role::kClusterhead; }
  NodeId head() const { return head_; }
  const NodeSet& known_neighbors() const { return neighbors_; }
  const NodeSet& sent_hop1() const { return my_hop1_; }
  const std::vector<core::Hop2Entry>& sent_hop2() const { return my_hop2_; }
  const core::Coverage& coverage() const { return coverage_; }
  const NodeSet& selection() const { return selection_; }
  bool in_backbone() const { return is_head() || gateway_flag_; }

  // ---- Data-broadcast phase (SD-CDS, paper §3) ----
  // After construction quiesces, the application layer hands the source
  // its packet: the returned message is what the source transmits
  // (inject it into the simulator). A clusterhead source runs its
  // selection process first; a member sends a bare handoff.
  MessageBody make_broadcast_packet();
  bool data_received() const { return data_received_; }
  bool data_forwarded() const { return data_sent_; }
  void reset_broadcast_state();

 private:
  /// The core kernels' view of this node's received messages.
  struct View;

  void try_decide_role(Mailbox& out);
  void try_send_hop1(Mailbox& out);
  void try_send_hop2(Mailbox& out);
  void try_select(Mailbox& out);
  std::size_t non_head_neighbor_count() const;

  NodeId id_;
  core::CoverageMode mode_;
  std::size_t order_;

  NodeSet neighbors_;
  bool neighbors_final_ = false;

  std::optional<cluster::Role> role_;
  NodeId head_ = kInvalidNode;
  std::map<NodeId, NodeId> neighbor_head_;  ///< announced role per neighbor
                                            ///< (head id; w -> w if head)
  NodeSet my_hop1_;
  std::vector<core::Hop2Entry> my_hop2_;
  bool hop1_sent_ = false;
  bool hop2_sent_ = false;

  std::map<NodeId, NodeSet> hop1_received_;
  std::map<NodeId, std::vector<core::Hop2Entry>> hop2_received_;

  core::Coverage coverage_;
  NodeSet selection_;
  bool selected_sent_ = false;

  bool gateway_flag_ = false;
  NodeSet forwarded_gateway_origins_;

  void on_data(const Message& m, Mailbox& out);
  NodeSet select_for_broadcast(NodeId relay, NodeId upstream,
                               const NodeSet& upstream_cov);

  bool data_received_ = false;
  bool data_sent_ = false;
  bool head_data_processed_ = false;
  NodeSet relayed_data_origins_;
};

/// Everything the distributed run produces, reassembled for comparison
/// with the centralized pipeline.
struct DistributedRun {
  core::StaticBackbone backbone;  ///< the nodes' state as one backbone
  NodeSet flagged;  ///< heads + nodes a GATEWAY flood flagged
  MessageCounts counts;
  DeliveryStats delivery;
  std::uint32_t rounds = 0;
};

/// Runs the protocol on `g` and extracts the results.
DistributedRun run_distributed_backbone(const graph::Graph& g,
                                        core::CoverageMode mode);

/// Result of one message-level SD-CDS data broadcast.
struct DistributedBroadcast {
  NodeSet forward_nodes;       ///< nodes that transmitted the data packet
  std::vector<char> received;  ///< per-node delivery
  bool delivered_all = false;
  std::size_t data_messages = 0;
  std::uint32_t rounds = 0;  ///< rounds the broadcast phase took
};

/// Runs backbone construction and then one data broadcast from `source`,
/// all through the message simulator (the fully distributed counterpart
/// of core::dynamic_broadcast).
DistributedBroadcast run_distributed_broadcast(const graph::Graph& g,
                                               core::CoverageMode mode,
                                               NodeId source);

}  // namespace manet::net
