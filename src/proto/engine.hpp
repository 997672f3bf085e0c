// The maintenance-phase protocol engine: MaintenanceNode state machines
// over the event-driven round simulator, fed per-tick link deltas by the
// same DeltaTracker geometry the incremental engine uses.
//
// One tick = commit the staged moves (adjacency overlay updates in
// place; the simulator reads it through a Topology adapter), fire every
// node's HELLO timer, run the simulator to quiescence, then drain the
// nodes' change ledger into the dense clustering (head_of, roles) in
// O(changes). Tables, coverage and selections stay where the protocol
// keeps them, on the nodes: the backbone view (core/state_hash.hpp,
// view()) reads them there, and state_hash() and the oracle diff are the
// shared core fold and diff over that view.
//
// Oracle mode rebuilds the expected state from scratch every tick
// (lcc_update over the previous clustering + build_static_backbone) and
// requires bitwise equality — the proof that HELLO-paced, message-driven
// repair lands on the same structure as the snapshot-driven src/incr
// engine, and therefore hashes identically to it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/table_kernels.hpp"
#include "geom/point.hpp"
#include "geom/spatial_grid.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/worker_pool.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "proto/node.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::proto {

/// Engine configuration.
struct EngineOptions {
  core::CoverageMode mode = core::CoverageMode::kTwoPointFiveHop;
  /// After every tick, rebuild the expected state from scratch and
  /// require bitwise equality plus gateway-flag consistency. Slow — for
  /// tests and the equivalence soak only.
  bool oracle_check = false;
  /// Selects nothing. Kept because perfbench/runner.cpp still sets it;
  /// deleted at the next benchmark change.
  geom::GridIndex grid{};
  /// Build the initial unit-disk CSR with the streaming counting sweep.
  bool streaming_build = false;
  /// Observability session (`proto.*` metrics, per-tick trace spans,
  /// plus the simulator's `net.*` instrumentation). Must outlive the
  /// engine. nullptr = unobserved.
  obs::Session* obs = nullptr;
  /// Region-sharded tick execution. 0 = the classic sequential
  /// simulator loop over all n nodes. >= 1 runs each tick's active
  /// repair regions as independent scoped simulations on an
  /// incr::WorkerPool with k lanes (1 = inline on the caller), with the
  /// quiescent remainder of the network accounted analytically — a
  /// tick costs O(active work), not O(n). The maintained state, its
  /// hash, and every deterministic metric are bitwise-identical across
  /// all thread counts and to the sequential loop.
  std::size_t threads = 0;
  /// Test-only: re-enable the historical stale-gateway soft-state bug on
  /// every node (MaintenanceNode::inject_stale_gateway_fault) so the
  /// divergence-forensics path can be exercised against a real fault.
  bool inject_stale_gateway_fault = false;
};

/// What one maintenance tick cost on the wire and churned in the state.
struct MaintTickStats {
  std::uint32_t rounds = 0;          ///< simulator rounds to quiescence
  std::size_t link_changes = 0;      ///< edges appearing or disappearing
  std::size_t head_changes = 0;      ///< nodes whose clusterhead changed
  std::size_t role_changes = 0;      ///< nodes whose cluster role changed
  std::size_t rows_changed = 0;      ///< nodes with a changed table row
  std::size_t heads_refreshed = 0;   ///< heads with new coverage/selection
  std::size_t expired_links = 0;     ///< neighbor-cache expiries (churn)
  /// Tick-relative decision round of every finalized repair this tick
  /// (rule-1 resignations and rule-2 re-affiliations) — how long each
  /// repaired node's state stayed stale.
  std::vector<std::uint32_t> stale_ages;
  net::MessageCounts messages;       ///< transmissions this tick, by type
  net::DeliveryStats delivery;       ///< delivery-layer cost this tick
  // What the sharded tick executed (threads >= 1; both 0 at threads = 0):
  // the nodes whose timer ran (the seeds and their neighbors) and the
  // dormant scope nodes a message woke.
  std::size_t timed_nodes = 0;
  std::size_t woken_nodes = 0;
  // Per-phase wall-time breakdown of the tick (bench reporting only —
  // never part of any deterministic observable). Under concurrent
  // region execution deliver/node_step sum across lanes (CPU time).
  double commit_ms = 0.0;     ///< tracker commit, region build included
  double deliver_ms = 0.0;    ///< delivery passes (inbox arena fills)
  double node_step_ms = 0.0;  ///< node code: on_timer + on_round
  double mirror_ms = 0.0;     ///< ledger drain into the dense clustering
};

/// The message-driven maintained backbone of a mobile unit-disk network.
class MaintenanceEngine {
 public:
  MaintenanceEngine(std::vector<geom::Point> positions, double range,
                    double width, double height, EngineOptions options);

  std::size_t size() const { return tracker_.size(); }
  core::CoverageMode mode() const { return options_.mode; }

  /// Stages a position update (applied at the next tick()).
  void stage_move(NodeId v, geom::Point p) { tracker_.stage_move(v, p); }

  /// One mobility tick: commit moves, beacon, run the protocol to
  /// quiescence, drain the change ledger. Throws std::logic_error on an
  /// oracle mismatch (oracle_check mode).
  MaintTickStats tick();

  // ---- Maintained state ----
  const cluster::Clustering& clustering() const {
    refresh_sorted();
    return clustering_;
  }
  /// Union of the heads' gateway selections, read off the head nodes.
  NodeSet gateways() const;
  /// The SI-CDS: clusterheads ∪ gateways.
  NodeSet cds() const {
    refresh_sorted();
    return set_union(clustering_.heads, gateways());
  }

  /// The backbone view (core/state_hash.hpp) over the nodes' state.
  class View;
  View view() const;

  /// core::backbone_state_hash of the nodes' state — bitwise-identical
  /// to the incremental engine's digest over the same move sequence.
  std::uint64_t state_hash() const;

  const incr::DeltaTracker& tracker() const { return tracker_; }
  /// The engine-wide interned row store (leak/recycling diagnostics:
  /// live row counts must track the structure, not the churn history).
  const RowStore& store() const { return store_; }
  const net::Simulator& simulator() const { return *sim_; }
  /// Scope-filtered deliveries in sharded rounds >= 2 so far — any
  /// nonzero value is a repair wave escaping its painted region (the
  /// partition-separation property test asserts 0).
  std::size_t cross_scope_late() const { return sim_->cross_scope_late(); }
  const MaintenanceNode& node(NodeId v) const;
  std::uint64_t ticks() const { return ticks_; }

  /// Gateway-flag soft-state consistency: a selected node's flag must be
  /// set; an unselected node's flag must be clear in 3-hop mode (exact
  /// GC), and in 2.5-hop mode any stale set flag must come only from
  /// origins that cannot refresh the node — a live head outside the
  /// node's current 2-hop ball, or an ex-head whose retraction flood
  /// fired out of the node's earshot. Empty string when consistent. `g`
  /// is the current topology (god's-eye ball check). Reports the
  /// inconsistent node and the selecting origin whose soft state went
  /// stale (kInvalidNode when not applicable).
  std::string check_gateway_flags(const graph::Graph& g, NodeId* divergent,
                                  NodeId* origin) const;

  void set_obs(obs::Session* session);

 private:
  class AdjacencyTopology;

  MaintenanceNode& node_mut(NodeId v);
  void drain_ledger(MaintTickStats& stats);
  /// Rebuilds the sorted head list from head_of if a drain flipped a
  /// head since the last read.
  void refresh_sorted() const;
  /// The sharded tick body: region-scoped commit, concurrent region
  /// runs, deterministic merge. Fills stats.link_changes and returns
  /// the tick's round count.
  std::uint32_t run_sharded_tick(MaintTickStats& stats);
  /// O(1)-per-changed-edge maintenance of deg_/deg_count_/degpos_.
  void update_degrees(const incr::EdgeDelta& delta);
  /// Divergence forensics: the causal slice of the journal around the
  /// divergent node (and the origin whose state it mirrors wrongly) —
  /// recent events of both plus the parent-link chain of their newest
  /// messages. Empty without an attached session.
  std::string forensic_report(NodeId divergent, NodeId origin) const;

  EngineOptions options_;
  incr::DeltaTracker tracker_;
  Ledger ledger_;
  KernelScratch scratch_;  ///< shared by all nodes (sequential sim)
  RowStore store_;  ///< interned payload rows (must outlive the nodes)
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::Simulator> sim_;

  // The tick-start clustering the commit's growth tiers and the
  // oracle's lcc_update need, updated by the drain. Head status is
  // head_of[v] == v; the drain flips only that, and the sorted
  // clustering_.heads is rebuilt on read (sorted_stale_): a head flip
  // costs O(1) and the next read O(n), which the state hash and the
  // oracle diff spend anyway.
  mutable cluster::Clustering clustering_;  ///< heads: see sorted_stale_
  mutable bool sorted_stale_ = false;

  // ---- Region-sharded execution (EngineOptions::threads > 0) ----
  std::vector<std::uint32_t> deg_;     ///< current degree per node
  std::vector<std::size_t> deg_count_; ///< deg_count_[d] = #nodes at d
  std::size_t degpos_ = 0;             ///< nodes with degree > 0
  incr::RegionPartition regions_;
  std::vector<std::uint32_t> active_;  ///< active region indices
  std::vector<net::RegionRun> region_runs_;
  /// Per-active-region change ledgers (deque: growth never moves the
  /// entries nodes hold pointers to). Drained region-ascending into
  /// ledger_ at merge, so the drain is order-deterministic.
  std::deque<Ledger> region_ledgers_;
  std::vector<KernelScratch> lane_scratch_;  ///< one per lane
  std::unique_ptr<incr::WorkerPool> pool_;  ///< threads >= 1 only

  std::uint64_t ticks_ = 0;
  obs::Session* obs_ = nullptr;
  obs::Counter ticks_counter_, rounds_counter_, link_changes_counter_,
      head_changes_counter_, rows_changed_counter_, reselects_counter_;
  obs::Histogram rounds_hist_, msgs_hist_;
  // Convergence observability (proto.conv.* families — all integer
  // quantities of the deterministic protocol, so snapshots diff
  // byte-for-byte across runs and thread counts).
  obs::Counter conv_expired_counter_;
  obs::Gauge conv_stale_max_gauge_;
  obs::Histogram conv_stale_hist_, conv_wave_depth_hist_,
      conv_quiescence_hist_;
  std::uint64_t stale_age_max_ = 0;  ///< run max fed to the gauge
  std::uint32_t active_run_ = 0;     ///< consecutive non-quiet ticks so far
};

/// Reads each node's own rows, coverage and selection; holds a reference
/// to the engine, so read it while the engine is between ticks.
class MaintenanceEngine::View {
 public:
  explicit View(const MaintenanceEngine& engine) : engine_(engine) {}

  core::CoverageMode mode() const { return engine_.mode(); }
  const cluster::Clustering& clustering() const {
    return engine_.clustering();
  }
  std::span<const NodeId> hop1(NodeId v) const {
    return engine_.node(v).hop1_row();
  }
  std::span<const core::Hop2Entry> hop2(NodeId v) const {
    return engine_.node(v).hop2_row();
  }
  std::span<const NodeId> coverage_two_hop(NodeId v) const {
    return engine_.node(v).coverage_two_hop();
  }
  std::span<const NodeId> coverage_three_hop(NodeId v) const {
    return engine_.node(v).coverage_three_hop();
  }
  std::span<const NodeId> selection(NodeId v) const {
    return engine_.node(v).selection_gateways();
  }
  NodeSet gateways() const { return engine_.gateways(); }
  NodeSet cds() const { return engine_.cds(); }

 private:
  const MaintenanceEngine& engine_;
};

inline MaintenanceEngine::View MaintenanceEngine::view() const {
  return View(*this);
}

}  // namespace manet::proto
