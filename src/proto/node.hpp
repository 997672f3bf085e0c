// One node of the message-driven maintenance protocol (the paper's
// maintenance phase, run as a persistent per-node state machine on the
// round simulator).
//
// Each mobility tick the engine fires every node's on_timer: the node
// broadcasts a MAINT_HELLO beacon carrying its cluster status and
// neighbor list. (The region-sharded tick fires only the timers whose
// beacons a changed link's endpoint hears; every other node replays its
// quiet beacon round if and when a message reaches it — wake_dormant.)
// From the beacons delivered one round later (tick round tr1) a node
// learns its exact current neighborhood — a cached neighbor whose beacon
// is missing has moved out of range (the medium is lossless, so one
// missed HELLO is conclusive), and a beacon from an unknown sender is a
// new link. Everything after that is the localized LCC repair and the
// incremental table/selection refresh, driven purely by received
// messages plus the round clock:
//
//  * Rule 1 (adjacent heads). Previous heads were pairwise non-adjacent,
//    so every head-head link visible at tr1 appeared this tick; its
//    endpoints are exactly lcc_update's affected heads, each of which
//    announces R1_STATUS at tr1 — FINAL(survived) when it has no
//    smaller-id head neighbor, else PENDING. Pending heads resolve in
//    ascending-id waves: a head resigns iff some smaller adjacent head
//    announced FINAL(survived). Silence is information: a head that
//    announced nothing by tr2 was unaffected and survives.
//  * Rule 2 (re-affiliation). A member turns dirty when its head's link
//    is gone (announces R2_STATUS PENDING at tr1) or its head announced
//    R1 PENDING/resigned (announces PENDING at tr2). All pendings are
//    therefore delivered by tr3, which makes the set of dirty smaller
//    neighbors conclusively known from tr3 on. A dirty node decides once
//    its old head's fate is final, every adjacent previous head is
//    resolved, and every dirty smaller neighbor announced its R2 FINAL —
//    replicating lcc_update's ascending scan exactly: declarations by
//    smaller nodes are visible, declarations by larger nodes are not
//    (and a resigned head never re-declares: its blocker is an adjacent
//    surviving head it can join instead).
//  * Refresh. After the adjacent repair state settles (>= tr3, all
//    adjacent pendings final), nodes recompute their CH_HOP1/CH_HOP2
//    rows with the shared core kernels over their message caches and
//    re-broadcast rows that changed (plus everything a newly formed
//    link's peer is missing); heads re-run coverage + gateway selection
//    when their inputs change and flood GATEWAY updates stamped with a
//    per-origin sequence number. Every recomputation is reactive, so by
//    quiescence each cache equals the batch value — which is what makes
//    the engine's state hash bitwise-equal to src/incr every tick.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/table_kernels.hpp"
#include "net/simulator.hpp"
#include "proto/row_store.hpp"

namespace manet::proto {

/// Change notifications the nodes push to the engine, so its drain
/// updates the dense clustering and counts the tick's row and head
/// refreshes in O(changes) instead of rescanning all n nodes every tick.
/// Ids may repeat; the engine dedups.
struct Ledger {
  std::vector<NodeId> cluster_changed;  ///< head_of and/or role changed
  std::vector<NodeId> rows_changed;     ///< CH_HOP1/CH_HOP2 row changed
  std::vector<NodeId> head_rows_changed;  ///< coverage/selection changed
  /// Convergence observability: one entry per finalized repair decision
  /// that changed cluster state (rule-1 resignation or rule-2
  /// re-affiliation/declaration), valued at the tick-relative round of
  /// the decision — how long the node's state stayed stale this tick.
  std::vector<std::uint32_t> stale_ages;
  /// Neighbor-cache entries expired this tick (missed beacons).
  std::size_t expired_links = 0;
};

/// A node's view of one current neighbor, fed by that neighbor's
/// messages (MAINT_HELLO, repair announcements, row re-broadcasts).
/// Row payloads are interned refs into the engine's shared RowStore —
/// a sender's row is broadcast identically to every neighbor, so per-
/// cache copies would multiply the row bytes by the average degree.
/// Refcounts are managed at the explicit mutation sites (add/remove/
/// overwrite) — caches are never copied around.
struct NeighborCache {
  // Causal ancestry of this tick's messages from the neighbor, kept so
  // repair announcements triggered by them can declare their parent
  // (net::Mailbox::send_caused) and waves chain in the trace/journal.
  // Stored as flat id + depth fields (not net::Cause) so the two u64s
  // lead the struct and the entry packs to 40 bytes — this cache is
  // n * degree entries, the protocol's largest per-node array. Beacons
  // carry no depth field: a MAINT_HELLO is always a wave root (sent
  // uncaused by on_timer), so its depth is 0 by construction.
  std::uint64_t beacon_cause_id = 0;  ///< this tick's MAINT_HELLO
  std::uint64_t r1_cause_id = 0;      ///< latest R1_STATUS

  NodeId id = kInvalidNode;
  NodeId head_of = kInvalidNode;  ///< the neighbor's clusterhead
  RowRef hop1 = kEmptyRow;        ///< its last CH_HOP1 payload (interned)
  RowRef hop2 = kEmptyRow;        ///< its last CH_HOP2 payload (interned)
  std::uint32_t r1_cause_depth = 0;
  bool heard = false;             ///< beacon received this tick

  // Per-tick repair bookkeeping (reset by the tick beacon).
  bool was_head = false;   ///< head status carried by this tick's beacon
  std::uint8_t r1 = 0;     ///< kNone/kPending/kSurvived/kResigned
  std::uint8_t r2 = 0;     ///< kNone/kPending/kFinal

  net::Cause beacon_cause() const {
    return net::Cause{beacon_cause_id, 0};
  }
  void set_beacon_cause(net::Cause c) { beacon_cause_id = c.id; }
  net::Cause r1_cause() const { return net::Cause{r1_cause_id, r1_cause_depth}; }
  void set_r1_cause(net::Cause c) {
    r1_cause_id = c.id;
    r1_cause_depth = c.depth;
  }

  bool is_head() const { return head_of == id; }
};

/// Cached gateway-selection status from one clusterhead origin (soft
/// state behind the node's backbone-membership flag). The payload is an
/// interned ref: one origin's selection set lands identically in every
/// selected node's cache.
struct OriginCache {
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;        ///< freshest selection version seen
  std::uint32_t forwarded = 0;  ///< highest seq this node forwarded
  bool selected = false;        ///< this node is in origin's selection
  RowRef payload = kEmptyRow;   ///< full selected set, interned (for
                                ///< re-sends on link formation)
};

/// Head-only working state: coverage halves, selection gateways, and
/// what was last flooded — four interned refs, 16 bytes inline on every
/// node. PR 9 hoisted the dense structs (~150 bytes of vectors) behind
/// a heads-only pointer; interning collapses them further and drops the
/// per-head allocation. The greedy's SelectionStep trace is not
/// retained between reselects — no observable reads it (state hash,
/// oracle diff and floods consume only coverage halves + the gateway
/// set), and ref equality is content equality, so change detection
/// stays exact. All refs released on resignation (the selection
/// sequence number survives in the node so re-declared selections stay
/// monotonically versioned for receivers).
struct HeadRows {
  RowRef cov2 = kEmptyRow;          ///< Coverage::two_hop (interned)
  RowRef cov3 = kEmptyRow;          ///< Coverage::three_hop (interned)
  RowRef sel = kEmptyRow;           ///< selection gateway set (interned)
  RowRef last_flooded = kEmptyRow;  ///< selection last flooded

  /// No head state at all (ref 0 is the canonical empty row, so a head
  /// with genuinely empty coverage and selection also reads as empty).
  bool empty() const {
    return cov2 == kEmptyRow && cov3 == kEmptyRow && sel == kEmptyRow;
  }
};

/// Per-lane kernel scratch: the coverage + selection bitsets a head
/// reuses across recomputations, bundled so the node spends one pointer
/// on both. One instance serves every node dispatched on a lane (the
/// simulator runs a lane's nodes sequentially).
struct KernelScratch {
  core::CoverageScratch cov;
  core::SelectionScratch sel;
};

/// The maintenance-phase state machine of one node.
class MaintenanceNode final : public net::NodeProcess {
 public:
  /// `universe` sizes the coverage bitsets (total node count); `scratch`
  /// is shared across all nodes dispatched on one lane (the simulator
  /// dispatches a lane's nodes sequentially, so one scratch serves every
  /// head on it); `store` interns all cached payload rows and is shared
  /// engine-wide.
  MaintenanceNode(NodeId id, core::CoverageMode mode, std::size_t universe,
                  Ledger* ledger, KernelScratch* scratch, RowStore* store);

  // ---- Bootstrap (engine-seeded; nodes join a converged backbone) ----
  // Row-shaped state arrives as refs into the shared store (the engine
  // interned the converged rows once), so the bootstrap never re-hashes
  // content. seed_rows and seed_head_rows adopt the reference the
  // engine's intern took; the neighbor and origin caches retain theirs.
  void seed_clustering(NodeId head, cluster::Role role);
  /// Reserve the neighbor arrays exactly before seeding: one-at-a-time
  /// inserts double capacity, and at mean degree ~6 the overshoot is
  /// ~2 cache entries per node — tens of MB of pure waste at 10M.
  void reserve_neighbors(std::size_t count);
  void seed_neighbor(NodeId id, NodeId head_of, RowRef hop1, RowRef hop2);
  void seed_rows(RowRef hop1, RowRef hop2);
  void seed_head_rows(RowRef cov2, RowRef cov3, RowRef sel);
  void seed_origin(NodeId origin, bool selected, RowRef payload);

  // ---- Region-sharded dispatch hooks (engine-managed) ----
  /// Redirect change notifications to a per-region ledger for the
  /// duration of one tick's region execution.
  void set_ledger(Ledger* ledger) { ledger_ = ledger; }
  /// Redirect kernel scratch to the executing lane's instance.
  void set_scratch(KernelScratch* scratch) { scratch_ = scratch; }
  /// Wakes a node left dormant through the beacon round of the sharded
  /// tick whose timer fired at `timer_round` (beacon trace ids
  /// `beacon_base + w + 1`), by replaying its quiet tr1: the timer's
  /// resets unless the node was timed this tick, then every cached
  /// neighbor's beacon heard. That is exactly the state the sequential
  /// tick leaves in a node without a changed link — it sends nothing,
  /// expires nothing and sleeps until a message arrives. Returns false,
  /// doing nothing, when the node already ran tr1 this tick.
  bool wake_dormant(std::uint32_t timer_round, std::uint64_t beacon_base);

  // ---- NodeProcess interface ----
  void start(net::Mailbox& /*out*/) override {}
  void on_timer(std::uint32_t round, net::Mailbox& out) override;
  void on_round(std::uint32_t round, net::Inbox inbox,
                net::Mailbox& out) override;
  bool awake() const override { return awake_; }
  bool done() const override { return !awake_; }

  // ---- State accessors (engine drain, state hash, oracle diff) ----
  NodeId head() const { return head_; }
  bool is_head() const { return head_ == id_; }
  cluster::Role role() const { return role_; }
  const NodeSet& neighbors() const { return neighbor_ids_; }
  const NodeSet& hop1_row() const { return store_->hop1(my_hop1_); }
  const std::vector<core::Hop2Entry>& hop2_row() const {
    return store_->hop2(my_hop2_);
  }
  const NodeSet& coverage_two_hop() const {
    return store_->hop1(head_rows_.cov2);
  }
  const NodeSet& coverage_three_hop() const {
    return store_->hop1(head_rows_.cov3);
  }
  const NodeSet& selection_gateways() const {
    return store_->hop1(head_rows_.sel);
  }
  /// Soft-state backbone-membership flag: selected by any cached origin.
  bool gateway_flag() const;
  const std::vector<OriginCache>& origins() const {
    static const std::vector<OriginCache> kEmpty;
    return origins_ != nullptr ? *origins_ : kEmpty;
  }

  /// Test hook: re-enables the PR 7 stale-gateway soft-state bug (a
  /// cached `selected` flag from an ex-head is NOT cleared on hearing
  /// the ex-head's non-head beacon at link formation). Exists solely so
  /// divergence forensics can be exercised against a real, historical
  /// fault; never set outside tests.
  void inject_stale_gateway_fault() { fault_stale_gateway_ = true; }

 private:
  /// The core kernels' view of this node's caches (node.cpp).
  struct View;

  // Repair-state constants for NeighborCache::r1/r2 and self.
  enum : std::uint8_t { kNone = 0, kPending = 1, kSurvived = 2,
                        kResigned = 3, kFinal = 2 };

  NeighborCache* find_neighbor(NodeId w);
  const NeighborCache* find_neighbor(NodeId w) const;
  /// The timer's per-tick resets (on_timer minus the beacon).
  void open_tick(std::uint32_t round);
  /// The origin-cache vector, materialized on first use. Most nodes
  /// most of the time cache nothing (only nodes near a selecting head
  /// hold entries), so the empty state costs one pointer, not a vector
  /// header.
  std::vector<OriginCache>& origins_mut() {
    if (origins_ == nullptr)
      origins_ = std::make_unique<std::vector<OriginCache>>();
    return *origins_;
  }
  /// Releases every cached origin payload and drops the vector.
  void clear_origins();

  void ingest(const net::Message& m, net::Mailbox& out);
  void process_tick_start(net::Mailbox& out);
  void add_link(NodeId w, NodeId head_of_w, net::Cause cause);
  void remove_link(NodeId w);

  /// Progress evaluation run after every ingest: R1 wave step, R2
  /// dirtiness + decision, settlement (rows, role, origin GC, link-
  /// formation re-sends), head reselection.
  void evaluate(std::uint32_t tr, net::Mailbox& out);
  void try_resolve_r1(std::uint32_t tr, net::Mailbox& out);
  void become_dirty(net::Mailbox& out, net::Cause cause);
  void try_decide_r2(std::uint32_t tr, net::Mailbox& out);
  /// True when every adjacent repair obligation is final: R1 states
  /// conclusive (needs tr >= 2 for silence), R2 pendings resolved, own
  /// decision made, and the dirty set complete (tr >= 3).
  bool repair_settled(std::uint32_t tr) const;
  void settle_rows(net::Mailbox& out);
  void recompute_role();
  void flood_selection(net::Mailbox& out);
  void maybe_reselect(net::Mailbox& out);
  void gc_origins();

  /// Final head status of neighbor `w` as seen by lcc_update's scan of
  /// this node (declarations by larger ids invisible).
  bool head_at_scan(const NeighborCache& w) const;

  // Members are packed by alignment class (pointers, u32s, then the
  // flag bytes) — the node is an n-sized array, so padding is RSS.
  NodeId id_;
  NodeId head_ = kInvalidNode;  ///< persistent: current affiliation
  Ledger* ledger_;
  KernelScratch* scratch_;
  RowStore* store_;
  std::uint32_t universe_;  ///< coverage bitset size (total node count)

  // ---- Persistent protocol state ----
  std::uint32_t selection_seq_ = 0;  ///< own GATEWAY version counter
  NodeSet neighbor_ids_;                  ///< sorted current neighbors
  std::vector<NeighborCache> neighbors_;  ///< parallel to neighbor_ids_
  RowRef my_hop1_ = kEmptyRow;  ///< own CH_HOP1 row (interned)
  RowRef my_hop2_ = kEmptyRow;  ///< own CH_HOP2 row (interned)
  HeadRows head_rows_;          ///< head-only refs (see HeadRows)
  /// Gateway-origin soft state, sorted by origin id; nullptr when empty.
  std::unique_ptr<std::vector<OriginCache>> origins_;

  // ---- Per-tick state ----
  /// Round of the tick's on_timer (never a tick's round before the
  /// first: a dormant node compares it with the current tick's).
  std::uint32_t tick_base_ = ~std::uint32_t{0};
  NodeId old_head_ = kInvalidNode;  ///< affiliation at tick start

  // ---- Causal attribution (observability) ----
  /// The message currently being ingested (or the last one this
  /// evaluate() pass): fallback parent for sends without a more precise
  /// trigger (row refreshes, selection floods). Reset by on_timer so
  /// beacons stay wave roots.
  net::Cause last_input_cause_;
  /// Parent of this node's own R2 wave (the message that made it dirty);
  /// all R2_STATUS sends chain from it.
  net::Cause my_r2_cause_;

  core::CoverageMode mode_;
  cluster::Role role_ = cluster::Role::kOrdinary;
  std::uint8_t my_r1_ = kNone;   ///< own rule-1 state (previous heads)
  std::uint8_t my_r2_ = kNone;   ///< own rule-2 state
  bool awake_ = false;
  bool tick_open_ = false;       ///< tr1 processing still due
  bool was_head_ = false;        ///< head status at tick start
  bool topo_changed_ = false;
  bool links_formed_ = false;    ///< any new neighbor this tick
  bool rows_dirty_ = false;      ///< own row inputs changed
  bool role_dirty_ = false;
  bool head_inputs_dirty_ = false;  ///< coverage/selection inputs changed
  bool inputs_this_round_ = false;  ///< defers reselection one quiet round
  bool settled_ = false;         ///< repair settled, refresh phase active
  bool head_changed_ = false;    ///< own R2 decision changed affiliation
  bool force_flood_ = false;     ///< flood selection even if unchanged
  bool link_resends_done_ = false;  ///< origin re-sends sent this tick
  bool rows_forced_ = false;     ///< full row re-send to new links done

  bool fault_stale_gateway_ = false;  ///< see inject_stale_gateway_fault
};

}  // namespace manet::proto
