#include "proto/node.hpp"

#include <algorithm>
#include <utility>
#include <variant>

#include "common/assert.hpp"
#include "core/table_kernels.hpp"

namespace manet::proto {
namespace {

/// Counts the sends of a replayed quiet round (there must be none).
class CountingMailbox final : public net::Mailbox {
 public:
  void send(net::MessageBody /*body*/) override { ++sends; }
  std::size_t sends = 0;
};

}  // namespace

/// The shared core kernels' view (core/table_kernels.hpp) over the
/// message caches. The kernels only ever query the owning node itself
/// (its row, its coverage) plus its cached neighbors, so a node's local
/// knowledge is exactly the slice they need.
struct MaintenanceNode::View {
  const MaintenanceNode& node;

  std::span<const NodeId> neighbors(NodeId v) const {
    MANET_ASSERT(v == node.id_, "kernel asked for a non-local adjacency row");
    return node.neighbor_ids_;
  }
  bool has_edge(NodeId u, NodeId w) const {
    MANET_ASSERT(u == node.id_, "kernel asked for a non-local edge");
    return contains_sorted(node.neighbor_ids_, w);
  }
  /// As cached from x's messages (self included).
  NodeId head_of(NodeId x) const {
    if (x == node.id_) return node.head_;
    const NeighborCache* nb = node.find_neighbor(x);
    return nb != nullptr ? nb->head_of : kInvalidNode;
  }
  bool is_head(NodeId x) const { return head_of(x) == x; }
  /// Last payloads cached from neighbor x (empty if none).
  std::span<const NodeId> hop1(NodeId x) const {
    const NeighborCache* nb = node.find_neighbor(x);
    return node.store_->hop1(nb != nullptr ? nb->hop1 : kEmptyRow);
  }
  std::span<const core::Hop2Entry> hop2(NodeId x) const {
    const NeighborCache* nb = node.find_neighbor(x);
    return node.store_->hop2(nb != nullptr ? nb->hop2 : kEmptyRow);
  }
};

MaintenanceNode::MaintenanceNode(NodeId id, core::CoverageMode mode,
                                 std::size_t universe, Ledger* ledger,
                                 KernelScratch* scratch, RowStore* store)
    : id_(id), head_(id), ledger_(ledger), scratch_(scratch), store_(store),
      universe_(static_cast<std::uint32_t>(universe)), mode_(mode) {
  MANET_REQUIRE(ledger != nullptr, "ledger required");
  MANET_REQUIRE(scratch != nullptr, "kernel scratch required");
  MANET_REQUIRE(store != nullptr, "row store required");
}

// ---- Bootstrap ----------------------------------------------------------

void MaintenanceNode::seed_clustering(NodeId head, cluster::Role role) {
  head_ = head;
  role_ = role;
}

void MaintenanceNode::reserve_neighbors(std::size_t count) {
  neighbor_ids_.reserve(count);
  neighbors_.reserve(count);
}

void MaintenanceNode::seed_neighbor(NodeId id, NodeId head_of, RowRef hop1,
                                    RowRef hop2) {
  const auto it =
      std::lower_bound(neighbor_ids_.begin(), neighbor_ids_.end(), id);
  MANET_REQUIRE(it == neighbor_ids_.end() || *it != id,
                "duplicate seeded neighbor");
  const auto idx = it - neighbor_ids_.begin();
  neighbor_ids_.insert(it, id);
  NeighborCache cache;
  cache.id = id;
  cache.head_of = head_of;
  store_->retain_hop1(hop1);
  store_->retain_hop2(hop2);
  cache.hop1 = hop1;
  cache.hop2 = hop2;
  neighbors_.insert(neighbors_.begin() + idx, std::move(cache));
}

void MaintenanceNode::seed_rows(RowRef hop1, RowRef hop2) {
  my_hop1_ = hop1;
  my_hop2_ = hop2;
}

void MaintenanceNode::seed_head_rows(RowRef cov2, RowRef cov3, RowRef sel) {
  store_->retain_hop1(sel);  // sel adopts the caller's ref, last_flooded this
  head_rows_.cov2 = cov2;
  head_rows_.cov3 = cov3;
  head_rows_.sel = sel;
  head_rows_.last_flooded = sel;
}

void MaintenanceNode::seed_origin(NodeId origin, bool selected,
                                  RowRef payload) {
  OriginCache e;
  e.origin = origin;
  e.selected = selected;
  store_->retain_hop1(payload);
  e.payload = payload;
  auto& origins = origins_mut();
  const auto it = std::lower_bound(
      origins.begin(), origins.end(), origin,
      [](const OriginCache& a, NodeId b) { return a.origin < b; });
  MANET_REQUIRE(it == origins.end() || it->origin != origin,
                "duplicate seeded origin");
  origins.insert(it, std::move(e));
}

// ---- Accessors ----------------------------------------------------------

bool MaintenanceNode::gateway_flag() const {
  if (origins_ == nullptr) return false;
  for (const auto& e : *origins_)
    if (e.selected) return true;
  return false;
}

void MaintenanceNode::clear_origins() {
  if (origins_ == nullptr) return;
  for (const auto& e : *origins_) store_->release_hop1(e.payload);
  origins_.reset();
}

NeighborCache* MaintenanceNode::find_neighbor(NodeId w) {
  const auto it =
      std::lower_bound(neighbor_ids_.begin(), neighbor_ids_.end(), w);
  if (it == neighbor_ids_.end() || *it != w) return nullptr;
  return &neighbors_[static_cast<std::size_t>(it - neighbor_ids_.begin())];
}

const NeighborCache* MaintenanceNode::find_neighbor(NodeId w) const {
  return const_cast<MaintenanceNode*>(this)->find_neighbor(w);
}

// ---- Tick pacing --------------------------------------------------------

void MaintenanceNode::open_tick(std::uint32_t round) {
  // A sharded tick's dormant node may still hold an earlier timer whose
  // quiet tr1 never ran (tick_open_): nothing of it outlives these resets.
  MANET_ASSERT(!awake_ || tick_open_, "previous tick did not quiesce");
  tick_base_ = round;
  tick_open_ = true;
  my_r1_ = kNone;
  my_r2_ = kNone;
  was_head_ = is_head();
  old_head_ = head_;
  topo_changed_ = false;
  links_formed_ = false;
  rows_dirty_ = false;
  role_dirty_ = false;
  head_inputs_dirty_ = false;
  inputs_this_round_ = false;
  settled_ = false;
  head_changed_ = false;
  force_flood_ = false;
  link_resends_done_ = false;
  rows_forced_ = false;
  last_input_cause_ = net::Cause{};
  my_r2_cause_ = net::Cause{};
  for (auto& nb : neighbors_) {
    nb.heard = false;
    nb.was_head = nb.is_head();
    nb.r1 = kNone;
    nb.r2 = kNone;
  }
}

void MaintenanceNode::on_timer(std::uint32_t round, net::Mailbox& out) {
  open_tick(round);
  out.send(net::MaintHelloMsg{is_head(), head_});
  // Stay dispatched through tr1 so the beacon round gets processed even
  // when every link survived; an isolated node has nothing to expire.
  awake_ = !neighbor_ids_.empty();
}

bool MaintenanceNode::wake_dormant(std::uint32_t timer_round,
                                   std::uint64_t beacon_base) {
  if (tick_base_ == timer_round && !tick_open_) return false;
  if (tick_base_ != timer_round) open_tick(timer_round);
  // No incident link changed, so tr1 delivers exactly the cached
  // neighbors' beacons, ascending by sender.
  for (auto& nb : neighbors_) {
    nb.heard = true;
    nb.set_beacon_cause(net::Cause{beacon_base + nb.id + 1, 0});
  }
  if (!neighbors_.empty()) last_input_cause_ = neighbors_.back().beacon_cause();
  inputs_this_round_ = false;
  CountingMailbox quiet;
  [[maybe_unused]] const std::size_t degree = neighbor_ids_.size();
  process_tick_start(quiet);
  tick_open_ = false;
  evaluate(1, quiet);
  MANET_ASSERT(quiet.sends == 0 && neighbor_ids_.size() == degree && !awake_,
               "a dormant node's replayed tr1 was not quiet");
  return true;
}

void MaintenanceNode::on_round(std::uint32_t round, net::Inbox inbox,
                               net::Mailbox& out) {
  const std::uint32_t tr = round - tick_base_;
  inputs_this_round_ = false;
  for (const net::Message* m : inbox) ingest(*m, out);
  if (tick_open_) {
    if (tr < 1) return;  // defensive; beacons deliver at tr1
    process_tick_start(out);
    tick_open_ = false;
  }
  evaluate(tr, out);
}

// ---- Message ingestion --------------------------------------------------

void MaintenanceNode::ingest(const net::Message& m, net::Mailbox& out) {
  const net::Cause cause{m.trace_id, m.depth};
  last_input_cause_ = cause;

  if (const auto* hello = std::get_if<net::MaintHelloMsg>(&m.body)) {
    NeighborCache* nb = find_neighbor(m.from);
    if (nb == nullptr) {
      add_link(m.from, hello->is_head ? m.from : hello->head, cause);
    } else {
      nb->heard = true;
      nb->set_beacon_cause(cause);
      MANET_ASSERT(nb->head_of == hello->head,
                   "cached affiliation diverged from beacon");
    }
    return;
  }

  if (const auto* gw = std::get_if<net::GatewayMsg>(&m.body)) {
    if (gw->origin == id_) return;  // own flood echoed back by a forwarder
    bool created = false;
    OriginCache* e;
    {
      auto& origins = origins_mut();
      const auto it = std::lower_bound(
          origins.begin(), origins.end(), gw->origin,
          [](const OriginCache& a, NodeId b) { return a.origin < b; });
      if (it != origins.end() && it->origin == gw->origin) {
        e = &*it;
      } else {
        created = true;
        OriginCache fresh;
        fresh.origin = gw->origin;
        e = &*origins.insert(it, std::move(fresh));
      }
    }
    if (created || gw->seq > e->seq) {
      e->seq = gw->seq;
      e->selected = contains_sorted(gw->selected, id_);
      store_->release_hop1(e->payload);
      e->payload = store_->intern_hop1(gw->selected);
    }
    if (gw->ttl > 1 && gw->seq > e->forwarded) {
      // Everyone forwards once per (origin, seq): second-hop members must
      // hear selection updates (including the one clearing their flag)
      // even when no selected node sits between them and the origin.
      e->forwarded = gw->seq;
      out.send_caused(net::GatewayMsg{gw->origin, gw->selected,
                                      static_cast<std::uint8_t>(gw->ttl - 1),
                                      gw->seq},
                      cause);
    }
    return;
  }

  NeighborCache* nb = find_neighbor(m.from);
  MANET_ASSERT(nb != nullptr, "repair message from a non-neighbor");
  if (nb == nullptr) return;

  if (const auto* r1 = std::get_if<net::R1StatusMsg>(&m.body)) {
    nb->r1 = r1->final_ ? (r1->survived ? kSurvived : kResigned) : kPending;
    nb->set_r1_cause(cause);
    // A resignation changes my CH_HOP1 inputs (one fewer adjacent head).
    if (r1->final_ && !r1->survived) rows_dirty_ = true;
    return;
  }

  if (const auto* r2 = std::get_if<net::R2StatusMsg>(&m.body)) {
    if (!r2->final_) {
      nb->r2 = kPending;
      return;
    }
    nb->r2 = kFinal;
    MANET_ASSERT(!(r2->declared && nb->was_head && nb->r1 == kResigned),
                 "resigned head re-declared");
    if (nb->head_of != r2->head) {
      nb->head_of = r2->head;
      role_dirty_ = true;
      rows_dirty_ = true;
    }
    if (r2->declared) {
      // New heads send no CH_HOP1/CH_HOP2; drop the rows they sent as a
      // member (exactly what the batch tables do for heads).
      store_->release_hop1(nb->hop1);
      store_->release_hop2(nb->hop2);
      nb->hop1 = kEmptyRow;
      nb->hop2 = kEmptyRow;
      rows_dirty_ = true;
      head_inputs_dirty_ = true;
      inputs_this_round_ = true;
    }
    return;
  }

  if (const auto* h1 = std::get_if<net::ChHop1Msg>(&m.body)) {
    store_->release_hop1(nb->hop1);
    nb->hop1 = store_->intern_hop1(h1->heads);
    rows_dirty_ = true;       // my CH_HOP2 inputs (3-hop mode)
    head_inputs_dirty_ = true;  // my coverage inputs (if head)
    inputs_this_round_ = true;
    return;
  }

  if (const auto* h2 = std::get_if<net::ChHop2Msg>(&m.body)) {
    store_->release_hop2(nb->hop2);
    nb->hop2 = store_->intern_hop2(h2->entries);
    head_inputs_dirty_ = true;
    inputs_this_round_ = true;
    return;
  }

  MANET_ASSERT(false, "construction-phase message during maintenance");
}

void MaintenanceNode::add_link(NodeId w, NodeId head_of_w, net::Cause cause) {
  const auto it =
      std::lower_bound(neighbor_ids_.begin(), neighbor_ids_.end(), w);
  const auto idx = it - neighbor_ids_.begin();
  neighbor_ids_.insert(it, w);
  NeighborCache cache;
  cache.id = w;
  cache.head_of = head_of_w;
  cache.heard = true;
  cache.was_head = head_of_w == w;
  cache.set_beacon_cause(cause);
  neighbors_.insert(neighbors_.begin() + idx, std::move(cache));
  // A beacon from a non-head is conclusive about its selection: any
  // cached selected bit from w's past head tenure is dead (the
  // retraction flood happened out of this node's earshot). The seq
  // stays, so a fresher flood from a re-declared w still applies.
  // (fault_stale_gateway_ skips the fix — the PR 7 bug, kept reachable
  // for the divergence-forensics test only.)
  if (head_of_w != w && origins_ != nullptr && !fault_stale_gateway_) {
    const auto oit = std::lower_bound(
        origins_->begin(), origins_->end(), w,
        [](const OriginCache& e, NodeId o) { return e.origin < o; });
    if (oit != origins_->end() && oit->origin == w && oit->selected) {
      oit->selected = false;
      store_->release_hop1(oit->payload);
      oit->payload = kEmptyRow;
    }
  }
  links_formed_ = true;
  topo_changed_ = true;
  rows_dirty_ = true;
  role_dirty_ = true;
  head_inputs_dirty_ = true;
  inputs_this_round_ = true;
}

void MaintenanceNode::remove_link(NodeId w) {
  const auto it =
      std::lower_bound(neighbor_ids_.begin(), neighbor_ids_.end(), w);
  MANET_ASSERT(it != neighbor_ids_.end() && *it == w,
               "expiring an unknown link");
  const auto idx =
      static_cast<std::size_t>(it - neighbor_ids_.begin());
  neighbor_ids_.erase(it);
  store_->release_hop1(neighbors_[idx].hop1);
  store_->release_hop2(neighbors_[idx].hop2);
  neighbors_.erase(neighbors_.begin() +
                   static_cast<std::ptrdiff_t>(idx));
  topo_changed_ = true;
  rows_dirty_ = true;
  role_dirty_ = true;
  head_inputs_dirty_ = true;
}

void MaintenanceNode::process_tick_start(net::Mailbox& out) {
  // Expire every cached neighbor whose beacon is missing (lossless
  // medium: one missed HELLO is conclusive).
  NodeSet expired;
  for (const auto& nb : neighbors_)
    if (!nb.heard) expired.push_back(nb.id);
  for (NodeId w : expired) remove_link(w);
  ledger_->expired_links += expired.size();

  if (was_head_) {
    // Rule 1: previous heads were pairwise non-adjacent, so any
    // previous-head neighbor means a head-head edge appeared this tick.
    // The announcement's causal parent is the beacon that revealed the
    // edge (the smallest previous-head neighbor's MAINT_HELLO), so a
    // repair wave chains back to the beacon that started it.
    bool affected = false;
    bool smaller = false;
    net::Cause trigger;
    for (const auto& nb : neighbors_) {
      if (!nb.was_head) continue;
      if (!affected) trigger = nb.beacon_cause();
      affected = true;
      if (nb.id < id_) smaller = true;
    }
    if (affected) {
      if (smaller) {
        my_r1_ = kPending;
        out.send_caused(net::R1StatusMsg{false, false}, trigger);
      } else {
        my_r1_ = kSurvived;
        out.send_caused(net::R1StatusMsg{true, true}, trigger);
      }
    }
  } else if (old_head_ == kInvalidNode ||
             !contains_sorted(neighbor_ids_, old_head_)) {
    // Rule 2: the link to my head is gone — re-affiliation required.
    // Triggered by a *missing* beacon, so the wave starts a fresh root.
    become_dirty(out, net::Cause{});
  }
}

// ---- Repair -------------------------------------------------------------

void MaintenanceNode::evaluate(std::uint32_t tr, net::Mailbox& out) {
  if (my_r1_ == kPending) try_resolve_r1(tr, out);

  // Conditional rule-2 dirtiness: my head announced that its own survival
  // is pending (or it already resigned), so my affiliation may break.
  // The head's R1 announcement is the causal parent of my R2 wave.
  if (!was_head_ && my_r2_ == kNone && old_head_ != kInvalidNode) {
    const NeighborCache* oh = find_neighbor(old_head_);
    if (oh != nullptr && (oh->r1 == kPending || oh->r1 == kResigned))
      become_dirty(out, oh->r1_cause());
  }

  if (my_r2_ == kPending) try_decide_r2(tr, out);

  if (repair_settled(tr) && (!settled_ || rows_dirty_ || role_dirty_)) {
    settled_ = true;
    settle_rows(out);
  }
  if (settled_) maybe_reselect(out);
  // Settled non-heads consume row updates reactively within the dispatch
  // that delivered them; only heads hold the flag for deferred reselects.
  if (settled_ && !is_head()) head_inputs_dirty_ = false;

  awake_ = tick_open_ || my_r1_ == kPending || my_r2_ == kPending ||
           (!settled_ &&
            (topo_changed_ || rows_dirty_ || role_dirty_ ||
             head_inputs_dirty_ || my_r1_ != kNone || my_r2_ != kNone)) ||
           (settled_ && is_head() && (head_inputs_dirty_ || force_flood_));
}

void MaintenanceNode::try_resolve_r1(std::uint32_t tr, net::Mailbox& out) {
  // Every smaller previous-head neighbor of an affected head is itself
  // affected (the head-head edge implicates both endpoints) and announced
  // at its tr1, so kNone here means its announcement is still in flight.
  bool all_final = true;
  for (const auto& nb : neighbors_) {
    if (nb.id >= id_) break;
    if (!nb.was_head) continue;
    if (nb.r1 == kSurvived) {
      // The smaller head's FINAL(survived) announcement caused this
      // resignation — chain the wave through it.
      my_r1_ = kResigned;
      ledger_->stale_ages.push_back(tr);
      out.send_caused(net::R1StatusMsg{true, false}, nb.r1_cause());
      // Step down as a selector: retract the flooded selection so the
      // selected nodes drop this origin's flag, then drop the head-only
      // rows entirely (selection_seq_ stays — a re-declared selection
      // must outversion this retraction).
      if (head_rows_.last_flooded != kEmptyRow) {
        ++selection_seq_;
        out.send_caused(net::GatewayMsg{id_, NodeSet{}, 2, selection_seq_},
                        nb.r1_cause());
      }
      if (!head_rows_.empty()) ledger_->head_rows_changed.push_back(id_);
      store_->release_hop1(head_rows_.cov2);
      store_->release_hop1(head_rows_.cov3);
      store_->release_hop1(head_rows_.sel);
      store_->release_hop1(head_rows_.last_flooded);
      head_rows_ = HeadRows{};
      become_dirty(out, nb.r1_cause());
      return;
    }
    if (nb.r1 != kResigned) all_final = false;  // kNone or kPending
  }
  if (all_final) {
    my_r1_ = kSurvived;
    out.send_caused(net::R1StatusMsg{true, true}, last_input_cause_);
  }
}

void MaintenanceNode::become_dirty(net::Mailbox& out, net::Cause cause) {
  if (my_r2_ != kNone) return;
  my_r2_ = kPending;
  my_r2_cause_ = cause;
  out.send_caused(net::R2StatusMsg{false, kInvalidNode, false}, cause);
}

void MaintenanceNode::try_decide_r2(std::uint32_t tr, net::Mailbox& out) {
  // First: is keeping the old head still an option?
  bool old_ok = false;
  if (old_head_ != kInvalidNode && old_head_ != id_) {
    const NeighborCache* oh = find_neighbor(old_head_);
    if (oh != nullptr) {
      if (oh->r1 == kPending) return;  // its fate is undecided — wait
      if (oh->r1 == kSurvived) {
        old_ok = true;
      } else if (oh->r1 == kNone) {
        // Silence: an affected head always announces at its tr1, so a
        // quiet previous-head neighbor survived. Conclusive from tr2.
        if (tr < 2) return;
        old_ok = true;
      }
      // kResigned: old head is gone for good (and never re-declares).
    }
  }
  if (old_ok) {
    my_r2_ = kFinal;
    out.send_caused(net::R2StatusMsg{true, head_, false}, my_r2_cause_);
    return;
  }

  // Join-or-declare replicates lcc_update's ascending scan, so it needs
  // the dirty-smaller-neighbor set to be conclusively known (every R2
  // PENDING is delivered by tr3) and every visible head status final.
  if (tr < 3 && !neighbor_ids_.empty()) return;
  for (const auto& nb : neighbors_) {
    if (nb.was_head && nb.r1 == kPending) return;
    if (nb.id < id_ && nb.r2 == kPending) return;
  }

  NodeId chosen = kInvalidNode;
  for (const auto& nb : neighbors_) {  // ascending: smallest head wins
    if (head_at_scan(nb)) {
      chosen = nb.id;
      break;
    }
  }
  if (chosen != kInvalidNode) {
    head_ = chosen;
    out.send_caused(net::R2StatusMsg{true, chosen, false}, my_r2_cause_);
  } else {
    MANET_ASSERT(my_r1_ != kResigned,
                 "a resigned head must find its blocker to join");
    head_ = id_;
    force_flood_ = true;
    head_inputs_dirty_ = true;
    clear_origins();  // selections never contain heads
    out.send_caused(net::R2StatusMsg{true, id_, true}, my_r2_cause_);
  }
  my_r2_ = kFinal;
  ledger_->stale_ages.push_back(tr);
  head_changed_ = true;
  role_dirty_ = true;
  rows_dirty_ = true;
}

bool MaintenanceNode::head_at_scan(const NeighborCache& w) const {
  if (w.id < id_) {
    if (w.r2 == kFinal) return w.head_of == w.id;
    if (w.was_head) return w.r1 != kResigned;
    return false;  // not dirty by tr3 => kept its non-head status
  }
  // Larger ids: lcc's scan reaches them after me, so only their post-
  // rule-1 head status counts — fresh declarations are invisible.
  return w.was_head && w.r1 != kResigned;
}

bool MaintenanceNode::repair_settled(std::uint32_t tr) const {
  if (tr < 3 && !neighbor_ids_.empty()) return false;
  if (my_r1_ == kPending || my_r2_ == kPending) return false;
  if (my_r1_ == kResigned && my_r2_ != kFinal) return false;
  for (const auto& nb : neighbors_) {
    if (nb.r1 == kPending || nb.r2 == kPending) return false;
    // A resigned head's new affiliation feeds my role (and my CH_HOP2 in
    // 2.5-hop mode) — wait for its R2 FINAL.
    if (nb.was_head && nb.r1 == kResigned && nb.r2 != kFinal) return false;
  }
  return true;
}

// ---- Refresh ------------------------------------------------------------

void MaintenanceNode::recompute_role() {
  cluster::Role role = cluster::Role::kClusterhead;
  if (!is_head()) {
    role = cluster::Role::kOrdinary;
    for (const auto& nb : neighbors_) {
      if (nb.head_of != head_) {
        role = cluster::Role::kGateway;
        break;
      }
    }
  }
  if (role != role_ || head_changed_) ledger_->cluster_changed.push_back(id_);
  role_ = role;
}

void MaintenanceNode::settle_rows(net::Mailbox& out) {
  if (role_dirty_) {
    recompute_role();
    role_dirty_ = false;
  }

  if (is_head()) {
    if (my_hop1_ != kEmptyRow || my_hop2_ != kEmptyRow) {
      store_->release_hop1(my_hop1_);
      store_->release_hop2(my_hop2_);
      my_hop1_ = kEmptyRow;
      my_hop2_ = kEmptyRow;
      ledger_->rows_changed.push_back(id_);
    }
  } else {
    const View view{*this};
    NodeSet h1;
    core::hop1_row(view, id_, h1);
    std::vector<core::Hop2Entry> h2;
    core::hop2_row(view, mode_, id_, h2);
    // Intern-then-compare: ref equality is content equality, so an
    // unchanged row re-finds its slot (+1/-1 on the same refcount) and
    // the change test is two integer compares, not a row diff.
    const RowRef r1 = store_->intern_hop1(h1);
    const RowRef r2 = store_->intern_hop2(h2);
    const bool h1_changed = r1 != my_hop1_;
    const bool h2_changed = r2 != my_hop2_;
    if (h1_changed || h2_changed) ledger_->rows_changed.push_back(id_);
    // New links get a full row re-send once per tick; afterwards only
    // changed rows go out (re-broadcasting unchanged rows between two
    // nodes that both formed links would ping-pong forever).
    const bool force = links_formed_ && !rows_forced_;
    if (force) rows_forced_ = true;
    if (h1_changed || force)
      out.send_caused(net::ChHop1Msg{std::move(h1)}, last_input_cause_);
    if (h2_changed || force)
      out.send_caused(net::ChHop2Msg{std::move(h2)}, last_input_cause_);
    store_->release_hop1(my_hop1_);
    store_->release_hop2(my_hop2_);
    my_hop1_ = r1;
    my_hop2_ = r2;
  }

  // Link-formation re-announcements, once per tick: a new neighbor (and
  // the fresh ball members behind it) needs the current selection of
  // every origin it just came in range of. Heads refresh their own ball
  // with a forced flood; members re-send their cached entries for the
  // origins they are adjacent to (every 2-hop path from an origin to a
  // new ball member crosses one of the two rules).
  if (links_formed_ && !link_resends_done_) {
    link_resends_done_ = true;
    if (is_head()) {
      force_flood_ = true;
      head_inputs_dirty_ = true;
    } else if (origins_ != nullptr) {
      const NodeSet& h1 = store_->hop1(my_hop1_);
      for (const auto& e : *origins_)
        if (contains_sorted(h1, e.origin))
          out.send_caused(
              net::GatewayMsg{e.origin, store_->hop1(e.payload), 1, e.seq},
              last_input_cause_);
    }
  }

  gc_origins();
  rows_dirty_ = false;
}

void MaintenanceNode::maybe_reselect(net::Mailbox& out) {
  if (!is_head()) return;
  if (!head_inputs_dirty_ && !force_flood_) return;
  // More row updates may be converging toward this ball; recompute on the
  // first quiet round instead of once per arrival (awake_ keeps us
  // dispatched until then).
  if (inputs_this_round_) return;

  const View view{*this};
  core::Coverage cov;
  core::coverage_row(view, id_, universe_, scratch_->cov, cov);
  NodeSet sel;
  core::select_gateways_local(view, id_, cov, scratch_->sel, sel);
  const RowRef c2 = store_->intern_hop1(cov.two_hop);
  const RowRef c3 = store_->intern_hop1(cov.three_hop);
  const RowRef sl = store_->intern_hop1(sel);
  if (c2 != head_rows_.cov2 || c3 != head_rows_.cov3 ||
      sl != head_rows_.sel)
    ledger_->head_rows_changed.push_back(id_);
  store_->release_hop1(head_rows_.cov2);
  store_->release_hop1(head_rows_.cov3);
  store_->release_hop1(head_rows_.sel);
  head_rows_.cov2 = c2;
  head_rows_.cov3 = c3;
  head_rows_.sel = sl;
  if (head_rows_.sel != head_rows_.last_flooded || force_flood_)
    flood_selection(out);
  head_inputs_dirty_ = false;
  force_flood_ = false;
}

void MaintenanceNode::flood_selection(net::Mailbox& out) {
  ++selection_seq_;
  out.send_caused(
      net::GatewayMsg{id_, store_->hop1(head_rows_.sel), 2, selection_seq_},
      last_input_cause_);
  store_->retain_hop1(head_rows_.sel);
  store_->release_hop1(head_rows_.last_flooded);
  head_rows_.last_flooded = head_rows_.sel;
}

void MaintenanceNode::gc_origins() {
  if (is_head()) {
    clear_origins();
    return;
  }
  // Reachability GC is only sound with 3-hop tables, where my 2-hop ball
  // membership w.r.t. an origin is exactly "origin in my CH_HOP1 or among
  // my CH_HOP2 heads". With 2.5-hop tables a selecting head two hops away
  // can be invisible (its member's own head differs), so entries must be
  // kept — worst case a stale flag on a node the origin can no longer
  // reach, which the oracle's consistency check accounts for.
  if (mode_ != core::CoverageMode::kThreeHop || origins_ == nullptr) return;
  const NodeSet& h1 = store_->hop1(my_hop1_);
  const auto& h2 = store_->hop2(my_hop2_);
  std::erase_if(*origins_, [&](const OriginCache& e) {
    if (contains_sorted(h1, e.origin)) return false;
    for (const auto& entry : h2)
      if (entry.head == e.origin) return false;
    store_->release_hop1(e.payload);
    return true;
  });
  if (origins_->empty()) origins_.reset();
}

}  // namespace manet::proto
