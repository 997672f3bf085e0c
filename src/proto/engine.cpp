#include "proto/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cluster/lcc.hpp"
#include "common/assert.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "graph/bitset.hpp"
#include "obs/session.hpp"

namespace manet::proto {
namespace {

/// Paint growth for the message-driven engine's repair regions, tiered
/// by what a mover's own changed edges can set off (the spare outermost
/// painted ring in each bound keeps the paint boundary quiescent, which
/// is what lets a woken scope node replay those nodes' beacons from its
/// tick-start cache).
///
/// Head tier — a changed edge touching a tick-start clusterhead (this
/// covers every head-link loss, since the lost head IS an endpoint):
/// head_of writes land within 1 hop of the edge, the CH_HOP1
/// re-broadcasts they trigger are sent from 2 hops (received at 3),
/// CH_HOP2 from 3 (received at 4), head reselection reads at 4, and
/// the TTL-2 gateway flood it triggers is received up to 6 hops out.
/// One unit-disk hop never crosses more than one cell boundary and the
/// edge endpoint sits within 1 cell of the mover, so receivers sit
/// within 7 cells of the mover's cell: growth 7 = reach 8.
constexpr std::size_t kShardGrowthHeadCells = 7;
/// Member tier — every changed edge connects two tick-start members:
/// no rule-1/rule-2 can fire and no hop-1 row changes (CH_HOP1 lists
/// adjacent *heads*), so only the endpoints' CH_HOP2 rows change.
/// Endpoints re-broadcast (received at 1 hop), heads within 1 hop
/// reselect, and their TTL-2 flood is received up to 3 hops from the
/// endpoint — 4 cells from the mover: growth 4 = reach 5.
constexpr std::size_t kShardGrowthMemberCells = 4;
/// Quiet tier — the mover kept every link: no wave at all. Its region
/// is inactive unless the paint overlaps an active mover's (in which
/// case they merge and the bigger paint contains the traffic); growth
/// 1 keeps the mover's whole neighborhood in its scope.
constexpr std::size_t kShardGrowthQuietCells = 1;

/// Simulator livelock guard, per tick.
constexpr std::uint32_t kMaxRoundsPerTick = 100000;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// Simulator adapter over the DeltaTracker's maintained adjacency
/// overlay: commits between run() calls are immediately visible to
/// delivery.
class MaintenanceEngine::AdjacencyTopology final : public net::Topology {
 public:
  explicit AdjacencyTopology(const graph::DynamicAdjacency& adj)
      : adj_(adj) {}
  std::size_t order() const override { return adj_.order(); }
  std::span<const NodeId> neighbors(NodeId v) const override {
    return adj_.neighbors(v);
  }

 private:
  const graph::DynamicAdjacency& adj_;
};

MaintenanceEngine::MaintenanceEngine(std::vector<geom::Point> positions,
                                     double range, double width,
                                     double height, EngineOptions options)
    : options_(options),
      tracker_(std::move(positions), range, width, height, options.grid,
               options.streaming_build) {
  const std::size_t n = tracker_.size();

  // Bootstrap: the converged construction-phase backbone over the
  // initial topology (exactly what the incremental engine starts from,
  // so tick-0 hashes already agree).
  core::StaticBackbone seed;
  {
    const graph::Graph g = tracker_.adjacency().freeze();
    seed = core::build_static_backbone(g, options_.mode);
  }
  clustering_ = std::move(seed.clustering);

  // Intern the seeded rows BEFORE the nodes exist, then drop the seed's
  // dense O(n) storage: node seeding reads the rows back out of the
  // store by ref, so the bootstrap peak-RSS transient is the store plus
  // these refs, not dense tables/coverage/selection vectors coexisting
  // with a million live nodes.
  std::vector<RowRef> hop1(n), hop2(n);
  for (NodeId v = 0; v < n; ++v) {
    hop1[v] = store_.intern_hop1(seed.tables.ch_hop1[v]);
    hop2[v] = store_.intern_hop2(seed.tables.ch_hop2[v]);
  }
  struct HeadSeed {
    RowRef cov2, cov3, sel;
  };
  std::vector<HeadSeed> head_seed;  // parallel to clustering_.heads
  head_seed.reserve(clustering_.heads.size());
  for (const NodeId h : clustering_.heads)
    head_seed.push_back({store_.intern_hop1(seed.coverage.two_hop[h]),
                         store_.intern_hop1(seed.coverage.three_hop[h]),
                         store_.intern_hop1(seed.selection[h])});
  seed = core::StaticBackbone{};

  topo_ = std::make_unique<AdjacencyTopology>(tracker_.adjacency());
  sim_ = std::make_unique<net::Simulator>(
      *topo_,
      [this, n](NodeId v) {
        return std::make_unique<MaintenanceNode>(v, options_.mode, n,
                                                 &ledger_, &scratch_, &store_);
      },
      net::Simulator::Dispatch::kEventDriven);

  // Seed every node's protocol state from the converged backbone: its
  // affiliation, its neighbors' affiliations and cached rows, its own
  // rows, and (heads) coverage + selection — all as refs into the rows
  // interned above, so the bootstrap never re-hashes row content. Each
  // node adopts the reference interning took for its own rows.
  std::size_t head_index = 0;
  for (NodeId v = 0; v < n; ++v) {
    MaintenanceNode& nd = node_mut(v);
    nd.seed_clustering(clustering_.head_of[v], clustering_.roles[v]);
    const auto nb = tracker_.adjacency().neighbors(v);
    nd.reserve_neighbors(nb.size());
    for (const NodeId w : nb)
      nd.seed_neighbor(w, clustering_.head_of[w], hop1[w], hop2[w]);
    nd.seed_rows(hop1[v], hop2[v]);
    if (clustering_.is_head(v)) {
      const HeadSeed& hs = head_seed[head_index++];
      nd.seed_head_rows(hs.cov2, hs.cov3, hs.sel);
    }
  }
  // Gateway-selection soft state: exactly the selected nodes hold an
  // entry for the selecting origin (seq 0 = the bootstrap flood).
  for (std::size_t i = 0; i < head_seed.size(); ++i)
    for (const NodeId w : store_.hop1(head_seed[i].sel))
      node_mut(w).seed_origin(clustering_.heads[i], true, head_seed[i].sel);

  if (options_.inject_stale_gateway_fault)
    for (NodeId v = 0; v < n; ++v) node_mut(v).inject_stale_gateway_fault();

  if (options_.threads > 0) {
    deg_.assign(n, 0);
    deg_count_.assign(1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const auto d = static_cast<std::uint32_t>(
          tracker_.adjacency().neighbors(v).size());
      deg_[v] = d;
      if (d >= deg_count_.size()) deg_count_.resize(d + 1, 0);
      ++deg_count_[d];
      if (d > 0) ++degpos_;
    }
    pool_ = std::make_unique<incr::WorkerPool>(options_.threads);
    lane_scratch_.resize(pool_->lanes());
  }

  if (options_.obs != nullptr) set_obs(options_.obs);
}

const MaintenanceNode& MaintenanceEngine::node(NodeId v) const {
  return static_cast<const MaintenanceNode&>(sim_->process(v));
}

MaintenanceNode& MaintenanceEngine::node_mut(NodeId v) {
  return static_cast<MaintenanceNode&>(sim_->process(v));
}

void MaintenanceEngine::set_obs(obs::Session* session) {
  obs_ = session;
  sim_->set_obs(session);
  if (pool_ != nullptr) pool_->set_obs(session);
  ticks_counter_ = obs::Counter();
  rounds_counter_ = obs::Counter();
  link_changes_counter_ = obs::Counter();
  head_changes_counter_ = obs::Counter();
  rows_changed_counter_ = obs::Counter();
  reselects_counter_ = obs::Counter();
  rounds_hist_ = obs::Histogram();
  msgs_hist_ = obs::Histogram();
  conv_expired_counter_ = obs::Counter();
  conv_stale_max_gauge_ = obs::Gauge();
  conv_stale_hist_ = obs::Histogram();
  conv_wave_depth_hist_ = obs::Histogram();
  conv_quiescence_hist_ = obs::Histogram();
  if (session == nullptr) return;
  auto& r = session->registry;
  ticks_counter_ = r.counter("proto.ticks");
  rounds_counter_ = r.counter("proto.rounds");
  link_changes_counter_ = r.counter("proto.link_changes");
  head_changes_counter_ = r.counter("proto.head_changes");
  rows_changed_counter_ = r.counter("proto.rows_changed");
  reselects_counter_ = r.counter("proto.heads_reselected");
  rounds_hist_ = r.histogram("proto.rounds_per_tick",
                             {1, 2, 4, 6, 8, 12, 16, 32, 64});
  msgs_hist_ = r.histogram("proto.msgs_per_tick",
                           {8, 64, 512, 4096, 32768, 262144});
  // Convergence families: every value is an integer quantity of the
  // sequentially-dispatched protocol, so the deterministic() snapshot
  // diffs byte-for-byte across runs and pipeline thread counts.
  conv_expired_counter_ = r.counter("proto.conv.expired_links");
  conv_stale_max_gauge_ = r.gauge("proto.conv.stale_age_max");
  conv_stale_hist_ = r.histogram("proto.conv.stale_age",
                                 {1, 2, 3, 4, 6, 8, 12, 16});
  conv_wave_depth_hist_ = r.histogram("proto.conv.wave_depth",
                                      {1, 2, 3, 4, 6, 8, 12, 16});
  conv_quiescence_hist_ = r.histogram("proto.conv.quiescence_ticks",
                                      {1, 2, 4, 8, 16, 32, 64});
}

MaintTickStats MaintenanceEngine::tick() {
  MaintTickStats stats;
  const net::MessageCounts counts_before = sim_->counts();
  const net::DeliveryStats delivery_before = sim_->delivery_stats();
  const std::uint64_t deliver_ns_before = sim_->deliver_ns();
  const std::uint64_t step_ns_before = sim_->step_ns();
  const std::uint64_t t0 = obs_ != nullptr ? obs_->trace.now_ns() : 0;
  if (obs_ != nullptr) obs_->journal.set_tick(ticks_ + 1);

  if (options_.threads == 0) {
    const auto commit_t0 = std::chrono::steady_clock::now();
    const incr::EdgeDelta delta = tracker_.commit();
    stats.commit_ms = ms_since(commit_t0);
    stats.link_changes = delta.added.size() + delta.removed.size();
    sim_->trigger_timers();
    stats.rounds = sim_->run(kMaxRoundsPerTick);
  } else {
    stats.rounds = run_sharded_tick(stats);
  }

  // The oracle's expected state must be derived from the *previous*
  // clustering (LCC repairs a structure, it does not rebuild one), so
  // compute it before the drain overwrites head_of and roles.
  std::optional<graph::Graph> oracle_graph;
  core::StaticBackbone expected;
  if (options_.oracle_check) {
    oracle_graph.emplace(tracker_.adjacency().freeze());
    const cluster::Clustering repaired =
        cluster::lcc_update(*oracle_graph, clustering_);
    expected =
        core::build_static_backbone(*oracle_graph, repaired, options_.mode);
  }

  {
    const auto mirror_t0 = std::chrono::steady_clock::now();
    drain_ledger(stats);
    stats.mirror_ms = ms_since(mirror_t0);
  }
  stats.deliver_ms =
      static_cast<double>(sim_->deliver_ns() - deliver_ns_before) / 1e6;
  stats.node_step_ms =
      static_cast<double>(sim_->step_ns() - step_ns_before) / 1e6;

  const net::MessageCounts counts_after = sim_->counts();
  stats.messages = counts_after - counts_before;
  const net::DeliveryStats delivery_after = sim_->delivery_stats();
  stats.delivery.deliveries =
      delivery_after.deliveries - delivery_before.deliveries;
  stats.delivery.inbox_resets =
      delivery_after.inbox_resets - delivery_before.inbox_resets;
  stats.delivery.dispatches =
      delivery_after.dispatches - delivery_before.dispatches;

  if (options_.oracle_check) {
    NodeId divergent = kInvalidNode;
    NodeId origin = kInvalidNode;
    std::string diff = core::diff_backbones(
        view(), core::BackboneRef(expected), &divergent);
    if (diff.empty())
      diff = check_gateway_flags(*oracle_graph, &divergent, &origin);
    if (!diff.empty()) {
      std::ostringstream os;
      os << "maintenance protocol diverged from the oracle at tick "
         << ticks_ + 1 << ": " << diff;
      const std::string report = forensic_report(divergent, origin);
      if (!report.empty()) {
        os << "\n" << report;
        std::cerr << os.str() << std::endl;
      }
      throw std::logic_error(os.str());
    }
  }

  ++ticks_;
  // Quiescence runs: the length of every maximal streak of "active"
  // ticks (any link/cluster/table churn), recorded when a quiet tick
  // ends the streak. Purely tick-sequence derived, so deterministic.
  const bool active = stats.link_changes > 0 || stats.head_changes > 0 ||
                      stats.role_changes > 0 || stats.rows_changed > 0 ||
                      stats.heads_refreshed > 0;
  if (obs_ != nullptr) {
    ticks_counter_.add();
    rounds_counter_.add(stats.rounds);
    link_changes_counter_.add(stats.link_changes);
    head_changes_counter_.add(stats.head_changes);
    rows_changed_counter_.add(stats.rows_changed);
    reselects_counter_.add(stats.heads_refreshed);
    rounds_hist_.record(stats.rounds);
    msgs_hist_.record(stats.messages.maintenance_total());
    conv_expired_counter_.add(stats.expired_links);
    // Wave depth rides the causal envelope: the simulator accumulates
    // caused-send counts by hop distance off the wire; draining them
    // here is one bulk record per occupied depth instead of a histogram
    // update per message.
    const auto& depths = sim_->wave_depth_counts();
    for (std::size_t d = 0; d < depths.size(); ++d)
      if (depths[d] != 0) conv_wave_depth_hist_.record_many(d, depths[d]);
    sim_->reset_wave_depth_counts();
    for (const std::uint32_t age : stats.stale_ages) {
      conv_stale_hist_.record(age);
      if (age > stale_age_max_) stale_age_max_ = age;
    }
    conv_stale_max_gauge_.set(static_cast<std::int64_t>(stale_age_max_));
    if (!active && active_run_ > 0)
      conv_quiescence_hist_.record(active_run_);
    obs_->trace.complete("proto", "tick", t0, obs_->trace.now_ns() - t0,
                         ticks_, 0, "rounds", stats.rounds);
  }
  active_run_ = active ? active_run_ + 1 : 0;
  return stats;
}

std::uint32_t MaintenanceEngine::run_sharded_tick(MaintTickStats& stats) {
  incr::CommitOptions copts;
  copts.regions = &regions_;
  copts.growth_cells = kShardGrowthHeadCells;
  copts.member_growth_cells = kShardGrowthMemberCells;
  copts.quiet_growth_cells = kShardGrowthQuietCells;
  // drain_ledger hasn't run yet, so head_of is the tick-start
  // clustering the growth tiers are derived against.
  copts.head_of = clustering_.head_of;
  const auto commit_t0 = std::chrono::steady_clock::now();
  const incr::EdgeDelta delta = tracker_.commit(copts);
  stats.commit_ms = ms_since(commit_t0);
  stats.link_changes = delta.added.size() + delta.removed.size();
  update_degrees(delta);

  const std::uint64_t base = sim_->begin_sharded_tick();

  // Active regions = those with changed edges. A region whose movers
  // kept every link induces no protocol reaction beyond the beacons the
  // merge bulk-accounts, exactly like the untouched rest of the network.
  active_.clear();
  for (std::uint32_t r = 0; r < regions_.count; ++r)
    if (!regions_.deltas[r].added.empty() ||
        !regions_.deltas[r].removed.empty())
      active_.push_back(r);
  const auto A = static_cast<std::uint32_t>(active_.size());

  if (region_runs_.size() < A) region_runs_.resize(A);
  while (region_ledgers_.size() < A) region_ledgers_.emplace_back();

  const std::uint32_t timer_round = sim_->round();
  const auto run_one = [&](std::size_t a, std::size_t lane) {
    net::RegionRun& rr = region_runs_[a];
    const std::uint32_t region = active_[a];
    rr.seeds = regions_.deltas[region].touched;
    rr.region = static_cast<std::uint32_t>(a);
    rr.region_count = A;
    Ledger* const ledger = &region_ledgers_[a];
    KernelScratch* const scratch = &lane_scratch_[lane];
    const auto bind = [this, ledger, scratch](NodeId v) {
      MaintenanceNode& nd = node_mut(v);
      nd.set_ledger(ledger);
      nd.set_scratch(scratch);
    };
    // A dormant node binds this region's ledger and scratch before its
    // replayed tr1, so a lane never writes another region's ledger.
    const auto wake = [this, &bind, timer_round, base](NodeId v) {
      bind(v);
      return node_mut(v).wake_dormant(timer_round, base);
    };
    // The scope is a lookup on the commit's paint map, which nothing
    // writes until the next tick's commit.
    const auto in_scope = [this, region](NodeId v) {
      return tracker_.scope_region(v) == region;
    };
    sim_->run_region(rr, in_scope, bind, wake, kMaxRoundsPerTick);
  };
  pool_->run(A, run_one);

  net::ShardedMergeInputs bulk;
  bulk.n_total = tracker_.size();
  bulk.edges2 = 2 * tracker_.adjacency().edge_count();
  bulk.degpos_total = degpos_;
  bulk.deg_count = deg_count_;
  const std::uint32_t rounds = sim_->finish_sharded_tick(
      std::span<net::RegionRun>(region_runs_.data(), A), bulk);
  for (std::uint32_t a = 0; a < A; ++a) {
    const net::RegionRun& rr = region_runs_[a];
    stats.timed_nodes += rr.timed;
    stats.woken_nodes += rr.woken;
  }

  // Concatenate the region ledgers region-ascending into the engine
  // ledger. drain_ledger sorts and dedups the id lists anyway; the
  // fixed order keeps stale-age sequences (and therefore every stat
  // derived from them) independent of which lane ran which region.
  for (std::uint32_t a = 0; a < A; ++a) {
    Ledger& lr = region_ledgers_[a];
    ledger_.expired_links += lr.expired_links;
    lr.expired_links = 0;
    const auto take = [](std::vector<NodeId>& into, std::vector<NodeId>& from) {
      into.insert(into.end(), from.begin(), from.end());
      from.clear();
    };
    take(ledger_.cluster_changed, lr.cluster_changed);
    take(ledger_.rows_changed, lr.rows_changed);
    take(ledger_.head_rows_changed, lr.head_rows_changed);
    ledger_.stale_ages.insert(ledger_.stale_ages.end(),
                              lr.stale_ages.begin(), lr.stale_ages.end());
    lr.stale_ages.clear();
  }
  return rounds;
}

void MaintenanceEngine::update_degrees(const incr::EdgeDelta& delta) {
  const auto gain = [this](NodeId v) {
    const std::uint32_t d = deg_[v]++;
    --deg_count_[d];
    if (d + 1 >= deg_count_.size()) deg_count_.resize(d + 2, 0);
    ++deg_count_[d + 1];
    if (d == 0) ++degpos_;
  };
  const auto lose = [this](NodeId v) {
    const std::uint32_t d = deg_[v]--;
    --deg_count_[d];
    ++deg_count_[d - 1];
    if (d == 1) --degpos_;
  };
  for (const auto& [u, w] : delta.added) {
    gain(u);
    gain(w);
  }
  for (const auto& [u, w] : delta.removed) {
    lose(u);
    lose(w);
  }
}

void MaintenanceEngine::drain_ledger(MaintTickStats& stats) {
  stats.expired_links = ledger_.expired_links;
  ledger_.expired_links = 0;
  stats.stale_ages = std::move(ledger_.stale_ages);
  ledger_.stale_ages.clear();

  const auto dedup = [](std::vector<NodeId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };

  dedup(ledger_.cluster_changed);
  for (const NodeId v : ledger_.cluster_changed) {
    const MaintenanceNode& nd = node(v);
    if (clustering_.head_of[v] != nd.head()) {
      ++stats.head_changes;
      if ((clustering_.head_of[v] == v) != nd.is_head()) sorted_stale_ = true;
      clustering_.head_of[v] = nd.head();
    }
    if (clustering_.roles[v] != nd.role()) {
      ++stats.role_changes;
      clustering_.roles[v] = nd.role();
    }
  }
  ledger_.cluster_changed.clear();

  // The rows themselves stay on the nodes; the tick only counts the
  // distinct nodes that changed them.
  dedup(ledger_.rows_changed);
  stats.rows_changed = ledger_.rows_changed.size();
  ledger_.rows_changed.clear();
  dedup(ledger_.head_rows_changed);
  stats.heads_refreshed = ledger_.head_rows_changed.size();
  ledger_.head_rows_changed.clear();
}

void MaintenanceEngine::refresh_sorted() const {
  if (!sorted_stale_) return;
  clustering_.heads.clear();
  for (NodeId v = 0; v < clustering_.head_of.size(); ++v)
    if (clustering_.head_of[v] == v) clustering_.heads.push_back(v);
  sorted_stale_ = false;
}

NodeSet MaintenanceEngine::gateways() const {
  refresh_sorted();
  graph::NodeBitset selected(size());
  for (const NodeId h : clustering_.heads)
    for (const NodeId w : node(h).selection_gateways()) selected.set(w);
  return selected.to_node_set();
}

std::uint64_t MaintenanceEngine::state_hash() const {
  return core::backbone_state_hash(view());
}

std::string MaintenanceEngine::check_gateway_flags(const graph::Graph& g,
                                                   NodeId* divergent,
                                                   NodeId* origin) const {
  *divergent = kInvalidNode;
  *origin = kInvalidNode;
  refresh_sorted();
  std::ostringstream os;
  const auto first_selected_origin = [](const MaintenanceNode& nd) {
    for (const auto& e : nd.origins())
      if (e.selected) return e.origin;
    return kInvalidNode;
  };
  const NodeSet gw = gateways();
  for (NodeId v = 0; v < g.order(); ++v) {
    const MaintenanceNode& nd = node(v);
    const bool truth = contains_sorted(gw, v);
    const bool flag = nd.gateway_flag();
    if (truth && !flag) {
      *divergent = v;
      for (const NodeId h : clustering_.heads)
        if (contains_sorted(node(h).selection_gateways(), v)) {
          *origin = h;
          break;
        }
      os << "node " << v << " is selected but its gateway flag is clear";
      return os.str();
    }
    if (flag && !truth) {
      if (options_.mode == core::CoverageMode::kThreeHop) {
        *divergent = v;
        *origin = first_selected_origin(nd);
        os << "node " << v
           << " holds a stale gateway flag (3-hop GC should be exact)";
        return os.str();
      }
      // 2.5-hop mode keeps entries without reachability GC; a stale set
      // flag is tolerable only when every set entry's origin can no
      // longer reach the node (outside its 2-hop ball).
      for (const auto& e : nd.origins()) {
        if (!e.selected) continue;
        // A dead origin (resigned since) can sit at a distance: its
        // retraction flood covered the ball it had *then*, not the ball
        // this node wandered into afterwards. But direct contact is
        // conclusive — either the node was inside the retraction flood,
        // or the ex-head's non-head beacon cleared the entry at link
        // formation (add_link). A flag surviving adjacency is the
        // historical stale-gateway bug.
        if (clustering_.head_of[e.origin] != e.origin) {
          if (g.has_edge(v, e.origin)) {
            *divergent = v;
            *origin = e.origin;
            os << "node " << v
               << " holds a stale gateway flag from resigned ex-head "
               << e.origin << " despite hearing its non-head beacon";
            return os.str();
          }
          continue;
        }
        bool in_ball = g.has_edge(v, e.origin);
        if (!in_ball) {
          for (const NodeId w : g.neighbors(v)) {
            if (g.has_edge(w, e.origin)) {
              in_ball = true;
              break;
            }
          }
        }
        if (in_ball) {
          *divergent = v;
          *origin = e.origin;
          os << "node " << v << " holds a stale gateway flag from origin "
             << e.origin << " inside its 2-hop ball";
          return os.str();
        }
      }
    }
  }
  return "";
}

std::string MaintenanceEngine::forensic_report(NodeId divergent,
                                               NodeId origin) const {
  if (obs_ == nullptr || divergent == kInvalidNode) return "";
  const obs::Journal& journal = obs_->journal;
  if (journal.size() == 0) return "";
  std::ostringstream os;
  os << "forensics: causal slice from the event journal";

  // Recent sends of the nodes involved (the local history leading up to
  // the bad state), oldest first.
  constexpr std::size_t kKeep = 12;
  std::vector<obs::JournalEvent> recent;
  journal.for_each([&](const obs::JournalEvent& e) {
    if (e.node == divergent || (origin != kInvalidNode && e.node == origin))
      recent.push_back(e);
  });
  const std::size_t skip = recent.size() > kKeep ? recent.size() - kKeep : 0;
  os << "\n  recent sends of node " << divergent;
  if (origin != kInvalidNode) os << " and origin " << origin;
  os << ":";
  if (recent.empty()) os << " (none retained)";
  for (std::size_t i = skip; i < recent.size(); ++i)
    os << "\n    " << obs::Journal::format_event(recent[i]);

  // The causal chain behind each node's newest message: the parent-link
  // walk back to the wave root (e.g. the beacon that revealed the
  // head-head edge behind a bad repair).
  const auto dump_chain = [&](NodeId v, const char* label) {
    const auto last = journal.last_event_of(v);
    if (!last) return;
    os << "\n  causal chain of " << label << ' ' << v
       << "'s last send (trace " << last->trace_id << "):";
    for (const auto& e : journal.causal_chain(last->trace_id))
      os << "\n    " << obs::Journal::format_event(e);
  };
  dump_chain(divergent, "node");
  if (origin != kInvalidNode && origin != divergent)
    dump_chain(origin, "origin");
  return os.str();
}

}  // namespace manet::proto
