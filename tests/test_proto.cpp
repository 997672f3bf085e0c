// The message-driven maintenance engine (src/proto): bootstrap fidelity,
// crafted repair scenarios checked against the from-scratch oracle, and
// the equivalence soaks — every tick of a mobility run must land the
// protocol on the bitwise state the snapshot-driven incremental engine
// maintains (both mobility models, both coverage modes).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/state_hash.hpp"
#include "exp/churn.hpp"
#include "exp/mobility_mix.hpp"
#include "geom/point.hpp"
#include "geom/unit_disk.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/pipeline.hpp"
#include "obs/journal.hpp"
#include "obs/session.hpp"
#include "proto/engine.hpp"

namespace manet {
namespace {

proto::EngineOptions oracle_options(core::CoverageMode mode) {
  proto::EngineOptions o;
  o.mode = mode;
  o.oracle_check = true;
  return o;
}

TEST(ProtoEngine, BootstrapMatchesIncrementalEngine) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {2, 0}, {10, 0},
                                  {11, 0}, {12, 0}, {11, 1}};
  for (const core::CoverageMode mode :
       {core::CoverageMode::kTwoPointFiveHop, core::CoverageMode::kThreeHop}) {
    proto::MaintenanceEngine engine(pts, 1.5, 20, 5, oracle_options(mode));
    incr::PipelineOptions popts;
    popts.mode = mode;
    incr::IncrementalPipeline pipeline(pts, 1.5, 20, 5, popts);
    EXPECT_EQ(engine.state_hash(),
              core::backbone_state_hash(pipeline.backbone().view()));
  }
}

// A tick with no staged moves: every node beacons, nobody repairs, the
// state is untouched and the wire carries exactly the n HELLOs.
TEST(ProtoEngine, QuietTickCostsOnlyHellos) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  proto::MaintenanceEngine engine(
      pts, 1.5, 10, 5, oracle_options(core::CoverageMode::kTwoPointFiveHop));
  const std::uint64_t before = engine.state_hash();
  const proto::MaintTickStats stats = engine.tick();
  EXPECT_EQ(engine.state_hash(), before);
  EXPECT_EQ(stats.messages.maint_hello, pts.size());
  EXPECT_EQ(stats.messages.maintenance_total(), pts.size());
  EXPECT_EQ(stats.link_changes, 0u);
  EXPECT_EQ(stats.head_changes, 0u);
}

// Crafted rule-1 merge: two separated clusters {0,1} and {2,3}; node 2
// (a head) moves next to head 0. The new head-head edge forces 2 to
// resign and join 0; node 3, stranded, must declare itself. The engine's
// oracle mode asserts the full repaired structure each tick.
TEST(ProtoEngine, HeadMergeResignsLargerHead) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  proto::MaintenanceEngine engine(
      pts, 1.5, 20, 5, oracle_options(core::CoverageMode::kTwoPointFiveHop));
  ASSERT_TRUE(engine.node(0).is_head());
  ASSERT_TRUE(engine.node(2).is_head());

  engine.stage_move(2, {1.4, 0});
  const proto::MaintTickStats stats = engine.tick();
  EXPECT_TRUE(engine.node(0).is_head());
  EXPECT_FALSE(engine.node(2).is_head());
  EXPECT_EQ(engine.node(2).head(), 0u);
  EXPECT_TRUE(engine.node(3).is_head());  // stranded, self-declared
  EXPECT_GE(stats.head_changes, 2u);

  // Move 2 back: the split must re-form both clusters, oracle-checked.
  engine.stage_move(2, {10, 0});
  engine.tick();
  EXPECT_TRUE(engine.node(2).is_head() || engine.node(2).head() == 3u ||
              engine.node(3).is_head());
  EXPECT_EQ(engine.node(0).head(), 0u);
  EXPECT_EQ(engine.node(1).head(), 0u);
}

// Sustained head churn must recycle RowStore slots through the free
// list: thousands of toggle ticks intern and release hop1/hop2/selection
// rows every tick, and neither the live-row counts nor the slab (slot
// high-water, chunk count) may grow past what the warmup already
// reached — a leaked reference or a dead free list would show up as
// monotone growth here long before it shows up as RSS at scale.
TEST(ProtoEngine, RowStoreRecyclesSlotsUnderSustainedHeadChurn) {
  Rng rng(4242);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 200;
  cfg.range =
      geom::range_for_average_degree(8.0, cfg.nodes, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng, 100);
  ASSERT_TRUE(net.has_value());
  proto::MaintenanceEngine engine(net->positions, cfg.range, cfg.width,
                                  cfg.height, proto::EngineOptions{});

  // Every 20th node toggles between home and a displaced position each
  // tick — far enough (1.2 r) to retire links and flip head duty in its
  // neighborhood, driving the full intern/release cycle.
  std::vector<NodeId> movers;
  for (NodeId v = 0; v < cfg.nodes; v += 20) movers.push_back(v);
  const auto displaced = [&](NodeId v) {
    geom::Point p = net->positions[v];
    p.x += p.x < cfg.width / 2 ? 1.2 * cfg.range : -1.2 * cfg.range;
    return p;
  };
  const auto toggle_tick = [&](bool away) {
    for (const NodeId v : movers)
      engine.stage_move(v, away ? displaced(v) : net->positions[v]);
    engine.tick();
  };

  // Warmup: let the slab reach its churn working set (ends with movers
  // home, so later phase-aligned readings compare like with like).
  for (int t = 0; t < 100; ++t) toggle_tick(t % 2 == 0);
  const proto::RowStore& store = engine.store();
  const std::size_t live1 = store.live_hop1(), live2 = store.live_hop2();
  const std::size_t slots1 = store.slots_hop1(), slots2 = store.slots_hop2();
  const std::size_t chunks1 = store.chunks_hop1();
  const std::size_t chunks2 = store.chunks_hop2();
  const std::uint64_t hash = engine.state_hash();
  ASSERT_GT(slots1, live1);  // churn actually released rows

  for (int t = 0; t < 2000; ++t) toggle_tick(t % 2 == 0);

  // The protocol settles into the period-2 orbit of its drive, so the
  // phase-aligned live counts return exactly to the warmup baseline —
  // and the slab never grew: every row interned during the soak reused
  // a slot the free list recycled.
  EXPECT_EQ(engine.state_hash(), hash);
  EXPECT_EQ(store.live_hop1(), live1);
  EXPECT_EQ(store.live_hop2(), live2);
  EXPECT_EQ(store.slots_hop1(), slots1);
  EXPECT_EQ(store.slots_hop2(), slots2);
  EXPECT_EQ(store.chunks_hop1(), chunks1);
  EXPECT_EQ(store.chunks_hop2(), chunks2);
}

// Every interned row goes back to the store once nothing holds it: a
// connected ladder scatters into 16 isolated nodes, after which every
// node is a head with empty rows, coverage, selection and caches — so
// both live counts must return to zero. A reference the bootstrap or
// the protocol keeps and never releases leaves a row alive here.
TEST(ProtoEngine, RowStoreEmptiesWhenEveryLinkBreaks) {
  std::vector<geom::Point> ladder;
  for (NodeId v = 0; v < 16; ++v)
    ladder.push_back({2.0 + v / 2, 2.0 + v % 2});
  for (const core::CoverageMode mode :
       {core::CoverageMode::kTwoPointFiveHop, core::CoverageMode::kThreeHop}) {
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << ", mode "
                                      << static_cast<int>(mode));
      proto::EngineOptions opts = oracle_options(mode);
      opts.threads = threads;
      proto::MaintenanceEngine engine(ladder, 1.5, 40, 40, opts);
      EXPECT_GT(engine.store().live_hop1(), 0u);
      EXPECT_GT(engine.store().live_hop2(), 0u);

      for (NodeId v = 0; v < 16; ++v)
        engine.stage_move(v, {2.0 + 9.0 * (v % 4), 2.0 + 9.0 * (v / 4)});
      engine.tick();
      engine.tick();
      EXPECT_EQ(engine.clustering().heads.size(), 16u);
      EXPECT_EQ(engine.store().live_hop1(), 0u);
      EXPECT_EQ(engine.store().live_hop2(), 0u);
    }
  }
}

// A member drifting between clusters re-affiliates without disturbing
// either head (rule 2 keep/join path).
TEST(ProtoEngine, MemberHandoffBetweenClusters) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {4, 0}, {5, 0}};
  proto::MaintenanceEngine engine(
      pts, 1.5, 20, 5, oracle_options(core::CoverageMode::kThreeHop));
  ASSERT_EQ(engine.node(1).head(), 0u);

  engine.stage_move(1, {3.2, 0});  // out of 0's range, into 2's
  engine.tick();
  EXPECT_EQ(engine.node(1).head(), 2u);
  EXPECT_TRUE(engine.node(0).is_head());  // lone head keeps its cluster
  EXPECT_TRUE(engine.node(2).is_head());
}

exp::ChurnConfig make_soak(exp::ChurnConfig::Model model,
                           core::CoverageMode mode, std::uint64_t seed) {
  exp::ChurnConfig config;
  config.engine = exp::ChurnConfig::Engine::kProto;
  config.nodes = 60;
  config.degree = 6.0;
  config.ticks = 200;
  config.move_fraction = 0.05;
  config.model = model;
  config.mode = mode;
  config.seed = seed;
  config.connect_attempts = 5;
  config.threads = 0;
  config.rebuild_baseline = false;
  config.crosscheck = true;
  config.oracle_check = true;
  return config;
}

// The acceptance soaks: >= 200 ticks of churn, both the engine-internal
// from-scratch oracle diff and the per-tick hash crosscheck against the
// incremental pipeline enabled. Four combinations.
TEST(ProtoEquivalence, WaypointTwoPointFiveHop) {
  const exp::ChurnResult r = exp::run_churn(make_soak(
      exp::ChurnConfig::Model::kWaypoint,
      core::CoverageMode::kTwoPointFiveHop, 11));
  EXPECT_EQ(r.ticks, 200u);
  EXPECT_DOUBLE_EQ(r.hello_rate, 1.0);
}

TEST(ProtoEquivalence, WaypointThreeHop) {
  const exp::ChurnResult r = exp::run_churn(make_soak(
      exp::ChurnConfig::Model::kWaypoint, core::CoverageMode::kThreeHop, 12));
  EXPECT_EQ(r.ticks, 200u);
}

TEST(ProtoEquivalence, DirectionTwoPointFiveHop) {
  const exp::ChurnResult r = exp::run_churn(make_soak(
      exp::ChurnConfig::Model::kRandomDirection,
      core::CoverageMode::kTwoPointFiveHop, 13));
  EXPECT_EQ(r.ticks, 200u);
}

TEST(ProtoEquivalence, DirectionThreeHop) {
  const exp::ChurnResult r = exp::run_churn(make_soak(
      exp::ChurnConfig::Model::kRandomDirection,
      core::CoverageMode::kThreeHop, 14));
  EXPECT_EQ(r.ticks, 200u);
}

// A correlated shock — 40% of all nodes move in one tick — must still
// reconverge to the oracle state within the tick.
TEST(ProtoEquivalence, MoveBurstReconverges) {
  exp::ChurnConfig config = make_soak(
      exp::ChurnConfig::Model::kWaypoint,
      core::CoverageMode::kTwoPointFiveHop, 21);
  config.ticks = 60;
  config.burst_fraction = 0.4;
  const exp::ChurnResult r = exp::run_churn(config);
  EXPECT_GT(r.burst_rounds, 0u);
  EXPECT_LE(r.burst_rounds, r.max_rounds);
}

// Both engines replay the same trajectory (shared MobilityMix rng
// streams), so the protocol run's final digest must equal the
// incremental run's — without any lockstep help.
TEST(ProtoEquivalence, MatchesRunChurnFinalHash) {
  exp::ChurnConfig base;
  base.nodes = 80;
  base.degree = 6.0;
  base.ticks = 120;
  base.move_fraction = 0.04;
  base.seed = 31;
  base.connect_attempts = 5;
  base.rebuild_baseline = false;

  exp::ChurnConfig proto = base;
  proto.engine = exp::ChurnConfig::Engine::kProto;
  proto.threads = 0;
  const exp::ChurnResult protocol = exp::run_churn(proto);
  const exp::ChurnResult incremental = exp::run_churn(base);
  EXPECT_EQ(protocol.state_hash, incremental.state_hash);
}

// ---- Causal tracing and convergence observability ----

// The crafted head-merge repair with the flight recorder attached: the
// repair wave must land in the event journal as a single connected
// causal chain, rooted at a beacon and spanning at least three node
// tracks — the shape the Perfetto flow arrows render. Sequential and
// sharded ticks alike: a sharded tick journals only the beacons its
// seeds hear, and the chain must still start at one of them.
TEST(ProtoConvergence, WaveChainSpansThreeNodeTracks) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {10, 0}, {11, 0}};
    proto::EngineOptions opts =
        oracle_options(core::CoverageMode::kTwoPointFiveHop);
    opts.threads = threads;
    obs::Session session;
    opts.obs = &session;
    proto::MaintenanceEngine engine(pts, 1.5, 20, 5, opts);
    engine.stage_move(2, {1.4, 0});
    engine.tick();

    // The deepest wave of the repair tick.
    std::optional<obs::JournalEvent> deepest;
    session.journal.for_each([&](const obs::JournalEvent& e) {
      if (!deepest || e.depth > deepest->depth) deepest = e;
    });
    ASSERT_TRUE(deepest.has_value());
    EXPECT_GE(deepest->depth, 3u);

    const std::vector<obs::JournalEvent> chain =
        session.journal.causal_chain(deepest->trace_id);
    ASSERT_GE(chain.size(), 3u);
    EXPECT_EQ(chain.front().parent_id, 0u);  // rooted, not truncated
    EXPECT_EQ(std::string(chain.front().type), "MAINT_HELLO");
    std::set<std::uint32_t> tracks;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      tracks.insert(chain[i].node);
      if (i > 0) {
        EXPECT_EQ(chain[i].parent_id, chain[i - 1].trace_id);
      }
    }
    EXPECT_GE(tracks.size(), 3u);

    // The rule-1 sub-chain: node 2's final resigned R1_STATUS must be
    // caused by head 0's surviving announcement, itself caused by a
    // beacon that revealed the head-head edge.
    std::optional<obs::JournalEvent> resigned;
    session.journal.for_each([&](const obs::JournalEvent& e) {
      if (e.node == 2 && std::string(e.type) == "R1_STATUS" && e.a == 1 &&
          e.b == 0)
        resigned = e;
    });
    ASSERT_TRUE(resigned.has_value());
    const std::vector<obs::JournalEvent> r1_chain =
        session.journal.causal_chain(resigned->trace_id);
    ASSERT_EQ(r1_chain.size(), 3u);
    EXPECT_EQ(std::string(r1_chain[0].type), "MAINT_HELLO");
    EXPECT_EQ(std::string(r1_chain[1].type), "R1_STATUS");
    EXPECT_EQ(r1_chain[1].node, 0u);  // the surviving smaller head
    EXPECT_EQ(r1_chain[1].b, 1u);     // survived
    EXPECT_EQ(r1_chain[0].parent_id, 0u);

    // The convergence families landed in the deterministic snapshot: the
    // resignation and the re-affiliation each pushed a stale-age sample,
    // and the wave observer saw caused messages.
    const std::string json =
        session.registry.snapshot().deterministic().to_json();
    EXPECT_NE(json.find("proto.conv.stale_age"), std::string::npos);
    EXPECT_NE(json.find("proto.conv.wave_depth"), std::string::npos);
    EXPECT_NE(json.find("proto.conv.quiescence_ticks"), std::string::npos);
    EXPECT_NE(json.find("proto.conv.expired_links"), std::string::npos);
  }
}

// ---- Region-sharded execution ----

exp::ChurnConfig sharded_base(exp::ChurnConfig::Model model,
                              std::uint64_t seed) {
  exp::ChurnConfig base;
  base.nodes = 80;
  base.degree = 6.0;
  base.ticks = 120;
  base.move_fraction = 0.04;
  base.model = model;
  base.mode = core::CoverageMode::kTwoPointFiveHop;
  base.seed = seed;
  base.connect_attempts = 5;
  return base;
}

// The denser sharded soak: many concurrent regions per tick.
exp::ChurnConfig dense_sharded_base() {
  exp::ChurnConfig base = sharded_base(exp::ChurnConfig::Model::kWaypoint, 23);
  base.nodes = 150;
  base.ticks = 150;
  base.move_fraction = 0.08;
  return base;
}

// Lockstep hash soak: the sharded engine (at several thread counts) must
// hold the sequential engine's exact state hash after every tick, under
// both mobility models. The sequential engine is itself crosschecked
// against the incremental pipeline elsewhere, so this transitively pins
// the sharded state to the whole equivalence tower.
TEST(ProtoSharded, LockstepMatchesSequentialEngine) {
  const exp::ChurnConfig configs[] = {
      sharded_base(exp::ChurnConfig::Model::kWaypoint, 41),
      sharded_base(exp::ChurnConfig::Model::kRandomDirection, 41),
      dense_sharded_base()};
  for (const exp::ChurnConfig& base : configs) {
    const auto model = base.model;
    exp::MobilityMix seq_mix(base);
    proto::EngineOptions seq_opts;
    seq_opts.mode = base.mode;
    proto::MaintenanceEngine sequential(seq_mix.positions(), seq_mix.range(),
                                        base.width, base.height, seq_opts);

    std::vector<std::unique_ptr<exp::MobilityMix>> mixes;
    std::vector<std::unique_ptr<proto::MaintenanceEngine>> engines;
    const std::size_t thread_counts[] = {1, 2, 8};
    for (const std::size_t threads : thread_counts) {
      mixes.push_back(std::make_unique<exp::MobilityMix>(base));
      proto::EngineOptions opts;
      opts.mode = base.mode;
      opts.threads = threads;
      engines.push_back(std::make_unique<proto::MaintenanceEngine>(
          mixes.back()->positions(), mixes.back()->range(), base.width,
          base.height, opts));
    }

    for (std::size_t tick = 0; tick < base.ticks; ++tick) {
      const std::span<const NodeId> moved =
          seq_mix.advance(seq_mix.movers_per_tick());
      for (const NodeId v : moved)
        sequential.stage_move(v, seq_mix.positions()[v]);
      sequential.tick();
      const std::uint64_t expect = sequential.state_hash();
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const std::span<const NodeId> m =
            mixes[i]->advance(mixes[i]->movers_per_tick());
        for (const NodeId v : m)
          engines[i]->stage_move(v, mixes[i]->positions()[v]);
        engines[i]->tick();
        ASSERT_EQ(engines[i]->state_hash(), expect)
            << "threads=" << thread_counts[i] << " diverged at tick "
            << tick + 1 << " (" << base.nodes << " nodes, model "
            << (model == exp::ChurnConfig::Model::kWaypoint ? "waypoint"
                                                            : "direction")
            << ")";
        ASSERT_EQ(engines[i]->cross_scope_late(), 0u);
      }
    }
  }
}

// The sharded engine under its own oracle: every tick's repaired state
// field-by-field equal to the from-scratch rebuild, plus the lockstep
// crosscheck against the incremental pipeline — run_churn on the
// proto engine at two lanes. Both coverage modes.
TEST(ProtoSharded, OracleSoakBothModes) {
  for (const core::CoverageMode mode :
       {core::CoverageMode::kTwoPointFiveHop, core::CoverageMode::kThreeHop}) {
    exp::ChurnConfig config =
        make_soak(exp::ChurnConfig::Model::kWaypoint, mode, 11);
    config.ticks = 100;
    config.threads = 2;
    const exp::ChurnResult r = exp::run_churn(config);
    EXPECT_EQ(r.ticks, 100u);
    EXPECT_DOUBLE_EQ(r.hello_rate, 1.0);
  }
}

// Deterministic metrics — the net.* delivery layer and the proto.conv.*
// convergence families — must be byte-identical whether the protocol
// runs sequentially or sharded at any thread count, under both mobility
// models. This is the strongest observable-equivalence claim: the bulk
// accounting of everything the scopes skip has to be exact, not close.
TEST(ProtoSharded, MetricsBitwiseEqualAcrossThreads) {
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection}) {
    std::string expected;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{2}, std::size_t{8}}) {
      exp::ChurnConfig config = sharded_base(model, 17);
      config.engine = exp::ChurnConfig::Engine::kProto;
      config.ticks = 80;
      config.rebuild_baseline = false;
      config.threads = threads;
      obs::Session session;
      config.obs = &session;
      exp::run_churn(config);
      const std::string json =
          session.registry.snapshot().deterministic().to_json();
      EXPECT_NE(json.find("net.msg.maint_hello"), std::string::npos);
      EXPECT_NE(json.find("proto.conv.wave_depth"), std::string::npos);
      EXPECT_NE(json.find("proto.conv.stale_age"), std::string::npos);
      EXPECT_NE(json.find("proto.conv.quiescence_ticks"), std::string::npos);
      if (expected.empty())
        expected = json;
      else
        EXPECT_EQ(json, expected)
            << "deterministic snapshot diverged at threads=" << threads;
    }
  }
}

// Partition separation, message level: within a tick, no message may
// cross a repair-region boundary after round 1 (round-1 boundary beacons
// are the expected, bulk-accounted exception). The engine counts every
// scope-filtered late delivery; a soak with heavy churn must end at
// exactly zero — the painted growth of 7 cells strictly contains the
// deepest repair wave the protocol can launch.
TEST(ProtoSharded, NoCrossRegionMessageWithinTick) {
  const exp::ChurnConfig base = dense_sharded_base();
  exp::MobilityMix mix(base);
  proto::EngineOptions opts;
  opts.mode = core::CoverageMode::kTwoPointFiveHop;
  opts.threads = 2;
  proto::MaintenanceEngine engine(mix.positions(), mix.range(), base.width,
                                  base.height, opts);
  for (std::size_t tick = 0; tick < base.ticks; ++tick) {
    const std::span<const NodeId> moved = mix.advance(mix.movers_per_tick());
    for (const NodeId v : moved) engine.stage_move(v, mix.positions()[v]);
    engine.tick();
    ASSERT_EQ(engine.cross_scope_late(), 0u)
        << "a repair wave escaped its painted region at tick " << tick + 1;
  }
}

// One observed sharded soak folded into a single FNV digest: every
// tick's state hash, then every journal event except the MAINT_HELLO
// beacons (round, node, type, trace id, parent id, depth, payload
// summary). The beacons are left out because which of them the sharded
// tick materializes is an execution detail; everything they cause is in.
// A second digest folds every tick's drain counts: a node that skips a
// ledger push changes no state the hash reads, only these stats.
struct ShardedSoak {
  std::uint64_t digest = 14695981039346656037ULL;
  std::uint64_t stats_digest = 14695981039346656037ULL;
  std::size_t scope_nodes = 0;  ///< active regions' scopes, summed over ticks
  std::size_t timed_nodes = 0;
  std::size_t woken_nodes = 0;
};

/// Nodes in the scopes of the last tick's active regions (those with a
/// changed edge), counted through the tracker's scope lookup. Every
/// changed edge has a mover endpoint, whose neighbor row then differs
/// from `rows_before`, so those movers name every active region.
std::size_t active_scope_nodes(
    const proto::MaintenanceEngine& engine, std::span<const NodeId> movers,
    const std::vector<std::vector<NodeId>>& rows_before) {
  const incr::DeltaTracker& tracker = engine.tracker();
  std::set<std::uint32_t> active;
  for (std::size_t i = 0; i < movers.size(); ++i)
    if (!std::ranges::equal(tracker.adjacency().neighbors(movers[i]),
                            rows_before[i]))
      active.insert(tracker.scope_region(movers[i]));
  std::size_t count = 0;
  for (NodeId v = 0; v < engine.size(); ++v)
    if (active.count(tracker.scope_region(v)) != 0) ++count;
  return count;
}

ShardedSoak run_observed_sharded_soak(const exp::ChurnConfig& base,
                                      std::size_t threads) {
  obs::Session session(std::size_t{1} << 18);
  exp::MobilityMix mix(base);
  proto::EngineOptions opts;
  opts.mode = base.mode;
  opts.threads = threads;
  opts.obs = &session;
  proto::MaintenanceEngine engine(mix.positions(), mix.range(), base.width,
                                  base.height, opts);
  ShardedSoak out;
  std::uint64_t& h = out.digest;
  for (std::size_t tick = 0; tick < base.ticks; ++tick) {
    const std::span<const NodeId> moved = mix.advance(mix.movers_per_tick());
    const std::vector<NodeId> movers(moved.begin(), moved.end());
    std::vector<std::vector<NodeId>> rows_before;
    for (const NodeId v : movers) {
      const auto row = engine.tracker().adjacency().neighbors(v);
      rows_before.emplace_back(row.begin(), row.end());
      engine.stage_move(v, mix.positions()[v]);
    }
    const proto::MaintTickStats stats = engine.tick();
    const std::size_t scope = active_scope_nodes(engine, movers, rows_before);
    EXPECT_LE(stats.timed_nodes, scope);
    EXPECT_LE(stats.woken_nodes, scope);
    out.scope_nodes += scope;
    out.timed_nodes += stats.timed_nodes;
    out.woken_nodes += stats.woken_nodes;
    h = core::state_hash_mix(h, engine.state_hash());
    std::uint64_t& sh = out.stats_digest;
    for (const std::uint64_t x :
         {std::uint64_t{stats.rounds}, std::uint64_t{stats.link_changes},
          std::uint64_t{stats.head_changes}, std::uint64_t{stats.role_changes},
          std::uint64_t{stats.rows_changed},
          std::uint64_t{stats.heads_refreshed},
          std::uint64_t{stats.expired_links},
          std::uint64_t{stats.stale_ages.size()}})
      sh = core::state_hash_mix(sh, x);
    for (const std::uint32_t age : stats.stale_ages)
      sh = core::state_hash_mix(sh, age);
  }
  EXPECT_EQ(session.journal.total_recorded(), session.journal.size())
      << "the journal evicted events; the digest would be partial";
  std::size_t folded = 0;
  session.journal.for_each([&](const obs::JournalEvent& e) {
    const std::string type = e.type;
    if (type == "MAINT_HELLO") return;
    ++folded;
    h = core::state_hash_mix(h, e.round);
    h = core::state_hash_mix(h, e.node);
    for (const char c : type)
      h = core::state_hash_mix(h, static_cast<std::uint8_t>(c));
    h = core::state_hash_mix(h, e.trace_id);
    h = core::state_hash_mix(h, e.parent_id);
    h = core::state_hash_mix(h, e.depth);
    h = core::state_hash_mix(h, e.a);
    h = core::state_hash_mix(h, e.b);
  });
  EXPECT_GT(folded, 0u);
  return out;
}

// Golden digests of the sharded engine's observable behavior, recorded
// with every scope node running the beacon round: leaving nodes dormant
// may drop journaled beacons but nothing else, at one thread or two.
// The stats goldens were recorded while the engine still mirrored every
// row it counted. The soaks must also time fewer nodes than their
// scopes hold and wake some dormant ones, or they would not exercise
// the dormant path.
TEST(ProtoSharded, JournalDigestMatchesGolden) {
  struct Case {
    const char* name;
    exp::ChurnConfig base;
    std::uint64_t golden;
    std::uint64_t stats_golden;
  };
  exp::ChurnConfig waypoint =
      sharded_base(exp::ChurnConfig::Model::kWaypoint, 17);
  waypoint.ticks = 80;
  const Case cases[] = {
      {"waypoint seed 17", waypoint, 0x18482cb6c82efec9ULL,
       0x277190da09c009a3ULL},
      {"dense seed 23", dense_sharded_base(), 0xa617aa58ef18a05bULL,
       0xf5ffd132cfa5994dULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ShardedSoak one = run_observed_sharded_soak(c.base, 1);
    const ShardedSoak two = run_observed_sharded_soak(c.base, 2);
    EXPECT_EQ(one.digest, c.golden) << "0x" << std::hex << one.digest;
    EXPECT_EQ(two.digest, c.golden) << "0x" << std::hex << two.digest;
    EXPECT_EQ(one.stats_digest, c.stats_golden)
        << "0x" << std::hex << one.stats_digest;
    EXPECT_EQ(two.stats_digest, c.stats_golden)
        << "0x" << std::hex << two.stats_digest;
    EXPECT_GT(one.woken_nodes, 0u);
    EXPECT_LT(one.timed_nodes, one.scope_nodes);
    EXPECT_EQ(two.scope_nodes, one.scope_nodes);
    EXPECT_EQ(two.timed_nodes, one.timed_nodes);
    EXPECT_EQ(two.woken_nodes, one.woken_nodes);
  }
}

// Divergence forensics end to end: re-introduce the historical
// stale-gateway bug (a cached selected flag surviving the ex-head's
// non-head beacon at link formation), soak until the oracle trips, and
// require the exception to carry the causal slice — the ex-head's
// recent beacon chain — from the event journal.
TEST(ProtoForensics, StaleGatewayFaultDumpsCausalSlice) {
  exp::ChurnConfig config =
      make_soak(exp::ChurnConfig::Model::kWaypoint,
                core::CoverageMode::kTwoPointFiveHop, 5);
  config.ticks = 100;  // seed 5 diverges at tick 96
  config.crosscheck = false;
  config.oracle_check = true;
  config.inject_stale_gateway_fault = true;
  obs::Session session;
  config.obs = &session;
  try {
    exp::run_churn(config);
    FAIL() << "injected stale-gateway fault escaped the oracle";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale gateway flag from resigned ex-head"),
              std::string::npos);
    EXPECT_NE(what.find("forensics: causal slice"), std::string::npos);
    // The slice names the ex-head (origin 55 for this seed) and shows
    // its beacon chain — MAINT_HELLO roots in the recent-sends dump.
    EXPECT_NE(what.find("and origin 55"), std::string::npos);
    EXPECT_NE(what.find("node 55 MAINT_HELLO"), std::string::npos);
    EXPECT_NE(what.find("causal chain of origin 55"), std::string::npos);
  }
}

}  // namespace
}  // namespace manet
