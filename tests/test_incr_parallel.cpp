// Tests for the sharded repair path (src/incr worker_pool + the staged
// IncrementalBackbone::apply) and the depth-2 tick pipeline: the
// WorkerPool primitive (fork-join and submit/wait), oracle equivalence
// of the region-sharded engine at every tick and lane count, and bitwise
// determinism of the maintained state, metrics and churn-record hashes
// across partitions, thread counts and pipeline depths. These suites
// (plus ReplicatorTest/ScenarioTest) are the ones CI runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/state_hash.hpp"
#include "exp/churn.hpp"
#include "geom/unit_disk.hpp"
#include "incr/backbone.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/pipeline.hpp"
#include "incr/worker_pool.hpp"
#include "mobility/waypoint.hpp"
#include "obs/session.hpp"

namespace manet::incr {
namespace {

std::vector<geom::Point> random_layout(std::size_t n, Rng& rng) {
  std::vector<geom::Point> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  return pts;
}

TEST(WorkerPoolTest, RunsEveryJobExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.lanes(), 4u);
  constexpr std::size_t kJobs = 64;
  std::vector<std::atomic<int>> hits(kJobs);
  std::vector<std::atomic<int>> lane_used(4);
  pool.run(kJobs, [&](std::size_t job, std::size_t lane) {
    ASSERT_LT(lane, 4u);
    ++hits[job];
    ++lane_used[lane];
  });
  for (std::size_t j = 0; j < kJobs; ++j) EXPECT_EQ(hits[j].load(), 1);
  // The caller always participates (lane 0 drains at least one job).
  EXPECT_GT(lane_used[0].load(), 0);
}

// A lane count past kMaxLanes (`--threads=-1` cast to SIZE_MAX) is
// rejected before the constructor starts any thread.
TEST(WorkerPoolTest, RejectsLaneCountAboveBound) {
  EXPECT_THROW(WorkerPool pool(std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
}

TEST(WorkerPoolTest, SingleLaneRunsInlineInOrder) {
  WorkerPool pool(1);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t job, std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    order.push_back(job);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, ZeroJobsIsANoOp) {
  WorkerPool pool(3);
  pool.run(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(WorkerPoolTest, RethrowsFirstJobException) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run(16,
                        [&](std::size_t job, std::size_t) {
                          if (job % 4 == 1)
                            throw std::runtime_error("job failed");
                        }),
               std::runtime_error);
  // The pool stays usable after an exceptional batch.
  std::atomic<int> done{0};
  pool.run(8, [&](std::size_t, std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 8);
}

TEST(WorkerPoolTest, ReusableAcrossManyBatches) {
  WorkerPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 50; ++batch)
    pool.run(7, [&](std::size_t, std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 350u);
}

TEST(WorkerPoolTest, SubmitWaitRunsEveryJobOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kJobs = 32;
  std::vector<std::atomic<int>> hits(kJobs);
  WorkerPool::Ticket ticket =
      pool.submit(kJobs, [&](std::size_t job, std::size_t) { ++hits[job]; });
  EXPECT_TRUE(ticket);
  pool.wait(ticket);
  EXPECT_FALSE(ticket);
  for (std::size_t j = 0; j < kJobs; ++j) EXPECT_EQ(hits[j].load(), 1);
}

TEST(WorkerPoolTest, SingleLaneSubmitDefersUntilWait) {
  // With no workers the async batch cannot make progress on its own;
  // wait() must execute it on the calling thread (this is what lets a
  // threads=1 pipeline still run at pipeline_depth 2).
  WorkerPool pool(1);
  int ran = 0;
  WorkerPool::Ticket ticket =
      pool.submit(3, [&](std::size_t, std::size_t lane) {
        EXPECT_EQ(lane, 0u);
        ++ran;
      });
  EXPECT_EQ(ran, 0);
  pool.wait(ticket);
  EXPECT_EQ(ran, 3);
}

TEST(WorkerPoolTest, WaitRethrowsAndPoolSurvives) {
  WorkerPool pool(2);
  WorkerPool::Ticket ticket = pool.submit(8, [&](std::size_t job,
                                                 std::size_t) {
    if (job == 5) throw std::runtime_error("async job failed");
  });
  EXPECT_THROW(pool.wait(ticket), std::runtime_error);
  std::atomic<int> done{0};
  pool.run(4, [&](std::size_t, std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 4);
}

TEST(WorkerPoolTest, DestructorDrainsUnwaitedBatch) {
  // A submitted batch that is never waited on must still run exactly
  // once before the workers exit (the pipeline relies on join-on-
  // destruction; the pool backstops it).
  std::vector<std::atomic<int>> hits(16);
  {
    WorkerPool pool(4);
    (void)pool.submit(16,
                      [&](std::size_t job, std::size_t) { ++hits[job]; });
  }
  for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(hits[j].load(), 1);
}

/// One tick of corner-structured churn, the move stream of every soak
/// below. Uniformly random teleports almost always fuse into one region
/// (each staged node paints two 7x7 cell blocks; on practical grids they
/// chain together), which would leave the sharded path untested. So
/// each tick teleports one node inside each of four corner areas far
/// enough apart that they must land in distinct regions, plus one
/// global random teleporter whose old/new blocks keep exercising the
/// cross-region merge paths. Updates `positions` and sets `movers`.
void corner_churn(std::vector<geom::Point>& positions, Rng& rng,
                  std::vector<NodeId>& movers) {
  // Corner areas: 24x24 boxes whose painted blocks stay disjoint (edge
  // gap 46 units >= 7 grid cells at every tested n/degree).
  const geom::Point anchors[] = {{15, 15}, {85, 15}, {15, 85}, {85, 85}};
  constexpr double kHalf = 12.0;
  const std::size_t n = positions.size();
  movers.clear();
  for (const geom::Point a : anchors) {
    std::vector<NodeId> near;
    for (std::size_t v = 0; v < n; ++v)
      if (std::abs(positions[v].x - a.x) <= kHalf &&
          std::abs(positions[v].y - a.y) <= kHalf)
        near.push_back(static_cast<NodeId>(v));
    ASSERT_FALSE(near.empty());
    const NodeId v = near[rng.index(near.size())];
    positions[v] = {rng.uniform(a.x - kHalf, a.x + kHalf),
                    rng.uniform(a.y - kHalf, a.y + kHalf)};
    movers.push_back(v);
  }
  movers.push_back(static_cast<NodeId>(rng.index(n)));
  positions[movers.back()] = {rng.uniform(0, 100), rng.uniform(0, 100)};
}

/// Oracle soak with the sharded engine: every tick rebuilds everything
/// from scratch and MANET_REQUIREs bitwise equality, so any divergence
/// introduced by the region or chunk staging fails loudly here, at one
/// lane as at several.
void run_parallel_oracle(std::size_t n, double degree, std::size_t ticks,
                         std::size_t threads, std::uint64_t seed) {
  Rng rng(seed);
  const double range = geom::range_for_average_degree(degree, n, 100, 100);
  auto positions = random_layout(n, rng);

  PipelineOptions opts;
  opts.mode = core::CoverageMode::kTwoPointFiveHop;
  opts.oracle_check = true;
  opts.threads = threads;
  IncrementalPipeline pipeline(positions, range, 100, 100, opts);

  std::size_t multi_region_ticks = 0;
  std::vector<NodeId> movers;
  for (std::size_t t = 0; t < ticks; ++t) {
    ASSERT_NO_FATAL_FAILURE(corner_churn(positions, rng, movers));
    for (const NodeId v : movers) pipeline.stage_move(v, positions[v]);

    TickStats stats{};
    ASSERT_NO_THROW(stats = pipeline.tick())
        << "oracle mismatch at tick " << t;
    if (stats.regions >= 2) ++multi_region_ticks;
  }
  // The soak must actually exercise multi-region ticks, not degenerate
  // to one region holding the whole delta.
  EXPECT_GT(multi_region_ticks, ticks / 2);
}

// Region partitioning needs grid cells to spare: with degree d the cell
// side tracks the radio range, so the grid is ~sqrt(n*pi/d) cells wide
// and each staged node paints two 7x7 blocks. Sparse n=1000 gives a
// 22x22 grid (regions split routinely); dense d=18 needs n=2000 for a
// comparable 18x18 grid.
TEST(ParallelOracleTest, TeleportSparseThreads1) {
  run_parallel_oracle(1000, 6.0, 100, 1, 810);
}

TEST(ParallelOracleTest, TeleportSparseThreads2) {
  run_parallel_oracle(1000, 6.0, 100, 2, 811);
}

TEST(ParallelOracleTest, TeleportSparseThreads8) {
  run_parallel_oracle(1000, 6.0, 100, 8, 812);
}

TEST(ParallelOracleTest, TeleportDenseThreads4) {
  run_parallel_oracle(2000, 18.0, 40, 4, 813);
}

TEST(ParallelOracleTest, WaypointMotionThreads4) {
  // Local waypoint motion (the bench's workload), sharded, oracle on.
  Rng rng(814);
  const std::size_t n = 1000;
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  const auto initial = random_layout(n, rng);
  mobility::WaypointModel model(initial, mobility::WaypointConfig{},
                                Rng(derive_seed(814, 1, 0)));
  PipelineOptions opts;
  opts.mode = core::CoverageMode::kTwoPointFiveHop;
  opts.oracle_check = true;
  opts.threads = 4;
  IncrementalPipeline pipeline(initial, range, 100, 100, opts);
  Rng pick(derive_seed(814, 2, 0));
  for (std::size_t t = 0; t < 100; ++t) {
    std::vector<NodeId> moved;
    for (std::size_t j = 0; j < 12; ++j)
      moved.push_back(static_cast<NodeId>(pick.index(n)));
    model.step_nodes(moved, 1.0);
    for (const NodeId v : moved) pipeline.stage_move(v, model.positions()[v]);
    ASSERT_NO_THROW(pipeline.tick()) << "oracle mismatch at tick " << t;
  }
}

TEST(ParallelDeterminismTest, LockstepStateIdenticalAcrossThreadCounts) {
  // Three pipelines fed identical move streams at threads 1 / 2 / 8;
  // after every tick the maintained structures must be bit-identical
  // (diff_backbones checks clustering, tables, coverage, selections, CDS).
  Rng rng(815);
  const std::size_t n = 1000;
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  auto positions = random_layout(n, rng);

  const auto make = [&](std::size_t threads) {
    PipelineOptions opts;
    opts.mode = core::CoverageMode::kTwoPointFiveHop;
    opts.threads = threads;
    return IncrementalPipeline(positions, range, 100, 100, opts);
  };
  IncrementalPipeline p1 = make(1);
  IncrementalPipeline p2 = make(2);
  IncrementalPipeline p8 = make(8);

  // Corner-structured churn so most ticks are genuinely multi-region.
  std::vector<NodeId> movers;
  for (std::size_t t = 0; t < 80; ++t) {
    ASSERT_NO_FATAL_FAILURE(corner_churn(positions, rng, movers));
    for (const NodeId v : movers) {
      p1.stage_move(v, positions[v]);
      p2.stage_move(v, positions[v]);
      p8.stage_move(v, positions[v]);
    }
    const TickStats s1 = p1.tick();
    const TickStats s2 = p2.tick();
    const TickStats s8 = p8.tick();
    ASSERT_EQ(
        core::diff_backbones(p1.backbone().view(), p2.backbone().view()), "")
        << "threads=2 diverged at tick " << t;
    ASSERT_EQ(
        core::diff_backbones(p1.backbone().view(), p8.backbone().view()), "")
        << "threads=8 diverged at tick " << t;
    // Tick accounting is part of the determinism contract too.
    EXPECT_EQ(s1.link_changes, s2.link_changes);
    EXPECT_EQ(s1.head_changes, s2.head_changes);
    EXPECT_EQ(s1.role_changes, s8.role_changes);
    EXPECT_EQ(s1.backbone_changes, s8.backbone_changes);
    EXPECT_EQ(s1.rows_recomputed, s8.rows_recomputed);
    EXPECT_EQ(s1.regions, s2.regions);
    EXPECT_EQ(s1.regions, s8.regions);
  }
}

/// Every TickStats field that must not depend on how a tick's repair
/// was split or scheduled (all but `regions`).
void expect_same_tick_stats(const TickStats& a, const TickStats& b,
                            std::size_t tick) {
  EXPECT_EQ(a.link_changes, b.link_changes) << "tick " << tick;
  EXPECT_EQ(a.cluster_churn.heads_resigned, b.cluster_churn.heads_resigned)
      << "tick " << tick;
  EXPECT_EQ(a.cluster_churn.heads_declared, b.cluster_churn.heads_declared)
      << "tick " << tick;
  EXPECT_EQ(a.cluster_churn.reaffiliations, b.cluster_churn.reaffiliations)
      << "tick " << tick;
  EXPECT_EQ(a.head_changes, b.head_changes) << "tick " << tick;
  EXPECT_EQ(a.role_changes, b.role_changes) << "tick " << tick;
  EXPECT_EQ(a.backbone_changes, b.backbone_changes) << "tick " << tick;
  EXPECT_EQ(a.coverage_changes, b.coverage_changes) << "tick " << tick;
  EXPECT_EQ(a.rows_recomputed, b.rows_recomputed) << "tick " << tick;
  EXPECT_EQ(a.heads_reselected, b.heads_reselected) << "tick " << tick;
}

TEST(ParallelDeterminismTest, LockstepApplyIdenticalAcrossPartitionAndPool) {
  // One DeltaTracker's deltas feed three backbones: the whole delta as
  // one region, the region partition inline on one lane, and the
  // partition on a four-lane pool. After every tick the three must hold
  // bit-identical state and report identical tick accounting.
  Rng rng(817);
  const std::size_t n = 1000;
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, 100, 100);
  const auto mode = core::CoverageMode::kTwoPointFiveHop;
  IncrementalBackbone whole(tracker.adjacency(), mode);
  IncrementalBackbone regions(tracker.adjacency(), mode);
  IncrementalBackbone pooled(tracker.adjacency(), mode);
  WorkerPool pool4(4);
  RegionPartition partition;

  std::size_t multi_region_ticks = 0;
  std::vector<NodeId> movers;
  for (std::size_t t = 0; t < 80; ++t) {
    ASSERT_NO_FATAL_FAILURE(corner_churn(positions, rng, movers));
    for (const NodeId v : movers) tracker.stage_move(v, positions[v]);
    const EdgeDelta d = tracker.commit(&partition);
    const graph::DynamicAdjacency& g = tracker.adjacency();
    const TickStats s_whole = whole.apply(g, d);
    const TickStats s_regions = regions.apply(g, d, &partition);
    const TickStats s_pooled = pooled.apply(g, d, &partition, &pool4);
    ASSERT_EQ(core::diff_backbones(whole.view(), regions.view()), "")
        << "one-lane partitioned repair diverged at tick " << t;
    ASSERT_EQ(core::diff_backbones(whole.view(), pooled.view()), "")
        << "four-lane partitioned repair diverged at tick " << t;
    expect_same_tick_stats(s_whole, s_regions, t);
    expect_same_tick_stats(s_whole, s_pooled, t);
    EXPECT_EQ(s_whole.regions, 0u);
    EXPECT_EQ(s_regions.regions, partition.count);
    EXPECT_EQ(s_pooled.regions, partition.count);
    if (partition.count >= 2) ++multi_region_ticks;
  }
  EXPECT_GT(multi_region_ticks, 40u);
}

TEST(ParallelDeterminismTest, ChurnSoakHashAndMetricsIdentical) {
  // The bench-level contract: run_churn differing only in `threads`
  // produces the same final state hash and the same deterministic
  // metric snapshot. The filter drops the scheduling-plane families
  // (`.lane.` timings, `.pool.` gauges) — those legitimately vary with
  // the lane count; everything else must match byte for byte.
  const auto run_at = [](std::size_t threads, std::string* metrics) {
    exp::ChurnConfig config;
    config.nodes = 1000;
    config.degree = 6.0;
    config.ticks = 60;
    config.move_fraction = 0.02;
    config.seed = 42;
    config.rebuild_baseline = false;
    config.threads = threads;
    obs::Session session;
    config.obs = &session;
    const exp::ChurnResult r = exp::run_churn(config);
    *metrics = session.registry.snapshot().deterministic().to_json();
    return r;
  };
  std::string m1, m2, m8;
  const exp::ChurnResult r1 = run_at(1, &m1);
  const exp::ChurnResult r2 = run_at(2, &m2);
  const exp::ChurnResult r8 = run_at(8, &m8);
  EXPECT_NE(r1.state_hash, 0u);
  EXPECT_EQ(r1.state_hash, r2.state_hash);
  EXPECT_EQ(r1.state_hash, r8.state_hash);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m8);
  EXPECT_DOUBLE_EQ(r1.mean_regions, r8.mean_regions);
}

TEST(PipelinedDeterminismTest, LockstepPipelinedMatchesSequential) {
  // A depth-2 pipeline fed the same move stream as the synchronous
  // engine must land on the bit-identical maintained state after
  // drain(), and its per-tick accounting — shifted one tick late by the
  // pipeline — must aggregate to the same totals.
  Rng rng(816);
  const std::size_t n = 1000;
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  auto positions = random_layout(n, rng);

  const auto make = [&](std::size_t threads, std::size_t depth) {
    PipelineOptions opts;
    opts.mode = core::CoverageMode::kTwoPointFiveHop;
    opts.threads = threads;
    opts.pipeline_depth = depth;
    return IncrementalPipeline(positions, range, 100, 100, opts);
  };
  IncrementalPipeline sync = make(1, 1);
  IncrementalPipeline piped1 = make(1, 2);
  IncrementalPipeline piped8 = make(8, 2);

  std::size_t sync_links = 0, piped1_links = 0, piped8_links = 0;
  std::vector<NodeId> movers;
  for (std::size_t t = 0; t < 80; ++t) {
    ASSERT_NO_FATAL_FAILURE(corner_churn(positions, rng, movers));
    for (const NodeId v : movers) {
      sync.stage_move(v, positions[v]);
      piped1.stage_move(v, positions[v]);
      piped8.stage_move(v, positions[v]);
    }
    sync_links += sync.tick().link_changes;
    piped1_links += piped1.tick().link_changes;
    piped8_links += piped8.tick().link_changes;
  }
  piped1_links += piped1.drain().link_changes;
  piped8_links += piped8.drain().link_changes;
  EXPECT_EQ(
      core::diff_backbones(sync.backbone().view(), piped1.backbone().view()),
      "");
  EXPECT_EQ(
      core::diff_backbones(sync.backbone().view(), piped8.backbone().view()),
      "");
  EXPECT_EQ(sync_links, piped1_links);
  EXPECT_EQ(sync_links, piped8_links);
  EXPECT_GT(sync_links, 0u);
  // drain() is idempotent once everything has been joined.
  EXPECT_EQ(piped8.drain().link_changes, 0u);
}

TEST(PipelinedDeterminismTest, BackboneReadsWaitForDrain) {
  // While a depth-2 repair is in flight a worker writes the backbone, so
  // reading it races; the accessors refuse until drain().
  Rng rng(817);
  const std::size_t n = 400;
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  auto positions = random_layout(n, rng);
  PipelineOptions opts;
  opts.threads = 2;
  opts.pipeline_depth = 2;
  IncrementalPipeline p(positions, range, 100, 100, opts);
  std::vector<NodeId> movers;
  ASSERT_NO_FATAL_FAILURE(corner_churn(positions, rng, movers));
  for (const NodeId v : movers) p.stage_move(v, positions[v]);
  p.tick();
  EXPECT_THROW(p.view(), std::invalid_argument);
  EXPECT_THROW(p.backbone(), std::invalid_argument);
  EXPECT_THROW(p.clustering(), std::invalid_argument);
  p.drain();
  EXPECT_EQ(p.view().clustering().head_of.size(), n);
}

TEST(PipelinedDeterminismTest, MaintainedSetsMatchSelectionsAndViewIsTheStore) {
  // The gateway union and the CDS are kept sorted by merging each tick's
  // flips, not derived on read: after every tick they must equal what
  // the selection rows and heads define, and the view must hand out the
  // maintained sets themselves, not copies.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      Rng rng(818);
      const std::size_t n = 300;
      const double range = geom::range_for_average_degree(6.0, n, 100, 100);
      const auto positions = random_layout(n, rng);
      PipelineOptions opts;
      opts.threads = threads;
      opts.pipeline_depth = depth;
      IncrementalPipeline p(positions, range, 100, 100, opts);
      std::size_t flips = 0;
      for (std::size_t t = 0; t < 48; ++t) {
        for (int k = 0; k < 6; ++k)
          p.stage_move(static_cast<NodeId>(rng.index(n)),
                       {rng.uniform(0, 100), rng.uniform(0, 100)});
        flips += p.tick().backbone_changes;
        flips += p.drain().backbone_changes;
        const IncrementalBackbone& b = p.backbone();
        NodeSet selected;
        for (const NodeId h : b.clustering().heads)
          for (const NodeId v : b.selection()[h]) selected.push_back(v);
        normalize(selected);
        ASSERT_EQ(b.gateways(), selected)
            << "threads " << threads << " depth " << depth << " tick " << t;
        ASSERT_EQ(b.cds(), set_union(b.clustering().heads, b.gateways()))
            << "threads " << threads << " depth " << depth << " tick " << t;
        ASSERT_EQ(&p.view().gateways(), &b.gateways());
        ASSERT_EQ(&p.view().cds(), &b.cds());
      }
      EXPECT_GT(flips, 0u) << "threads " << threads << " depth " << depth;
    }
  }
}

TEST(PipelinedDeterminismTest, ChurnPipelinedHashAndMetricsIdentical) {
  // run_churn at pipeline_depth 2, threads {1, 2, 8}: same final state
  // hash and same deterministic metric snapshot as the synchronous
  // depth-1 run (the pipeline_depth gauge sits under `.pool.` exactly
  // so this filtered comparison can hold).
  const auto run_at = [](std::size_t threads, std::size_t depth,
                         std::string* metrics) {
    exp::ChurnConfig config;
    config.nodes = 1000;
    config.degree = 6.0;
    config.ticks = 60;
    config.move_fraction = 0.02;
    config.seed = 43;
    config.rebuild_baseline = false;
    config.threads = threads;
    config.pipeline_depth = depth;
    obs::Session session;
    config.obs = &session;
    const exp::ChurnResult r = exp::run_churn(config);
    *metrics = session.registry.snapshot().deterministic().to_json();
    return r;
  };
  std::string base_metrics;
  const exp::ChurnResult base = run_at(1, 1, &base_metrics);
  EXPECT_NE(base.state_hash, 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    std::string metrics;
    const exp::ChurnResult piped = run_at(threads, 2, &metrics);
    EXPECT_EQ(piped.state_hash, base.state_hash)
        << "pipelined engine diverged at threads=" << threads;
    EXPECT_EQ(metrics, base_metrics)
        << "metric snapshot diverged at threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, StreamingBuildChurnHashMatchesEdgeListBuild) {
  // The million-node machinery (streaming cold build + sharded settling)
  // must land on the same final state hash as the edge-list build on the
  // sequential engine, at every thread count. This is the equivalence
  // the bench's --scale verify stage gates on.
  const auto run_at = [](bool streaming, std::size_t threads) {
    exp::ChurnConfig config;
    config.nodes = 1000;
    config.degree = 6.0;
    config.ticks = 50;
    config.move_fraction = 0.02;
    config.seed = 77;
    config.rebuild_baseline = false;
    config.streaming_build = streaming;
    config.threads = threads;
    return exp::run_churn(config);
  };
  const exp::ChurnResult edge_list = run_at(false, 1);
  EXPECT_NE(edge_list.state_hash, 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const exp::ChurnResult streamed = run_at(true, threads);
    EXPECT_EQ(streamed.state_hash, edge_list.state_hash)
        << "streaming build diverged at threads=" << threads;
  }
}

}  // namespace
}  // namespace manet::incr
