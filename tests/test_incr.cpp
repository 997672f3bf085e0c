// Tests for the incremental backbone maintenance engine (src/incr).
//
// The load-bearing suites are the oracle equivalence runs: hundreds of
// mobility ticks where the pipeline itself asserts, after every tick,
// that the incrementally repaired adjacency, clustering, neighbor
// tables, coverage sets, gateway selections and CDS are bit-identical
// to a from-scratch rebuild over the current positions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/lcc.hpp"
#include "cluster/lowest_id.hpp"
#include "common/rng.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "exp/churn.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/unit_disk.hpp"
#include "graph/dynamic_adjacency.hpp"
#include "graph/graph.hpp"
#include "incr/backbone.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/edge_delta.hpp"
#include "incr/pipeline.hpp"
#include "incr/worker_pool.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/waypoint.hpp"

namespace manet::incr {
namespace {

std::vector<geom::Point> random_layout(std::size_t n, Rng& rng) {
  std::vector<geom::Point> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  return pts;
}

TEST(DynamicAdjacencyTest, MirrorsEditsAndFreezesToCsr) {
  graph::DynamicAdjacency adj(5);
  EXPECT_EQ(adj.order(), 5u);
  EXPECT_EQ(adj.edge_count(), 0u);
  EXPECT_TRUE(adj.add_edge(1, 3));
  EXPECT_FALSE(adj.add_edge(3, 1));  // duplicate
  EXPECT_TRUE(adj.add_edge(1, 2));
  EXPECT_TRUE(adj.has_edge(2, 1));
  EXPECT_EQ(adj.degree(1), 2u);
  EXPECT_TRUE(adj.remove_edge(3, 1));
  EXPECT_FALSE(adj.remove_edge(3, 1));  // already gone
  EXPECT_EQ(adj.edge_count(), 1u);
  const graph::Graph g = adj.freeze();
  EXPECT_EQ(g.edges(), (std::vector<std::pair<NodeId, NodeId>>{{1, 2}}));
  EXPECT_THROW(adj.add_edge(2, 2), std::invalid_argument);
}

TEST(DynamicAdjacencyTest, RoundTripsAnExistingGraph) {
  Rng rng(21);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(8.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const graph::DynamicAdjacency adj(net->graph);
  EXPECT_EQ(adj.edge_count(), net->graph.edge_count());
  EXPECT_EQ(adj.freeze().edges(), net->graph.edges());
}

/// freeze() concatenates the per-vertex rows as they stand, so it is only
/// right while every row stays sorted and symmetric: compare it, row by
/// row, with a GraphBuilder build of the edge set the test tracked itself.
void expect_freeze_matches(const graph::DynamicAdjacency& adj,
                           const std::set<std::pair<NodeId, NodeId>>& edges) {
  graph::GraphBuilder builder(adj.order());
  for (const auto& [u, v] : edges) builder.edge(u, v);
  const graph::Graph want = builder.build();
  const graph::Graph got = adj.freeze();
  ASSERT_EQ(got.order(), want.order());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(got.edge_count(), adj.edge_count());
  for (NodeId v = 0; v < want.order(); ++v) {
    const auto g_row = got.neighbors(v);
    const auto w_row = want.neighbors(v);
    EXPECT_TRUE(std::equal(g_row.begin(), g_row.end(), w_row.begin(),
                           w_row.end()))
        << "row " << v;
  }
}

TEST(DynamicAdjacencyTest, FreezeOfEmptyAndIsolatedVertices) {
  expect_freeze_matches(graph::DynamicAdjacency(0), {});
  expect_freeze_matches(graph::DynamicAdjacency(6), {});
  graph::DynamicAdjacency adj(7);
  adj.add_edge(5, 2);
  expect_freeze_matches(adj, {{2, 5}});
  adj.remove_edge(2, 5);
  expect_freeze_matches(adj, {});
}

TEST(DynamicAdjacencyTest, FreezeMatchesBuilderUnderRandomEdits) {
  constexpr std::size_t kOrder = 500;
  Rng rng(2024);
  graph::DynamicAdjacency adj(kOrder);
  std::set<std::pair<NodeId, NodeId>> edges;
  std::vector<std::pair<NodeId, NodeId>> live;  // for picking removals
  for (int op = 1; op <= 2000; ++op) {
    if (!live.empty() && rng.chance(0.35)) {
      const std::size_t k = rng.index(live.size());
      const auto [u, v] = live[k];
      live[k] = live.back();
      live.pop_back();
      EXPECT_TRUE(rng.chance(0.5) ? adj.remove_edge(u, v)
                                  : adj.remove_edge(v, u));
      edges.erase({u, v});
    } else {
      const auto a = static_cast<NodeId>(rng.below(kOrder));
      const auto b = static_cast<NodeId>(rng.below(kOrder));
      if (a == b) continue;
      const std::pair e{std::min(a, b), std::max(a, b)};
      const bool fresh = edges.insert(e).second;
      EXPECT_EQ(adj.add_edge(a, b), fresh);
      if (fresh) live.push_back(e);
    }
    if (op % 250 == 0) expect_freeze_matches(adj, edges);
  }
  EXPECT_GT(edges.size(), 500u);
}

TEST(EdgeDeltaTest, DiffGraphsFindsExactChanges) {
  const auto before = graph::make_graph(5, {{0, 1}, {1, 2}, {3, 4}});
  const auto after = graph::make_graph(5, {{0, 1}, {2, 3}, {3, 4}});
  const EdgeDelta delta = diff_graphs(before, after);
  EXPECT_EQ(delta.added, (std::vector<std::pair<NodeId, NodeId>>{{2, 3}}));
  EXPECT_EQ(delta.removed, (std::vector<std::pair<NodeId, NodeId>>{{1, 2}}));
  EXPECT_EQ(delta.touched, (NodeSet{1, 2, 3}));
  EXPECT_EQ(delta.link_changes(), 2u);
  EXPECT_FALSE(delta.empty());
  EXPECT_TRUE(diff_graphs(before, before).empty());
}

TEST(DeltaTrackerTest, TracksUnitDiskGraphUnderTeleports) {
  Rng rng(33);
  const std::size_t n = 80;
  const double range = geom::range_for_average_degree(8.0, n, 100, 100);
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, 100, 100);
  EXPECT_EQ(tracker.adjacency().freeze().edges(),
            geom::unit_disk_graph(positions, range).edges());

  for (int round = 0; round < 40; ++round) {
    // Teleport a handful of nodes anywhere in the space — the worst case
    // for a tracker (arbitrary cell migrations), impossible for gradual
    // motion to cover.
    const std::size_t movers = 1 + rng.index(5);
    for (std::size_t j = 0; j < movers; ++j) {
      const auto v = static_cast<NodeId>(rng.index(n));
      const geom::Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
      positions[v] = p;
      tracker.stage_move(v, p);
    }
    const EdgeDelta delta = tracker.commit();
    const auto expected = geom::unit_disk_graph(positions, range).edges();
    ASSERT_EQ(tracker.adjacency().freeze().edges(), expected)
        << "overlay diverged at round " << round;
    // The delta must be internally consistent with the overlay it built.
    for (const auto& [u, w] : delta.added)
      EXPECT_TRUE(tracker.adjacency().has_edge(u, w));
    for (const auto& [u, w] : delta.removed)
      EXPECT_FALSE(tracker.adjacency().has_edge(u, w));
  }
}

void expect_adjacency_matches(const DeltaTracker& tracker,
                              const std::vector<geom::Point>& positions,
                              double range, int round) {
  ASSERT_EQ(tracker.adjacency().freeze().edges(),
            geom::unit_disk_graph(positions, range).edges())
      << "overlay diverged at round " << round;
}

TEST(DeltaTrackerPropertyTest, CellBoundaryOscillation) {
  // Half the population parked on a vertical cell edge, nudged across it
  // and back every commit: maximal cell-migration churn from near-zero
  // motion, the worst case for the bucket bookkeeping.
  Rng rng(501);
  const std::size_t n = 60;
  const double range = 10.0;
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, 100, 100);
  for (int round = 0; round < 60; ++round) {
    for (NodeId v = 0; v < n; v += 2) {
      const double edge = std::round(positions[v].x / range) * range;
      const double eps = (round % 2 == 0) ? 1e-7 : -1e-7;
      positions[v].x = std::clamp(edge + eps, 0.0, 100.0);
      tracker.stage_move(v, positions[v]);
    }
    tracker.commit();
    expect_adjacency_matches(tracker, positions, range, round);
  }
}

TEST(DeltaTrackerPropertyTest, MassTeleportAllNodes) {
  // Every node teleports every commit — nothing incremental left to
  // exploit, the overlay must still equal the from-scratch graph.
  Rng rng(502);
  const std::size_t n = 120;
  const double range = geom::range_for_average_degree(8.0, n, 100, 100);
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, 100, 100);
  RegionPartition regions;
  for (int round = 0; round < 25; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      positions[v] = {rng.uniform(0, 100), rng.uniform(0, 100)};
      tracker.stage_move(v, positions[v]);
    }
    tracker.commit(&regions);
    expect_adjacency_matches(tracker, positions, range, round);
    EXPECT_GE(regions.count, 1u);
  }
}

TEST(DeltaTrackerPropertyTest, AllNodesIntoOneCell) {
  // The density extremes: everyone converges into one cell (a clique in
  // one bucket), then scatters back out.
  Rng rng(503);
  const std::size_t n = 80;
  const double range = 10.0;
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, 100, 100);
  for (int round = 0; round < 6; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      positions[v] =
          (round % 2 == 0)
              ? geom::Point{55.0 + rng.uniform(0, 4), 55.0 + rng.uniform(0, 4)}
              : geom::Point{rng.uniform(0, 100), rng.uniform(0, 100)};
      tracker.stage_move(v, positions[v]);
    }
    tracker.commit();
    expect_adjacency_matches(tracker, positions, range, round);
  }
}

TEST(DeltaTrackerPropertyTest, RoamingFlockStaysOnTheClampedLattice) {
  // A marching flock over a field far wider than sqrt(n) ranges: every
  // round the whole population teleports into a fresh patch of the
  // world. The 500x500-cell lattice clamps to ceil(sqrt(4n)) + 1 cells a
  // side, so each cell is ~29 ranges wide and the flock shares one or
  // two buckets — and the overlay must still match the from-scratch
  // graph exactly.
  Rng rng(506);
  const std::size_t n = 60;
  const double range = 2.0;
  std::vector<geom::Point> positions;
  for (std::size_t i = 0; i < n; ++i)
    positions.push_back({rng.uniform(0, 8), rng.uniform(0, 8)});
  DeltaTracker tracker(positions, range, 1000, 1000);
  const auto side = static_cast<std::size_t>(
                        std::ceil(std::sqrt(4.0 * static_cast<double>(n)))) +
                    1;
  for (int round = 0; round < 80; ++round) {
    const double ox = rng.uniform(0, 992);
    const double oy = rng.uniform(0, 992);
    for (NodeId v = 0; v < n; ++v) {
      positions[v] = {ox + rng.uniform(0, 8), oy + rng.uniform(0, 8)};
      tracker.stage_move(v, positions[v]);
    }
    tracker.commit();
    expect_adjacency_matches(tracker, positions, range, round);
    ASSERT_LE(tracker.cols() * tracker.rows(), side * side)
        << "lattice outgrew its O(n) clamp at round " << round;
  }
}

TEST(DeltaTrackerTest, DegreeCalibratedLayoutsKeepTheFullLattice) {
  // The paper's layouts (n nodes uniform in 100 x 100, the range set for
  // mean degree d) need about n * pi / d cells, within both grids'
  // clamps for every d >= pi / 4. So neither grid coarsens them: the
  // tracker keeps floor(100 / r) cells a side, and SpatialGrid
  // floor(extent / r) of the layout's bounding box.
  Rng rng(508);
  for (const std::size_t n : {std::size_t{100}, std::size_t{10000}})
    for (const double d : {6.0, 18.0}) {
      SCOPED_TRACE("n " + std::to_string(n) + " d " + std::to_string(d));
      const double r = geom::range_for_average_degree(d, n, 100, 100);
      const auto positions = random_layout(n, rng);
      const DeltaTracker tracker(positions, r, 100, 100);
      EXPECT_EQ(tracker.cols(), static_cast<std::size_t>(100 / r));
      EXPECT_EQ(tracker.rows(), static_cast<std::size_t>(100 / r));
      double min_x = positions[0].x, max_x = positions[0].x;
      double min_y = positions[0].y, max_y = positions[0].y;
      for (const geom::Point& p : positions) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
      }
      const geom::SpatialGrid grid(positions, r);
      EXPECT_EQ(grid.cols(), static_cast<std::size_t>((max_x - min_x) / r));
      EXPECT_EQ(grid.rows(), static_cast<std::size_t>((max_y - min_y) / r));
    }
}

TEST(DeltaTrackerTest, DeferredCommitMatchesImmediate) {
  // defer_adjacency splits commit into scan + apply_delta; the delta
  // and the post-apply overlay must be identical to the immediate path,
  // with and without a pool (the pipelined engine relies on this).
  Rng rng(507);
  const std::size_t n = 150;
  const double range = geom::range_for_average_degree(8.0, n, 100, 100);
  auto positions = random_layout(n, rng);
  DeltaTracker immediate(positions, range, 100, 100);
  DeltaTracker deferred(positions, range, 100, 100);
  WorkerPool pool(4);
  for (int round = 0; round < 40; ++round) {
    const std::size_t movers = 1 + rng.index(12);
    for (std::size_t j = 0; j < movers; ++j) {
      const auto v = static_cast<NodeId>(rng.index(n));
      positions[v] = {rng.uniform(0, 100), rng.uniform(0, 100)};
      immediate.stage_move(v, positions[v]);
      deferred.stage_move(v, positions[v]);
    }
    const EdgeDelta base = immediate.commit();
    CommitOptions opts;
    opts.defer_adjacency = true;
    if (round % 2 == 1) opts.pool = &pool;  // alternate serial / parallel
    const EdgeDelta delta = deferred.commit(opts);
    EXPECT_EQ(delta.added, base.added) << "round " << round;
    EXPECT_EQ(delta.removed, base.removed) << "round " << round;
    EXPECT_EQ(delta.touched, base.touched) << "round " << round;
    // Before apply_delta the deferred overlay still shows the previous
    // round's topology; after it, the current one.
    deferred.apply_delta(delta);
    expect_adjacency_matches(deferred, positions, range, round);
  }
}

TEST(DeltaTrackerTest, StreamingBuildMatchesBuilderPath) {
  // The streaming counting-sweep cold build must seed the tracker with
  // the exact same adjacency as the GraphBuilder path.
  Rng rng(505);
  const std::size_t n = 150;
  const double range = geom::range_for_average_degree(8.0, n, 100, 100);
  const auto positions = random_layout(n, rng);
  const DeltaTracker streamed(positions, range, 100, 100, true);
  EXPECT_EQ(streamed.adjacency().freeze().edges(),
            geom::unit_disk_graph(positions, range).edges());
}

TEST(DeltaTrackerTest, CellsScannedCountsDistinctCells) {
  // Two movers in the same cell share one 3x3 dirty block; the counter
  // reports distinct cells, not blocks-with-multiplicity.
  std::vector<geom::Point> pts{{55, 55}, {54, 54}, {5, 5}};
  DeltaTracker tracker(pts, 10.0, 100, 100);
  tracker.stage_move(0, {55.5, 55});
  tracker.stage_move(1, {54.5, 54});
  tracker.commit();
  EXPECT_EQ(tracker.last_cells_scanned(), 9u);
}

// The "Sparse" region and scope soaks run 400 nodes at mean degree 0.5
// (range ~2): the lattice would be 50 cells a side and clamps to
// ceil(sqrt(1600)) + 1 = 41, so they cover the coarsened cells of a
// field wider than sqrt(n) ranges. The "Dense" ones run the paper's
// degree 6 on the full 14x14 lattice.
constexpr double kSparseDegree = 0.5;

// The soaks' premise: a degree below pi/4 clamps the lattice, the paper's
// degrees never do.
void expect_clamped_iff_sparse(const DeltaTracker& tracker, double degree,
                               double side) {
  EXPECT_EQ(tracker.cols() < static_cast<std::size_t>(side / tracker.range()),
            degree == kSparseDegree)
      << tracker.cols() << " cells a side at degree " << degree;
}

void region_partition_soak(double degree, std::uint64_t seed) {
  // The S30 contract: per-region deltas partition the tick delta exactly
  // (every changed edge, both endpoints, in one region) and core cells
  // of distinct regions stay >= 2*kRegionGrowthCells+1 grid cells apart
  // in Chebyshev distance. Holds on the clamped lattice too: the
  // partition invariants are geometry-relative.
  Rng rng(seed);
  const std::size_t n = 400;
  const double range = geom::range_for_average_degree(degree, n, 100, 100);
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, 100, 100);
  expect_clamped_iff_sparse(tracker, degree, 100);
  RegionPartition parts;
  const std::size_t min_sep = 2 * kRegionGrowthCells + 1;
  for (int round = 0; round < 40; ++round) {
    const std::size_t movers = 1 + rng.index(8);
    for (std::size_t j = 0; j < movers; ++j) {
      const auto v = static_cast<NodeId>(rng.index(n));
      positions[v] = {rng.uniform(0, 100), rng.uniform(0, 100)};
      tracker.stage_move(v, positions[v]);
    }
    const EdgeDelta delta = tracker.commit(&parts);
    ASSERT_GE(parts.count, 1u);
    ASSERT_EQ(parts.deltas.size(), parts.count);
    ASSERT_EQ(parts.core_cells.size(), parts.count);

    // Per-region slices partition the global delta.
    std::vector<std::pair<NodeId, NodeId>> added, removed;
    NodeSet touched;
    for (const EdgeDelta& slice : parts.deltas) {
      added.insert(added.end(), slice.added.begin(), slice.added.end());
      removed.insert(removed.end(), slice.removed.begin(),
                     slice.removed.end());
      touched.insert(touched.end(), slice.touched.begin(),
                     slice.touched.end());
    }
    std::sort(added.begin(), added.end());
    std::sort(removed.begin(), removed.end());
    normalize(touched);
    EXPECT_EQ(added, delta.added);
    EXPECT_EQ(removed, delta.removed);
    EXPECT_EQ(touched, delta.touched);

    // Pairwise core-cell separation.
    for (std::size_t i = 0; i < parts.count; ++i) {
      EXPECT_FALSE(parts.core_cells[i].empty());
      for (std::size_t j = i + 1; j < parts.count; ++j) {
        for (const std::uint32_t a : parts.core_cells[i]) {
          for (const std::uint32_t b : parts.core_cells[j]) {
            const auto dc = std::max(a % parts.cols, b % parts.cols) -
                            std::min(a % parts.cols, b % parts.cols);
            const auto dr = std::max(a / parts.cols, b / parts.cols) -
                            std::min(a / parts.cols, b / parts.cols);
            ASSERT_GE(std::max<std::size_t>(dc, dr), min_sep)
                << "regions " << i << " and " << j << " too close";
          }
        }
      }
    }
  }
}

TEST(DeltaTrackerPropertyTest, RegionPartitionIsValidAndSeparated) {
  region_partition_soak(6.0, 504);
}

TEST(DeltaTrackerPropertyTest, RegionPartitionIsValidAndSeparatedSparse) {
  region_partition_soak(kSparseDegree, 506);
}

TEST(DeltaTrackerPropertyTest, TieredGrowthPartitionsExactlyAndShrinksScopes) {
  // Two-tier paint growth (the message engine's 7/4/1 head/member/quiet
  // tiers): the per-region slices must still partition the delta
  // exactly, every touched node must look up its own slice's region,
  // and tiering can only split regions and shrink scopes relative to
  // uniform growth. With every node a head, tiering degenerates to the
  // uniform partition.
  Rng rng(907);
  const std::size_t n = 400;
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  auto positions = random_layout(n, rng);
  DeltaTracker uniform(positions, range, 100, 100);
  DeltaTracker tiered(positions, range, 100, 100);
  DeltaTracker all_heads(positions, range, 100, 100);

  std::vector<NodeId> nobody_head(n), everybody_head(n);
  for (NodeId v = 0; v < n; ++v) {
    nobody_head[v] = v == 0 ? 1 : 0;  // head_of[v] != v for every v
    everybody_head[v] = v;
  }

  RegionPartition pu, pt, ph;
  CommitOptions base;
  base.growth_cells = 7;
  for (int round = 0; round < 30; ++round) {
    const std::size_t movers = 1 + rng.index(8);
    for (std::size_t j = 0; j < movers; ++j) {
      const auto v = static_cast<NodeId>(rng.index(n));
      positions[v] = {rng.uniform(0, 100), rng.uniform(0, 100)};
      uniform.stage_move(v, positions[v]);
      tiered.stage_move(v, positions[v]);
      all_heads.stage_move(v, positions[v]);
    }
    CommitOptions uopts = base;
    uopts.regions = &pu;
    CommitOptions topts = base;
    topts.regions = &pt;
    topts.head_of = nobody_head;
    topts.member_growth_cells = 4;
    topts.quiet_growth_cells = 1;
    CommitOptions hopts = topts;
    hopts.regions = &ph;
    hopts.head_of = everybody_head;
    const EdgeDelta du = uniform.commit(uopts);
    const EdgeDelta dt = tiered.commit(topts);
    const EdgeDelta dh = all_heads.commit(hopts);
    ASSERT_EQ(dt.added, du.added);
    ASSERT_EQ(dt.removed, du.removed);

    // Tiered slices still partition the delta, and every touched node
    // of a slice answers that slice's region.
    std::vector<std::pair<NodeId, NodeId>> added, removed;
    for (std::uint32_t r = 0; r < pt.count; ++r) {
      const EdgeDelta& slice = pt.deltas[r];
      added.insert(added.end(), slice.added.begin(), slice.added.end());
      removed.insert(removed.end(), slice.removed.begin(),
                     slice.removed.end());
      for (const NodeId v : slice.touched)
        ASSERT_EQ(tiered.scope_region(v), r)
            << "touched node " << v << " outside its region scope";
    }
    std::sort(added.begin(), added.end());
    std::sort(removed.begin(), removed.end());
    EXPECT_EQ(added, dt.added);
    EXPECT_EQ(removed, dt.removed);

    // Member/quiet paints are subsets of the uniform paint, so every
    // node of a tiered scope is in a uniform scope, and all nodes of one
    // tiered region share one uniform region: regions can only split,
    // never merge further.
    EXPECT_GE(pt.count, pu.count);
    std::vector<std::uint32_t> uniform_of(pt.count, kNoRegion);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t rt = tiered.scope_region(v);
      if (rt == kNoRegion) continue;
      const std::uint32_t ru = uniform.scope_region(v);
      ASSERT_NE(ru, kNoRegion) << "node " << v << " only in a tiered scope";
      if (uniform_of[rt] == kNoRegion) uniform_of[rt] = ru;
      EXPECT_EQ(uniform_of[rt], ru) << "tiered region " << rt << " straddles";
    }

    // All-heads tiering is the uniform partition, bit for bit.
    ASSERT_EQ(ph.count, pu.count);
    for (NodeId v = 0; v < n; ++v)
      EXPECT_EQ(all_heads.scope_region(v), uniform.scope_region(v))
          << "node " << v;
    for (std::size_t r = 0; r < pu.count; ++r) {
      EXPECT_EQ(ph.core_cells[r], pu.core_cells[r]);
      EXPECT_EQ(ph.deltas[r].added, pu.deltas[r].added);
      EXPECT_EQ(ph.deltas[r].removed, pu.deltas[r].removed);
    }
  }
}

using Cell = std::pair<std::size_t, std::size_t>;  // (col, row)

// Cell of `p` on `tracker`'s lattice over a [0, side]^2 field, computed
// as the tracker buckets positions (clamped onto border cells).
Cell cell_of(const DeltaTracker& tracker, geom::Point p, double side) {
  const double inv_x = static_cast<double>(tracker.cols()) / side;
  const double inv_y = static_cast<double>(tracker.rows()) / side;
  const std::size_t col =
      p.x <= 0.0 ? 0
                 : std::min(tracker.cols() - 1,
                            static_cast<std::size_t>(p.x * inv_x));
  const std::size_t row =
      p.y <= 0.0 ? 0
                 : std::min(tracker.rows() - 1,
                            static_cast<std::size_t>(p.y * inv_y));
  return {col, row};
}

std::size_t chebyshev(Cell a, Cell b) {
  const auto d = [](std::size_t x, std::size_t y) {
    return x > y ? x - y : y - x;
  };
  return std::max(d(a.first, b.first), d(a.second, b.second));
}

void scope_lookup_reference_soak(double degree, bool tiered,
                                 std::uint64_t seed) {
  // The scope lookup against a brute-force reference built from the
  // definition alone: a mover with growth g paints every cell within
  // Chebyshev distance 1 + g of its old and its new cell; movers whose
  // paints touch share a region; regions are numbered by their first
  // staged mover; v is in region r iff v's committed cell is painted by
  // a mover of r.
  Rng rng(seed);
  const std::size_t n = 400;
  const double side = 100;
  const double range = geom::range_for_average_degree(degree, n, side, side);
  auto positions = random_layout(n, rng);
  DeltaTracker tracker(positions, range, side, side);
  expect_clamped_iff_sparse(tracker, degree, side);
  std::vector<NodeId> head_of(n);
  for (NodeId v = 0; v < n; ++v) head_of[v] = v - v % 5;  // 1 in 5 a head
  RegionPartition parts;
  CommitOptions opts;
  opts.regions = &parts;
  opts.growth_cells = 3;
  if (tiered) {
    opts.head_of = head_of;
    opts.member_growth_cells = 2;
    opts.quiet_growth_cells = 0;
  }
  std::size_t split_rounds = 0;  // rounds with >= 2 regions
  std::size_t unscoped = 0;      // node lookups answering kNoRegion
  for (int round = 0; round < 40; ++round) {
    // Movers in first-staged order with their pre-move cells.
    std::vector<NodeId> movers;
    std::vector<Cell> old_cell;
    std::vector<char> staged(n, 0);
    const std::size_t count = 1 + rng.index(6);
    for (std::size_t j = 0; j < count; ++j) {
      const auto v = static_cast<NodeId>(rng.index(n));
      if (!staged[v]) {
        staged[v] = 1;
        movers.push_back(v);
        old_cell.push_back(cell_of(tracker, positions[v], side));
      }
      // Mostly local steps, so several regions coexist; now and then a
      // teleport, which paints two distant blocks into one region.
      if (rng.index(4) == 0) {
        positions[v] = {rng.uniform(0, side), rng.uniform(0, side)};
      } else {
        positions[v].x = std::clamp(positions[v].x + rng.uniform(-8, 8),
                                    0.0, side);
        positions[v].y = std::clamp(positions[v].y + rng.uniform(-8, 8),
                                    0.0, side);
      }
      tracker.stage_move(v, positions[v]);
    }
    const EdgeDelta delta = tracker.commit(opts);

    const std::size_t m = movers.size();
    std::vector<std::size_t> growth(m, opts.growth_cells);
    if (tiered) {
      std::fill(growth.begin(), growth.end(), opts.quiet_growth_cells);
      const auto bump = [&](NodeId x, std::size_t g) {
        const auto it = std::find(movers.begin(), movers.end(), x);
        if (it != movers.end()) {
          auto& gx = growth[static_cast<std::size_t>(it - movers.begin())];
          gx = std::max(gx, g);
        }
      };
      for (const auto* edges : {&delta.added, &delta.removed})
        for (const auto& [u, w] : *edges) {
          const bool head = head_of[u] == u || head_of[w] == w;
          const std::size_t g =
              head ? opts.growth_cells : opts.member_growth_cells;
          bump(u, g);
          bump(w, g);
        }
    }
    std::vector<std::array<Cell, 2>> centers(m);
    for (std::size_t i = 0; i < m; ++i)
      centers[i] = {old_cell[i], cell_of(tracker, positions[movers[i]], side)};

    // Regions: union movers whose painted blocks share a cell.
    std::vector<std::size_t> parent(m);
    for (std::size_t i = 0; i < m; ++i) parent[i] = i;
    const auto root = [&](std::size_t x) {
      while (parent[x] != x) x = parent[x];
      return x;
    };
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = i + 1; j < m; ++j) {
        const std::size_t reach = 2 + growth[i] + growth[j];
        bool touch = false;
        for (const Cell& a : centers[i])
          for (const Cell& b : centers[j]) touch |= chebyshev(a, b) <= reach;
        if (touch) parent[std::max(root(i), root(j))] = std::min(root(i), root(j));
      }
    std::vector<std::uint32_t> region(m);
    std::uint32_t regions = 0;
    for (std::size_t i = 0; i < m; ++i)
      region[i] = root(i) == i ? regions++ : region[root(i)];
    ASSERT_EQ(parts.count, regions) << "round " << round;
    if (regions >= 2) ++split_rounds;

    for (NodeId v = 0; v < n; ++v) {
      const Cell c = cell_of(tracker, positions[v], side);
      std::uint32_t expect = kNoRegion;
      for (std::size_t i = 0; i < m; ++i)
        for (const Cell& center : centers[i])
          if (chebyshev(c, center) <= 1 + growth[i]) {
            ASSERT_TRUE(expect == kNoRegion || expect == region[i])
                << "reference paints overlap across regions";
            expect = region[i];
          }
      ASSERT_EQ(tracker.scope_region(v), expect)
          << "node " << v << " at round " << round;
      if (expect == kNoRegion) ++unscoped;
    }
  }
  // The soak must exercise split partitions and unpainted nodes.
  EXPECT_GT(split_rounds, 0u);
  EXPECT_GT(unscoped, 0u);
}

TEST(DeltaTrackerPropertyTest, ScopeLookupMatchesReferenceDenseUniform) {
  scope_lookup_reference_soak(6.0, false, 911);
}

TEST(DeltaTrackerPropertyTest, ScopeLookupMatchesReferenceDenseTiered) {
  scope_lookup_reference_soak(6.0, true, 912);
}

TEST(DeltaTrackerPropertyTest, ScopeLookupMatchesReferenceSparseUniform) {
  scope_lookup_reference_soak(kSparseDegree, false, 913);
}

TEST(DeltaTrackerPropertyTest, ScopeLookupMatchesReferenceSparseTiered) {
  scope_lookup_reference_soak(kSparseDegree, true, 914);
}

enum class ScanMoves { kLocal, kBorder, kPileUp, kTeleportAll };

void cells_scanned_reference_soak(double degree, ScanMoves moves,
                                  std::uint64_t seed) {
  // last_cells_scanned() against a count from the lattice shape and the
  // positions alone: the size of the union of the clipped 3x3 blocks
  // around each staged node's committed cell. Every other commit also
  // paints regions, whose stamps share the cells' stamp array.
  const std::size_t n = 300;
  const double side = 100;
  const double range = geom::range_for_average_degree(degree, n, side, side);
  const bool everyone =
      moves == ScanMoves::kPileUp || moves == ScanMoves::kTeleportAll;
  WorkerPool pool(4);
  for (WorkerPool* lanes : {static_cast<WorkerPool*>(nullptr), &pool}) {
    SCOPED_TRACE(lanes ? "4-lane pool" : "no pool");
    Rng rng(seed);
    auto positions = random_layout(n, rng);
    DeltaTracker tracker(positions, range, side, side);
    expect_clamped_iff_sparse(tracker, degree, side);
    RegionPartition parts;
    CommitOptions opts;
    opts.pool = lanes;
    for (int round = 0; round < 20; ++round) {
      opts.regions = round % 2 == 1 ? &parts : nullptr;
      std::vector<NodeId> movers;
      std::vector<char> staged(n, 0);
      const std::size_t count = everyone ? n : 1 + rng.index(40);
      for (std::size_t j = 0; j < count; ++j) {
        const auto v = static_cast<NodeId>(everyone ? j : rng.index(n));
        geom::Point& p = positions[v];
        switch (moves) {
          case ScanMoves::kLocal:
            p.x = std::clamp(p.x + rng.uniform(-8, 8), 0.0, side);
            p.y = std::clamp(p.y + rng.uniform(-8, 8), 0.0, side);
            break;
          case ScanMoves::kBorder: {
            // On the field's edges and corners, or just outside them
            // (clamped onto the border cells).
            const double edge[] = {0.0, side, -3.0, side + 3.0};
            p = {edge[rng.index(4)], rng.index(3) == 0 ? edge[rng.index(4)]
                                                      : rng.uniform(0, side)};
            if (rng.index(2) == 0) std::swap(p.x, p.y);
            break;
          }
          case ScanMoves::kPileUp:  // into one cell, then scattered
            p = {rng.uniform(0, side), rng.uniform(0, side)};
            if (round % 2 == 0) p = {55 + p.x / side, 55 + p.y / side};
            break;
          case ScanMoves::kTeleportAll:
            p = {rng.uniform(0, side), rng.uniform(0, side)};
            break;
        }
        tracker.stage_move(v, p);
        if (!staged[v]) {
          staged[v] = 1;
          movers.push_back(v);
        }
      }
      tracker.commit(opts);

      std::set<Cell> scanned;
      for (const NodeId v : movers) {
        const auto [col, row] = cell_of(tracker, positions[v], side);
        for (std::size_t r = row > 0 ? row - 1 : 0;
             r <= std::min(row + 1, tracker.rows() - 1); ++r)
          for (std::size_t c = col > 0 ? col - 1 : 0;
               c <= std::min(col + 1, tracker.cols() - 1); ++c)
            scanned.insert({c, r});
      }
      ASSERT_EQ(tracker.last_cells_scanned(), scanned.size())
          << "round " << round;
    }
  }
}

TEST(DeltaTrackerPropertyTest, CellsScannedMatchesBlockUnionReference) {
  {
    SCOPED_TRACE("local steps");
    cells_scanned_reference_soak(6.0, ScanMoves::kLocal, 921);
  }
  {
    SCOPED_TRACE("border cells");
    cells_scanned_reference_soak(6.0, ScanMoves::kBorder, 922);
  }
  {
    SCOPED_TRACE("one-cell pile-up");
    cells_scanned_reference_soak(6.0, ScanMoves::kPileUp, 923);
  }
  {
    SCOPED_TRACE("mass teleports");
    cells_scanned_reference_soak(6.0, ScanMoves::kTeleportAll, 924);
  }
  {
    SCOPED_TRACE("clamped lattice");
    cells_scanned_reference_soak(kSparseDegree, ScanMoves::kLocal, 925);
  }
}

TEST(DeltaTrackerPropertyTest, TeleportOldAndNewBlocksShareOneRegion) {
  // A teleporting node's removed edges live near its old position and
  // its added edges near the new one — both must land in one region so
  // its repair never splits across shards.
  std::vector<geom::Point> pts{{5, 5}, {7, 5}, {92, 95}, {95, 95}, {50, 50}};
  const double range = 10.0;
  DeltaTracker tracker(pts, range, 100, 100);
  RegionPartition parts;
  // Node 0 teleports from the {0,1} corner to the {2,3} corner.
  tracker.stage_move(0, {93, 93});
  const EdgeDelta delta = tracker.commit(&parts);
  EXPECT_FALSE(delta.added.empty());
  EXPECT_FALSE(delta.removed.empty());
  EXPECT_EQ(parts.count, 1u);
  EXPECT_EQ(parts.deltas[0].added, delta.added);
  EXPECT_EQ(parts.deltas[0].removed, delta.removed);
}

TEST(DeltaTrackerTest, RestagingSameNodeKeepsLastPosition) {
  std::vector<geom::Point> pts{{10, 10}, {20, 10}, {90, 90}};
  DeltaTracker tracker(pts, 15.0, 100, 100);
  EXPECT_TRUE(tracker.adjacency().has_edge(0, 1));
  tracker.stage_move(2, {50, 50});
  tracker.stage_move(2, {22, 10});  // overrides: ends adjacent to 0 and 1
  EXPECT_EQ(tracker.staged_count(), 1u);
  const EdgeDelta delta = tracker.commit();
  EXPECT_EQ(delta.added,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 2}, {1, 2}}));
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(tracker.positions()[2], (geom::Point{22, 10}));
}

TEST(DeltaTrackerTest, RejectsNonFinitePositions) {
  // A NaN or infinite coordinate has no cell: both ways in refuse it.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<geom::Point> pts{{10, 10}, {20, 10}, {90, 90}};
  DeltaTracker tracker(pts, 15.0, 100, 100);
  for (const geom::Point bad : {geom::Point{kNaN, 3}, geom::Point{kInf, 3},
                                geom::Point{-kInf, 3}, geom::Point{3, kNaN},
                                geom::Point{3, kInf}, geom::Point{3, -kInf}}) {
    EXPECT_THROW(tracker.stage_move(1, bad), std::invalid_argument);
    std::vector<geom::Point> layout = pts;
    layout[1] = bad;
    EXPECT_THROW(DeltaTracker(layout, 15.0, 100, 100), std::invalid_argument);
  }
  EXPECT_EQ(tracker.staged_count(), 0u);
  EXPECT_EQ(tracker.positions()[1], (geom::Point{20, 10}));
}

TEST(DeltaTrackerTest, FarPositionsClampOntoTheBorder) {
  // A far but finite position lands on a border cell: it loses every
  // link, the overlay stays the unit-disk graph, and moving back
  // restores the links.
  const std::vector<geom::Point> pts{{10, 10}, {20, 10}, {22, 12}, {90, 90}};
  std::vector<geom::Point> positions = pts;
  DeltaTracker tracker(positions, 15.0, 100, 100);
  ASSERT_TRUE(tracker.adjacency().has_edge(0, 1));
  ASSERT_TRUE(tracker.adjacency().has_edge(1, 2));
  positions[1] = {1e300, 3};
  tracker.stage_move(1, positions[1]);
  tracker.commit();
  EXPECT_EQ(tracker.adjacency().degree(1), 0u);
  EXPECT_EQ(tracker.adjacency().freeze().edges(),
            geom::unit_disk_graph(positions, 15.0).edges());
  positions[1] = pts[1];
  tracker.stage_move(1, positions[1]);
  tracker.commit();
  EXPECT_TRUE(tracker.adjacency().has_edge(0, 1));
  EXPECT_TRUE(tracker.adjacency().has_edge(1, 2));
  EXPECT_EQ(tracker.adjacency().freeze().edges(),
            geom::unit_disk_graph(pts, 15.0).edges());
}

// The scope-lookup lifetime cases run four named nodes at range 10 over
// a 1000-unit field. 96 fillers stacked in the far corner (0, 1000)
// bring n to 100, so the lattice keeps ceil(sqrt(400)) + 1 = 21 cells a
// side (47.6 units each) and a growth-2 paint (7x7 cells) stays local:
// node 0 moves inside cell (10, 10), node 1 shares that cell, node 2
// sits in (18, 18), node 3 in (2, 2) and the fillers in (0, 20), which
// no paint below reaches.
constexpr NodeId kNamedNodes = 4;

std::vector<geom::Point> lifetime_layout() {
  std::vector<geom::Point> pts{{500, 500}, {505, 500}, {900, 900}, {100, 100}};
  pts.resize(100, geom::Point{0, 1000});
  return pts;
}

DeltaTracker lifetime_tracker() {
  DeltaTracker tracker(lifetime_layout(), 10.0, 1000, 1000);
  EXPECT_EQ(tracker.cols(), 21u);
  EXPECT_EQ(tracker.rows(), 21u);
  return tracker;
}

TEST(DeltaTrackerTest, ScopeLookupIsEmptyUntilACommitBuildsRegions) {
  DeltaTracker tracker = lifetime_tracker();
  for (NodeId v = 0; v < tracker.size(); ++v)
    EXPECT_EQ(tracker.scope_region(v), kNoRegion) << "fresh, node " << v;
  // A commit without a RegionPartition paints nothing.
  tracker.stage_move(0, {502, 500});
  tracker.commit();
  for (NodeId v = 0; v < tracker.size(); ++v)
    EXPECT_EQ(tracker.scope_region(v), kNoRegion) << "no regions, node " << v;
  // Nor does one after a region build: the earlier paint expires.
  RegionPartition parts;
  tracker.stage_move(0, {503, 500});
  tracker.commit(&parts);
  EXPECT_EQ(tracker.scope_region(1), 0u);
  tracker.stage_move(0, {504, 500});
  tracker.commit();
  for (NodeId v = 0; v < tracker.size(); ++v)
    EXPECT_EQ(tracker.scope_region(v), kNoRegion) << "expired, node " << v;
}

TEST(DeltaTrackerTest, ScopeLookupExpiresOnACommitWithNothingStaged) {
  DeltaTracker tracker = lifetime_tracker();
  RegionPartition parts;
  tracker.stage_move(0, {502, 500});
  tracker.commit(&parts);
  ASSERT_EQ(parts.count, 1u);
  EXPECT_EQ(tracker.scope_region(0), 0u);
  EXPECT_EQ(tracker.scope_region(1), 0u);
  EXPECT_EQ(tracker.scope_region(2), kNoRegion);
  tracker.commit(&parts);
  EXPECT_EQ(parts.count, 0u);
  for (NodeId v = 0; v < tracker.size(); ++v)
    EXPECT_EQ(tracker.scope_region(v), kNoRegion) << "node " << v;
}

TEST(DeltaTrackerTest, StagingChangesNoScopeAnswerBeforeTheNextCommit) {
  DeltaTracker tracker = lifetime_tracker();
  RegionPartition parts;
  tracker.stage_move(0, {502, 500});
  tracker.commit(&parts);
  std::vector<std::uint32_t> before;
  for (NodeId v = 0; v < tracker.size(); ++v)
    before.push_back(tracker.scope_region(v));
  before.resize(kNamedNodes);
  EXPECT_EQ(before, (std::vector<std::uint32_t>{0, 0, kNoRegion, kNoRegion}));
  // Node 2 into the painted cells, node 0 out of them: the lookup reads
  // committed cells, so neither answer moves yet.
  tracker.stage_move(2, {501, 501});
  tracker.stage_move(0, {100, 105});
  for (NodeId v = 0; v < kNamedNodes; ++v)
    EXPECT_EQ(tracker.scope_region(v), before[v]) << "node " << v;
  // The commit paints both movers' old and new blocks, which overlap at
  // cell (10, 10): one region holding all four named nodes.
  tracker.commit(&parts);
  ASSERT_EQ(parts.count, 1u);
  for (NodeId v = 0; v < kNamedNodes; ++v)
    EXPECT_EQ(tracker.scope_region(v), 0u) << "node " << v;
}

TEST(DeltaTrackerTest, ScopeLookupFollowsEachCommit) {
  DeltaTracker tracker = lifetime_tracker();
  RegionPartition parts;
  tracker.stage_move(0, {502, 500});
  tracker.commit(&parts);
  EXPECT_EQ(tracker.scope_region(1), 0u);
  EXPECT_EQ(tracker.scope_region(3), kNoRegion);
  // The next commit paints only around node 3: node 1's cell is no
  // longer painted, node 3's is.
  tracker.stage_move(3, {102, 100});
  tracker.commit(&parts);
  ASSERT_EQ(parts.count, 1u);
  EXPECT_EQ(tracker.scope_region(0), kNoRegion);
  EXPECT_EQ(tracker.scope_region(1), kNoRegion);
  EXPECT_EQ(tracker.scope_region(2), kNoRegion);
  EXPECT_EQ(tracker.scope_region(3), 0u);
}

/// The one-region repair (apply without a partition) against a full
/// lcc_update from the previous clustering, over 300 rounds of
/// `flips_per_round` random edge flips each; a pair flipped twice in one
/// round cancels out of the diff_graphs delta. Counts the rounds that
/// resigned two or more heads in one call into `multi_resign_rounds`.
void check_repair_on_random_flips(int flips_per_round,
                                  int& multi_resign_rounds) {
  Rng rng(55);
  const std::size_t n = 70;
  const double range = geom::range_for_average_degree(7.0, n, 100, 100);
  const auto positions = random_layout(n, rng);
  const auto g0 = geom::unit_disk_graph(positions, range);

  graph::DynamicAdjacency adj(g0);
  IncrementalBackbone backbone(adj, core::CoverageMode::kTwoPointFiveHop);
  ASSERT_EQ(backbone.clustering(), cluster::lowest_id_clustering(g0));

  for (int round = 0; round < 300; ++round) {
    const graph::Graph before = adj.freeze();
    for (int flip = 0; flip < flips_per_round; ++flip) {
      // Flip a random pair: remove the edge if present, add it otherwise.
      const auto u = static_cast<NodeId>(rng.index(n));
      const auto w = static_cast<NodeId>(rng.index(n));
      if (u == w) continue;
      if (adj.has_edge(u, w)) {
        adj.remove_edge(u, w);
      } else {
        adj.add_edge(u, w);
      }
    }
    const graph::Graph after = adj.freeze();
    const EdgeDelta delta = diff_graphs(before, after);
    if (delta.empty()) continue;

    const cluster::Clustering previous = backbone.clustering();
    const TickStats stats = backbone.apply(adj, delta);

    cluster::LccDelta full_delta;
    const cluster::Clustering full =
        cluster::lcc_update(after, previous, &full_delta);
    ASSERT_EQ(backbone.clustering(), full)
        << "repair diverged from lcc_update at round " << round;
    EXPECT_EQ(stats.cluster_churn.heads_resigned, full_delta.heads_resigned);
    EXPECT_EQ(stats.cluster_churn.heads_declared, full_delta.heads_declared);
    EXPECT_EQ(stats.cluster_churn.reaffiliations, full_delta.reaffiliations);
    // The heads list, tables, coverage, selections and CDS follow too.
    ASSERT_EQ(core::diff_backbones(
                  backbone.view(),
                  core::BackboneRef(core::build_static_backbone(
                      after, full, core::CoverageMode::kTwoPointFiveHop))),
              "")
        << "backbone diverged from the rebuild at round " << round;
    if (stats.cluster_churn.heads_resigned >= 2) ++multi_resign_rounds;
  }
}

TEST(ClusterRepairTest, MatchesFullLccUpdateOnRandomEdgeFlips) {
  for (const int flips : {1, 12}) {
    SCOPED_TRACE(std::to_string(flips) + " flips per round");
    int multi_resign_rounds = 0;
    check_repair_on_random_flips(flips, multi_resign_rounds);
    // Batched flips resign several heads in one call, so a resignation
    // is seen by the larger heads after it within the same scan.
    if (flips > 1) {
      EXPECT_GT(multi_resign_rounds, 0);
    }
  }
}

TEST(ClusterRepairTest, ResignationCascadeKeepsTheSurvivorBesideIt) {
  // Path 0-1-2-3-4-5-6 clusters into heads 0, 2, 4, 6. One delta joins
  // every pair of consecutive heads: 2 resigns to 0 and 6 to 4, but 4
  // survives, because 2 has resigned by the time 4 is scanned. Member 3
  // loses head 2 and joins 4.
  const graph::Graph before = graph::make_path(7);
  graph::DynamicAdjacency adj(before);
  IncrementalBackbone backbone(adj, core::CoverageMode::kTwoPointFiveHop);
  ASSERT_EQ(backbone.clustering().heads, (NodeSet{0, 2, 4, 6}));
  const cluster::Clustering previous = backbone.clustering();

  for (const auto& [u, w] : {std::pair<NodeId, NodeId>{0, 2}, {2, 4}, {4, 6}})
    adj.add_edge(u, w);
  const graph::Graph after = adj.freeze();
  const TickStats stats = backbone.apply(adj, diff_graphs(before, after));

  EXPECT_EQ(backbone.clustering().heads, (NodeSet{0, 4}));
  EXPECT_EQ(backbone.clustering().head_of,
            (std::vector<NodeId>{0, 0, 0, 4, 4, 4, 4}));
  EXPECT_EQ(stats.cluster_churn.heads_resigned, 2u);
  cluster::LccDelta full_delta;
  EXPECT_EQ(backbone.clustering(),
            cluster::lcc_update(after, previous, &full_delta));
  EXPECT_EQ(full_delta.heads_resigned, 2u);
  EXPECT_EQ(core::diff_backbones(
                backbone.view(),
                core::BackboneRef(core::build_static_backbone(
                    after, backbone.clustering(),
                    core::CoverageMode::kTwoPointFiveHop))),
            "");
}

TEST(IncrementalBackboneTest, NoOpTickProducesZeroStats) {
  Rng rng(77);
  const auto positions = random_layout(50, rng);
  const double range = geom::range_for_average_degree(8.0, 50, 100, 100);
  IncrementalPipeline pipeline(positions, range, 100, 100,
                               {core::CoverageMode::kTwoPointFiveHop, true});
  const TickStats stats = pipeline.tick();  // nothing staged
  EXPECT_EQ(stats.link_changes, 0u);
  EXPECT_EQ(stats.head_changes, 0u);
  EXPECT_EQ(stats.role_changes, 0u);
  EXPECT_EQ(stats.backbone_changes, 0u);
  EXPECT_EQ(stats.coverage_changes, 0u);
  EXPECT_EQ(stats.rows_recomputed, 0u);
  // Staging a move onto the identical position is also a no-op delta.
  pipeline.stage_move(3, pipeline.positions()[3]);
  EXPECT_EQ(pipeline.tick().link_changes, 0u);
}

/// Runs `ticks` random-waypoint ticks with the pipeline's oracle mode on:
/// each tick MANET_REQUIREs bitwise equality of every maintained
/// structure against the full rebuild, so the assertions live inside the
/// engine and any divergence fails loudly here.
void run_waypoint_oracle(std::size_t n, double degree, std::size_t ticks,
                         core::CoverageMode mode, std::uint64_t seed) {
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(degree, n, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());

  mobility::WaypointModel model(net->positions, mobility::WaypointConfig{},
                                Rng(derive_seed(seed, 1, 0)));
  IncrementalPipeline pipeline(net->positions, cfg.range, 100, 100,
                               {mode, /*oracle_check=*/true});
  Rng pick(derive_seed(seed, 2, 0));
  for (std::size_t t = 0; t < ticks; ++t) {
    // ~3% of nodes move per tick (at least one).
    const std::size_t movers = std::max<std::size_t>(1, n / 32);
    std::vector<NodeId> moved;
    for (std::size_t j = 0; j < movers; ++j)
      moved.push_back(static_cast<NodeId>(pick.index(n)));
    model.step_nodes(moved, 1.0);
    for (const NodeId v : moved)
      pipeline.stage_move(v, model.positions()[v]);
    ASSERT_NO_THROW(pipeline.tick()) << "oracle mismatch at tick " << t;
  }
}

TEST(IncrementalOracleTest, Waypoint100Sparse) {
  run_waypoint_oracle(100, 6.0, 200, core::CoverageMode::kTwoPointFiveHop,
                      101);
}

TEST(IncrementalOracleTest, Waypoint100Dense) {
  run_waypoint_oracle(100, 18.0, 200, core::CoverageMode::kThreeHop, 102);
}

TEST(IncrementalOracleTest, Waypoint500Sparse) {
  run_waypoint_oracle(500, 6.0, 200, core::CoverageMode::kTwoPointFiveHop,
                      103);
}

TEST(IncrementalOracleTest, Waypoint500Dense) {
  run_waypoint_oracle(500, 18.0, 200, core::CoverageMode::kThreeHop, 104);
}

TEST(IncrementalOracleTest, RandomDirectionModel) {
  Rng rng(202);
  const std::size_t n = 150;
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(8.0, n, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  mobility::RandomDirectionModel model(
      net->positions, mobility::RandomDirectionConfig{}, Rng(203));
  IncrementalPipeline pipeline(
      net->positions, cfg.range, 100, 100,
      {core::CoverageMode::kTwoPointFiveHop, /*oracle_check=*/true});
  Rng pick(204);
  for (std::size_t t = 0; t < 200; ++t) {
    std::vector<NodeId> moved;
    for (std::size_t j = 0; j < 5; ++j)
      moved.push_back(static_cast<NodeId>(pick.index(n)));
    model.step_nodes(moved, 1.0);
    for (const NodeId v : moved)
      pipeline.stage_move(v, model.positions()[v]);
    ASSERT_NO_THROW(pipeline.tick()) << "oracle mismatch at tick " << t;
  }
}

TEST(ChurnExperimentTest, RunsWithOracleCheckAndReportsSpeedup) {
  exp::ChurnConfig config;
  config.nodes = 120;
  config.degree = 6.0;
  config.ticks = 30;
  config.move_fraction = 0.02;
  config.seed = 7;
  config.oracle_check = true;  // every tick cross-checked inside run_churn
  const exp::ChurnResult r = exp::run_churn(config);
  EXPECT_EQ(r.ticks, 30u);
  EXPECT_GT(r.incremental_ms_per_tick, 0.0);
  EXPECT_GT(r.rebuild_ms_per_tick, 0.0);
  EXPECT_GT(r.speedup, 0.0);
  EXPECT_EQ(exp::model_name(config.model), "waypoint");
  EXPECT_EQ(exp::model_name(exp::ChurnConfig::Model::kRandomDirection),
            "direction");
}

}  // namespace
}  // namespace manet::incr
