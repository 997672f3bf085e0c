// Cross-check of the spatial-grid unit_disk_graph against the O(n^2)
// reference pair scan, plus unit tests of the SpatialGrid bucketing
// itself. The grid rewrite must be invisible: identical edge sets on
// every configuration, including the degenerate ones.
#include "geom/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "geom/unit_disk.hpp"

namespace manet::geom {
namespace {

std::vector<Point> random_points(Rng& rng, std::size_t n, double width,
                                 double height) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, width), rng.uniform(0.0, height)});
  return pts;
}

void expect_same_edges(const std::vector<Point>& pts, double range) {
  // Both construction paths — builder and streaming — must reproduce the
  // reference pair scan exactly.
  const auto ref = unit_disk_graph_reference(pts, range);
  const auto grid = unit_disk_graph(pts, range);
  ASSERT_EQ(grid.order(), ref.order());
  EXPECT_EQ(grid.edges(), ref.edges());
  const auto streamed = unit_disk_graph_streaming(pts, range);
  ASSERT_EQ(streamed.order(), ref.order());
  EXPECT_EQ(streamed.edges(), ref.edges());
}

// The lattice's O(n) bound: at most max(64, 4n) cells.
void expect_order_n_cells(const SpatialGrid& grid, std::size_t n) {
  EXPECT_LE(grid.cols() * grid.rows(), std::max<std::size_t>(64, 4 * n));
}

TEST(SpatialGridTest, BucketsEveryNodeExactlyOnce) {
  Rng rng(11);
  const auto pts = random_points(rng, 200, 100.0, 60.0);
  const SpatialGrid grid(pts, 10.0);
  std::vector<int> seen(pts.size(), 0);
  for (std::size_t r = 0; r < grid.rows(); ++r)
    for (std::size_t c = 0; c < grid.cols(); ++c)
      for (NodeId v : grid.cell(c, r)) {
        ASSERT_LT(v, pts.size());
        ++seen[v];
        EXPECT_EQ(grid.col_of(pts[v]), c);
        EXPECT_EQ(grid.row_of(pts[v]), r);
      }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(SpatialGridTest, BlockContainsAllInRangeCandidates) {
  Rng rng(12);
  const double range = 7.5;
  const auto pts = random_points(rng, 300, 100.0, 100.0);
  const SpatialGrid grid(pts, range);
  for (NodeId i = 0; i < pts.size(); ++i) {
    std::vector<bool> candidate(pts.size(), false);
    grid.for_each_in_block(grid.col_of(pts[i]), grid.row_of(pts[i]),
                           [&](NodeId v) { candidate[v] = true; });
    EXPECT_TRUE(candidate[i]);  // a node is its own block member
    for (NodeId j = 0; j < pts.size(); ++j)
      if (distance_sq(pts[i], pts[j]) < range * range) {
        EXPECT_TRUE(candidate[j]) << "in-range pair " << i << "," << j
                                  << " missing from the candidate block";
      }
  }
}

TEST(SpatialGridTest, TinyCellSizeStaysOrderN) {
  Rng rng(13);
  const std::size_t n = 50;
  const auto pts = random_points(rng, n, 100.0, 100.0);
  // A microscopic cell over a huge area: the lattice coarsens until the
  // cell count is O(n), and still buckets every node once.
  const SpatialGrid grid(pts, 1e-7);
  expect_order_n_cells(grid, n);
  std::size_t bucketed = 0;
  grid.for_each_occupied(
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        bucketed += end - begin;
      });
  EXPECT_EQ(bucketed, n);
}

TEST(SpatialGridCrossCheckTest, RandomizedConfigsMatchReference) {
  Rng rng(2026);
  const struct {
    std::size_t n;
    double width, height, range;
  } configs[] = {
      {50, 100.0, 100.0, 15.0},   // paper-scale sparse
      {200, 100.0, 100.0, 9.0},   // paper-scale dense
      {300, 100.0, 100.0, 3.0},   // many cells, sparse graph
      {150, 200.0, 50.0, 12.0},   // non-square area
      {120, 100.0, 100.0, 250.0}, // range larger than the area: one cell
      {100, 1.0, 1.0, 0.5},       // all points nearly on top of each other
  };
  for (const auto& cfg : configs) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto pts = random_points(rng, cfg.n, cfg.width, cfg.height);
      expect_same_edges(pts, cfg.range);
    }
  }
}

TEST(SpatialGridCrossCheckTest, AllPointsInOneCellMatchesReference) {
  Rng rng(7);
  // Points confined to a tiny patch of a big area: one populated cell.
  std::vector<Point> pts;
  for (std::size_t i = 0; i < 80; ++i)
    pts.push_back({50.0 + rng.uniform(0.0, 0.5), 50.0 + rng.uniform(0.0, 0.5)});
  expect_same_edges(pts, 10.0);
}

TEST(SpatialGridCrossCheckTest, PointsOnCellBoundariesMatchReference) {
  // Lattice points spaced exactly one range apart sit on cell borders;
  // distances of exactly `range` must stay excluded in both paths.
  const double range = 10.0;
  std::vector<Point> pts;
  for (int i = 0; i <= 6; ++i)
    for (int j = 0; j <= 6; ++j)
      pts.push_back({i * range, j * range});
  // Plus duplicates (distance 0) and near-boundary jitter.
  pts.push_back({30.0, 30.0});
  pts.push_back({30.0 + 1e-12, 30.0});
  pts.push_back({range - 1e-12, 0.0});
  expect_same_edges(pts, range);

  const auto g = unit_disk_graph(pts, range);
  // Exact-range lattice neighbors are excluded (strict inequality)...
  EXPECT_FALSE(g.has_edge(0, 1));
  // ...while the jittered point just inside the range connects.
  EXPECT_TRUE(g.has_edge(0, static_cast<NodeId>(pts.size() - 1)));
}

TEST(SpatialGridCrossCheckTest, DegenerateInputsMatchReference) {
  expect_same_edges({}, 5.0);                    // empty
  expect_same_edges({{3.0, 4.0}}, 5.0);          // single node
  expect_same_edges({{0, 0}, {0, 0}, {0, 0}}, 1.0);  // all identical
  // Collinear points (zero-height bounding box).
  std::vector<Point> line;
  for (int i = 0; i < 40; ++i) line.push_back({i * 1.5, 7.0});
  expect_same_edges(line, 4.0);
}

TEST(SpatialGridCrossCheckTest, HugeAreaTinyRangeMatchesReference) {
  // Clusters scattered over a 1e6 x 1e6 area with a range of 5: the full
  // lattice would be 4e10 cells, so the clamp coarsens it to O(n) cells
  // — and the sweep must still produce the reference edge set.
  Rng rng(15);
  std::vector<Point> pts;
  for (int cluster = 0; cluster < 8; ++cluster) {
    const Point c{rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)};
    for (int i = 0; i < 12; ++i)
      pts.push_back({c.x + rng.uniform(-6.0, 6.0),
                     c.y + rng.uniform(-6.0, 6.0)});
  }
  expect_same_edges(pts, 5.0);
  expect_order_n_cells(SpatialGrid(pts, 5.0), pts.size());
}

}  // namespace
}  // namespace manet::geom
