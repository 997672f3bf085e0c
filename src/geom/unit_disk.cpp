#include "geom/unit_disk.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/assert.hpp"
#include "geom/cell_lattice.hpp"
#include "geom/spatial_grid.hpp"
#include "graph/algorithms.hpp"

namespace manet::geom {
namespace {

// Forward-span sweep over every in-range slot pair of `grid`, visiting
// each unordered pair exactly once. Cell size >= range, so every in-range
// pair lies in the same cell or in adjacent cells; each slot's "forward"
// candidates — the rest of its own cell plus the E neighbor cell, and the
// SW/S/SE cells of the next row — are exactly two contiguous slot spans,
// scanned linearly over the grid's cell-ordered coordinate arrays.
template <typename PairFn>
void sweep_in_range_pairs(const SpatialGrid& grid, double range_sq,
                          PairFn&& fn) {
  const auto xs = grid.slot_x();
  const auto ys = grid.slot_y();
  const std::size_t cols = grid.cols();
  const std::size_t rows = grid.rows();
  grid.for_each_occupied([&](std::size_t c, std::size_t r, std::size_t begin,
                             std::size_t own_end) {
    const std::size_t same_row_end =
        c + 1 < cols ? grid.cell_end(c + 1, r) : own_end;
    std::size_t next_begin = 0, next_end = 0;
    if (r + 1 < rows) {
      next_begin = grid.cell_begin(c > 0 ? c - 1 : 0, r + 1);
      next_end = grid.cell_end(c + 1 < cols ? c + 1 : cols - 1, r + 1);
    }
    for (std::size_t k = begin; k < own_end; ++k) {
      const double xi = xs[k], yi = ys[k];
      for (std::size_t j = k + 1; j < same_row_end; ++j) {
        const double dx = xi - xs[j], dy = yi - ys[j];
        if (dx * dx + dy * dy < range_sq) fn(k, j);
      }
      for (std::size_t j = next_begin; j < next_end; ++j) {
        const double dx = xi - xs[j], dy = yi - ys[j];
        if (dx * dx + dy * dy < range_sq) fn(k, j);
      }
    }
  });
}

}  // namespace

double range_for_average_degree(double d, std::size_t n, double width,
                                double height) {
  MANET_REQUIRE(d > 0.0, "average degree must be positive");
  MANET_REQUIRE(n > 0, "network size must be positive");
  MANET_REQUIRE(width > 0.0 && height > 0.0, "area must be positive");
  // Each node expects (n-1) * pi r^2 / A neighbors; the paper's coarse
  // model uses n, and the difference is within border-effect noise. We use
  // n to match the conventional calibration.
  return std::sqrt(d * width * height /
                   (static_cast<double>(n) * std::numbers::pi));
}

graph::Graph unit_disk_graph(const std::vector<Point>& positions,
                             double range) {
  MANET_REQUIRE(range > 0.0, "transmission range must be positive");
  const std::size_t n = positions.size();
  graph::GraphBuilder builder(n);
  const SpatialGrid grid(positions, range);
  const auto ids = grid.slots();
  builder.reserve(n * 4);  // ballpark for typical paper densities
  sweep_in_range_pairs(grid, range * range, [&](std::size_t k, std::size_t j) {
    builder.edge(ids[k], ids[j]);
  });
  return builder.build_and_clear();
}

graph::Graph unit_disk_graph_streaming(const std::vector<Point>& positions,
                                       double range) {
  MANET_REQUIRE(range > 0.0, "transmission range must be positive");
  const std::size_t n = positions.size();
  const SpatialGrid grid(positions, range);
  const auto ids = grid.slots();
  const double range_sq = range * range;

  // Counting pass: per-node degrees straight from the pair sweep. The
  // second sweep re-tests the same distances — trading ~2x the distance
  // arithmetic for never materializing the O(m) intermediate edge list a
  // GraphBuilder accumulates, which dominates peak RSS of the cold build
  // at n = 1M.
  std::vector<std::size_t> offsets(n + 1, 0);
  sweep_in_range_pairs(grid, range_sq, [&](std::size_t k, std::size_t j) {
    ++offsets[ids[k] + 1];
    ++offsets[ids[j] + 1];
  });
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  // Fill pass, scattering both directions through per-row cursors.
  std::vector<NodeId> adjacency(offsets[n]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  sweep_in_range_pairs(grid, range_sq, [&](std::size_t k, std::size_t j) {
    adjacency[cursor[ids[k]]++] = ids[j];
    adjacency[cursor[ids[j]]++] = ids[k];
  });

  // When node ids are already in cell-sweep order (cell_order_layout),
  // every row comes out sorted: a row's backward entries arrive from
  // ascending earlier slots and are all smaller than its forward entries,
  // which the spans emit in ascending order. Arbitrary id orders need the
  // per-row fix-up below.
  for (std::size_t v = 0; v < n; ++v) {
    const auto first = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto last = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    if (!std::is_sorted(first, last)) std::sort(first, last);
  }
  return graph::Graph::from_csr(std::move(offsets), std::move(adjacency));
}

std::vector<Point> cell_order_layout(const std::vector<Point>& positions,
                                     double cell_size) {
  const SpatialGrid grid(positions, cell_size);
  std::vector<Point> out;
  out.reserve(positions.size());
  for (NodeId v : grid.slots()) out.push_back(positions[v]);
  return out;
}

std::vector<Point> generate_unit_disk_cell_order(const UnitDiskConfig& config,
                                                 Rng& rng) {
  MANET_REQUIRE(config.nodes > 0, "network size must be positive");
  const std::size_t n = config.nodes;
  // The engines' lattice, so the layout is cell-major where they bucket.
  const CellLattice lattice(n, config.range, config.width, config.height);

  // Pass 1 on a copy of the rng: per-cell occupancy, then exclusive
  // prefix sums so offsets[c] is cell c's first slot.
  std::vector<std::uint64_t> offsets(lattice.cells() + 1, 0);
  Rng replay = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = replay.uniform(0.0, config.width);
    const double y = replay.uniform(0.0, config.height);
    ++offsets[lattice.key({x, y}) + 1];
  }
  for (std::size_t c = 1; c < offsets.size(); ++c)
    offsets[c] += offsets[c - 1];

  // Pass 2 on the caller's rng: identical draws, scattered through the
  // per-cell cursors. Draw order is ascending within each cell, so the
  // layout matches cell_order_layout's within-cell convention.
  std::vector<Point> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, config.width);
    const double y = rng.uniform(0.0, config.height);
    out[offsets[lattice.key({x, y})]++] = {x, y};
  }
  return out;
}

std::size_t unit_disk_largest_component(const std::vector<Point>& positions,
                                        double range) {
  MANET_REQUIRE(range > 0.0, "transmission range must be positive");
  const std::size_t n = positions.size();
  if (n <= 1) return n;
  const SpatialGrid grid(positions, range);
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // halve the path
      x = parent[x];
    }
    return x;
  };
  // Slot-space union-find: component sizes are label-invariant, so the
  // sweep's slot indices serve directly.
  sweep_in_range_pairs(grid, range * range,
                       [&](std::size_t k, std::size_t j) {
                         const std::uint32_t a =
                             find(static_cast<std::uint32_t>(k));
                         const std::uint32_t b =
                             find(static_cast<std::uint32_t>(j));
                         if (a != b) parent[std::max(a, b)] = std::min(a, b);
                       });
  std::vector<std::uint32_t> size(n, 0);
  std::uint32_t largest = 0;
  for (std::uint32_t i = 0; i < n; ++i)
    largest = std::max(largest, ++size[find(i)]);
  return largest;
}

graph::Graph unit_disk_graph_reference(const std::vector<Point>& positions,
                                       double range) {
  MANET_REQUIRE(range > 0.0, "transmission range must be positive");
  const std::size_t n = positions.size();
  graph::GraphBuilder builder(n);
  const double range_sq = range * range;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (distance_sq(positions[i], positions[j]) < range_sq)
        builder.edge(i, j);
  return builder.build_and_clear();
}

UnitDiskNetwork generate_unit_disk(const UnitDiskConfig& config, Rng& rng) {
  MANET_REQUIRE(config.nodes > 0, "network size must be positive");
  UnitDiskNetwork net;
  net.config = config;
  net.positions.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i)
    net.positions.push_back(
        {rng.uniform(0.0, config.width), rng.uniform(0.0, config.height)});
  net.graph = unit_disk_graph(net.positions, config.range);
  return net;
}

std::optional<UnitDiskNetwork> generate_connected_unit_disk(
    const UnitDiskConfig& config, Rng& rng, std::size_t max_attempts,
    std::size_t* attempts_used) {
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    UnitDiskNetwork net = generate_unit_disk(config, rng);
    if (graph::is_connected(net.graph)) {
      if (attempts_used) *attempts_used = attempt + 1;
      return net;
    }
  }
  if (attempts_used) *attempts_used = max_attempts;
  return std::nullopt;
}

}  // namespace manet::geom
