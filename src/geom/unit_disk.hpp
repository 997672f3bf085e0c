// Unit-disk graph generation — the paper's simulation workload.
//
// The paper places n nodes uniformly at random in a 100 x 100 working
// space, gives every node the same transmission range r, links nodes whose
// distance is below r, and *discards disconnected topologies*. Networks
// are generated for two target average degrees (d = 6 and d = 18); we
// derive r from d with the standard area argument E[deg] ~= n * pi * r^2 /
// A and keep the generator honest with tests on the achieved degree.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "geom/point.hpp"
#include "graph/graph.hpp"

namespace manet::geom {

/// Parameters of the random-placement workload.
struct UnitDiskConfig {
  double width = 100.0;        ///< working space width (paper: 100)
  double height = 100.0;       ///< working space height (paper: 100)
  std::size_t nodes = 50;      ///< network size n
  double range = 25.0;         ///< transmission range r
};

/// A generated topology: positions plus the induced unit-disk graph.
struct UnitDiskNetwork {
  UnitDiskConfig config;
  std::vector<Point> positions;
  graph::Graph graph;
};

/// Transmission range that yields expected average degree `d` for `n`
/// nodes uniform in a `width` x `height` area (border effects ignored):
/// r = sqrt(d * A / (n * pi)).
double range_for_average_degree(double d, std::size_t n, double width,
                                double height);

/// Places nodes uniformly at random and links pairs closer than range.
UnitDiskNetwork generate_unit_disk(const UnitDiskConfig& config, Rng& rng);

/// Builds the unit-disk graph induced by fixed positions (used by the
/// mobility module after each movement step). Uses a spatial grid with
/// cell size = range, so construction is expected O(n * d) instead of the
/// naive O(n^2) pair scan.
graph::Graph unit_disk_graph(const std::vector<Point>& positions, double range);

/// Same graph as unit_disk_graph, built by a two-pass counting sweep
/// (degree count, prefix sum, cursor fill) straight into CSR arrays — no
/// intermediate per-pair edge buffer, so peak RSS of a cold build is
/// roughly halved. Slightly more distance arithmetic (each pair is tested
/// twice); use for large-n cold builds where memory is the binding
/// constraint.
graph::Graph unit_disk_graph_streaming(const std::vector<Point>& positions,
                                       double range);

/// Returns `positions` permuted into spatial-grid slot order (row-major
/// cells of side >= cell_size, original index ascending within a cell).
/// Re-gridding the returned layout at the same cell size maps node id k
/// to slot k, which gives cache-friendly neighborhoods and lets
/// unit_disk_graph_streaming emit sorted rows without a fix-up pass. For
/// i.i.d. random placements the relabeling does not change the
/// distribution.
std::vector<Point> cell_order_layout(const std::vector<Point>& positions,
                                     double cell_size);

/// Streaming cell-major placement: draws the exact same uniform point
/// stream as generate_unit_disk (`rng` is advanced identically) but
/// writes each point straight into its row-major lattice-cell slot —
/// square cells of side >= range over [0, width] x [0, height], cell
/// count capped at O(n) like SpatialGrid's. Two passes over a replayed
/// copy of the rng (count per-cell occupancy, prefix-sum, re-draw and
/// scatter), so the only working memory beyond the returned vector is
/// the per-cell offset table: no intermediate layout copy, no
/// SpatialGrid, no graph. The result is a cell-major relabeling of an
/// i.i.d. uniform placement — the distribution cell_order_layout
/// produces, without ever materializing the unordered layout.
std::vector<Point> generate_unit_disk_cell_order(const UnitDiskConfig& config,
                                                 Rng& rng);

/// Size of the largest connected component of the unit-disk graph
/// induced by `positions`, without materializing the graph: a union-find
/// over the grid sweep's in-range pairs. Equals the largest component
/// size of graph::components(unit_disk_graph(positions, range)) at O(n)
/// working memory instead of O(n + m); the graph is connected exactly
/// when the answer is positions.size(). 0 for no positions.
std::size_t unit_disk_largest_component(const std::vector<Point>& positions,
                                        double range);

/// Reference O(n^2) pair-scan implementation. Kept for cross-checking the
/// grid-based unit_disk_graph (tests assert identical edge sets) and as
/// the baseline for bench/micro_pipeline speedup numbers.
graph::Graph unit_disk_graph_reference(const std::vector<Point>& positions,
                                       double range);

/// Rejection-samples topologies until one is connected, or gives up after
/// `max_attempts` (returns nullopt). The paper: "If the generated network
/// is not connected, it is discarded." When `attempts_used` is non-null
/// it receives the number of topologies generated (== max_attempts on
/// exhaustion), so callers can report the retry budget they spent.
std::optional<UnitDiskNetwork> generate_connected_unit_disk(
    const UnitDiskConfig& config, Rng& rng, std::size_t max_attempts = 10000,
    std::size_t* attempts_used = nullptr);

}  // namespace manet::geom
