// Layer 1 of the incremental maintenance engine: turning per-node
// position updates into exact unit-disk link deltas.
//
// geom::SpatialGrid is a CSR counting sort rebuilt from scratch per
// topology — perfect for the batch pipeline, wasteful when only a
// handful of nodes move per tick. DeltaTracker keeps the same cell
// geometry (square cells of side >= range, so every in-range pair lies
// in the same or an adjacent cell) but with mutable per-cell buckets:
// a moving node is plucked out of its old cell and dropped into the new
// one, and only the 3x3 cell block around each dirty node is rescanned.
// The link predicate is the strict `distance < range` of
// geom::unit_disk_graph, so the maintained adjacency overlay is always
// edge-identical to a from-scratch unit_disk_graph over the current
// positions (the pipeline's oracle mode asserts exactly that).
//
// Cell storage is one bucket per cell of the field lattice
// (geom::CellLattice: at most ceil(sqrt(4n)) + 1 cells a side, so O(n)),
// indexed by the cell's row-major key. A degree-calibrated layout (mean
// degree >= pi/4 over the working space) never reaches the clamp; a tiny
// range over a huge field gets coarser cells instead, which widens
// rescan blocks and repair regions but never loses a link. The
// maintained adjacency and deltas are pure functions of positions and
// range; region partitions and scopes are pure functions of those and
// the lattice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "geom/cell_lattice.hpp"
#include "geom/point.hpp"
#include "geom/spatial_grid.hpp"
#include "graph/dynamic_adjacency.hpp"
#include "incr/edge_delta.hpp"

namespace manet::incr {

class WorkerPool;

/// How far, in grid cells, each staged node's dirty 3x3 block is grown
/// when forming independent repair regions (DESIGN S30). The parallel
/// cluster-repair stage writes head status within 1 hop of a region's
/// changed-edge endpoints and reads it within 2 hops; one unit-disk hop
/// never crosses more than one cell boundary (cell side >= range), so
/// distinct regions need their core cells >= 4 cells apart (Chebyshev).
/// Symmetric growth by 2 guarantees >= 2*2+1 = 5.
inline constexpr std::size_t kRegionGrowthCells = 2;

/// DeltaTracker::scope_region's answer for a node outside every painted
/// region (and for every node when the last commit built no regions).
inline constexpr std::uint32_t kNoRegion = 0xffffffffu;

/// One commit's staged moves partitioned into independent dirty
/// regions: connected components of the grown dirty blocks. Every
/// changed edge (both endpoints) and every touched node of the tick
/// belongs to exactly one region, and distinct regions' core cells are
/// >= 2*kRegionGrowthCells+1 cells apart — far enough that the
/// region-parallel repair stage can never observe another region's
/// writes (the S30 independence argument, pinned by property tests).
/// A region's node scope is not listed here: DeltaTracker::scope_region
/// reads it off the commit's paint stamps.
struct RegionPartition {
  std::size_t count = 0;           ///< number of regions this commit
  std::vector<EdgeDelta> deltas;   ///< per-region slice of the delta
  /// Per-region sorted-unique core cell keys (row * cols + col of the
  /// 3x3 blocks around each staged node's old and new cells, before
  /// growth): the region size metric and the separation the property
  /// tests assert.
  std::vector<std::vector<std::uint32_t>> core_cells;
  std::size_t cols = 1;            ///< grid shape, for cell geometry
  std::size_t rows = 1;
};

/// Knobs of one commit(). Defaults reproduce the classic synchronous
/// serial commit; every combination yields the bitwise-identical delta,
/// because the scan diffs against the frozen pre-commit adjacency and
/// the results are merged in a canonical order (DESIGN S31).
struct CommitOptions {
  /// Filled with the tick's independent-region partition when non-null.
  RegionPartition* regions = nullptr;
  /// Shards the dirty-block scan over the pool's lanes when non-null.
  WorkerPool* pool = nullptr;
  /// Leave the adjacency overlay untouched: the returned delta is the
  /// exact edit list, to be replayed later via apply_delta(). This is
  /// what lets a pipelined engine commit tick t+1 while tick t's repair
  /// is still reading the overlay.
  bool defer_adjacency = false;
  /// Paint growth used when forming regions. The default reproduces the
  /// snapshot pipeline's partition (writes within 1 hop, reads within
  /// 2); the message-driven engine asks for a wider halo because its
  /// repair traffic travels further (row re-broadcasts feeding head
  /// reselection feeding TTL-2 gateway floods — see DESIGN).
  std::size_t growth_cells = kRegionGrowthCells;
  /// Optional per-mover growth tiering. When `head_of` is non-empty
  /// (head_of[v] == v marks v a clusterhead as of the start of the
  /// tick), a staged node paints `growth_cells` only if one of its OWN
  /// changed edges touches a clusterhead — those edges can launch the
  /// full resignation / re-affiliation / reselection / flood chain. A
  /// mover whose changed edges connect only ordinary members paints
  /// `member_growth_cells` (its wave stops at the TTL-2 flood of an
  /// adjacent head), and a mover with no changed edges at all paints
  /// `quiet_growth_cells` (it launches no wave; the paint exists only
  /// so overlapping repair merges regions). Each mover's paint has to
  /// contain only the wave its own edges can start: waves from other
  /// movers are contained by those movers' paint, and any overlap
  /// between paints unions the regions.
  std::span<const NodeId> head_of = {};
  std::size_t member_growth_cells = kRegionGrowthCells;
  std::size_t quiet_growth_cells = kRegionGrowthCells;
};

/// Maintains node positions, a mutable cell grid over a fixed working
/// space, and the unit-disk adjacency overlay they induce.
class DeltaTracker {
 public:
  /// Builds the full initial state: positions bucketed into cells,
  /// adjacency = unit-disk graph of `positions` at `range`. The working
  /// space [0, width] x [0, height] fixes the cell geometry; positions
  /// outside it are clamped onto border cells (matching SpatialGrid).
  /// Coordinates must be finite (std::invalid_argument otherwise).
  /// `streaming_build` constructs the initial adjacency through
  /// unit_disk_graph_streaming — same graph, no intermediate edge list,
  /// for memory-bound cold builds.
  DeltaTracker(std::vector<geom::Point> positions, double range, double width,
               double height, bool streaming_build = false);

  /// The same tracker; the cell index selects nothing. Kept because
  /// perfbench/runner.cpp still passes one; deleted at the next
  /// benchmark change.
  DeltaTracker(std::vector<geom::Point> positions, double range, double width,
               double height, geom::GridIndex /*index*/, bool streaming_build)
      : DeltaTracker(std::move(positions), range, width, height,
                     streaming_build) {}

  std::size_t size() const { return positions_.size(); }
  double range() const { return range_; }
  const std::vector<geom::Point>& positions() const { return positions_; }

  /// Lattice shape: cells per side, at most ceil(sqrt(4n)) + 1 each.
  std::size_t cols() const { return lattice_.cols(); }
  std::size_t rows() const { return lattice_.rows(); }

  /// The maintained adjacency overlay (always consistent with the last
  /// committed positions).
  const graph::DynamicAdjacency& adjacency() const { return adjacency_; }

  /// Stages a position update for `v`. Repeated stages for the same node
  /// before commit() keep the last position. `p` must be finite; far
  /// positions clamp onto border cells like the constructor's. O(1).
  void stage_move(NodeId v, geom::Point p);

  /// Number of staged (not yet committed) moves.
  std::size_t staged_count() const { return staged_.size(); }

  /// Distinct grid cells rescanned by the last commit() (the union of
  /// its 3x3 dirty blocks) — the engine's "dirty region" size at the
  /// geometry layer. Overlapping blocks count once.
  std::size_t last_cells_scanned() const { return last_cells_scanned_; }

  /// Applies all staged moves: updates positions, migrates dirty nodes
  /// between cells, rescans only the dirty 3x3 blocks, applies the edge
  /// changes to the adjacency overlay, and returns them. Expected
  /// O(dirty * d) for d = average degree. When `regions` is non-null it
  /// is additionally filled with the tick's independent-region
  /// partition (same cost class: O(dirty) cells painted).
  EdgeDelta commit(RegionPartition* regions = nullptr);

  /// Full-control commit: parallel scan and/or deferred adjacency
  /// edits. See CommitOptions; the delta is identical in every mode.
  EdgeDelta commit(const CommitOptions& opts);

  /// Region whose scope holds `v` after the last commit, or kNoRegion.
  /// A region's scope is the nodes whose committed cell its paint (the
  /// grown blocks of its movers) covers. Scopes are disjoint, and a node
  /// outside every scope sits at least (g - 1) cells — hence at least
  /// that many unit-disk hops — from any changed edge painted with
  /// growth g, for every growth tier in play. The answer is a few array
  /// reads (v's cell's paint stamp and painter) and holds until the next
  /// commit: a commit that builds no regions (no RegionPartition, or
  /// nothing staged) answers kNoRegion for every node, and stage_move
  /// changes no answer. Safe to call concurrently; `v` must be < size().
  std::uint32_t scope_region(NodeId v) const;

  /// Replays a delta returned by a defer_adjacency commit onto the
  /// overlay. Must be applied in commit order before the next commit's
  /// scan (the scan diffs against the current overlay).
  void apply_delta(const EdgeDelta& delta);

 private:
  /// Diffs staged_[i], i in [begin, end), against the frozen adjacency
  /// and appends normalized changed edges to the chunk output, sorted on
  /// return. An edge between two staged nodes is recorded only by its
  /// smaller endpoint, so the concatenation over chunks has no
  /// duplicates.
  void scan_chunk(std::size_t begin, std::size_t end, EdgeDelta& delta) const;

  /// Starts a new per-commit cell set: every stamp from an older set
  /// reads as unset from here on.
  void bump_epoch();

  /// Paints the grown dirty blocks (per-mover growth per CommitOptions'
  /// tiering), unions overlapping labels, maps every label to its
  /// region in paint_region_, and fills `out` from the committed
  /// `delta`. `old_cells[i]` is the cell staged_[i] occupied before
  /// migration.
  void build_regions(const EdgeDelta& delta,
                     const std::vector<std::uint32_t>& old_cells,
                     const CommitOptions& opts, RegionPartition& out);

  std::vector<geom::Point> positions_;
  graph::DynamicAdjacency adjacency_;
  double range_;
  double range_sq_;
  geom::CellLattice lattice_;
  std::vector<std::vector<NodeId>> cells_;    // per-cell id buckets
  std::vector<std::uint32_t> cell_of_node_;   // node -> cell key
  std::vector<NodeId> staged_;                // dirty node ids
  std::vector<char> is_staged_;               // dedup flag per node
  std::size_t last_cells_scanned_ = 0;        // dirty-block cells, last commit

  // Per-commit cell sets, one at a time: a cell belongs to the current
  // set iff its stamp equals epoch_. A commit stamps its scanned cells,
  // then, when it builds regions, its painted cells, each painted cell's
  // label naming the staged index of its first painter. The paint and
  // paint_region_ outlive the commit: scope_region reads them until the
  // next one, which empties paint_region_ first. Allocated once; a
  // commit touches O(staged) cells.
  std::vector<std::uint32_t> cell_stamp_;
  std::vector<std::uint32_t> cell_label_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> union_parent_;   // DSU over staged indices
  std::vector<std::uint32_t> paint_region_;   // staged index -> region id
};

}  // namespace manet::incr
