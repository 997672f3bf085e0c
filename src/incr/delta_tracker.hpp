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
// Cell storage follows geom::GridIndex: the dense index allocates one
// bucket per lattice cell with the per-dimension cell count clamped to
// O(sqrt(n)) (the historical layout), while the sparse index interns
// only cells that have ever held a node — uint64 row-major cell keys
// mapped to compact bucket slots through an open-addressing table — so
// memory stays O(n + moves) at full lattice resolution no matter how
// large the field. Both indexes run the same commit path (a dense slot
// IS its cell key), and the maintained adjacency, deltas, and region
// partitions are pure functions of positions and range either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
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
/// looks it up in the commit's paint map.
struct RegionPartition {
  std::size_t count = 0;           ///< number of regions this commit
  std::vector<EdgeDelta> deltas;   ///< per-region slice of the delta
  /// Per-region sorted-unique core cell keys (row * cols + col of the
  /// 3x3 blocks around each staged node's old and new cells, before
  /// growth): the region size metric and the separation the property
  /// tests assert. 64-bit because the sparse index runs the lattice
  /// unclamped.
  std::vector<std::vector<std::uint64_t>> core_cells;
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
  /// `index` picks the cell storage (kAuto: dense until the lattice
  /// outgrows the dense clamp). `streaming_build` constructs the
  /// initial adjacency through unit_disk_graph_streaming — same graph,
  /// no intermediate edge list, for memory-bound cold builds.
  DeltaTracker(std::vector<geom::Point> positions, double range, double width,
               double height, geom::GridIndex index = geom::GridIndex::kAuto,
               bool streaming_build = false);

  std::size_t size() const { return positions_.size(); }
  double range() const { return range_; }
  const std::vector<geom::Point>& positions() const { return positions_; }

  /// True when cell storage resolved to the sparse interned index.
  bool sparse() const { return sparse_; }
  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }

  /// Allocated cell buckets: cols*rows for the dense index, cells ever
  /// occupied (O(n + committed moves)) for the sparse one.
  std::size_t cell_slots() const { return cells_.size(); }

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
  /// growth g, for every growth tier in play. The answer is one probe of
  /// the paint map and holds until the next commit: a commit that builds
  /// no regions (no RegionPartition, or nothing staged) answers
  /// kNoRegion for every node, and stage_move changes no answer. Safe to
  /// call concurrently; `v` must be < size().
  std::uint32_t scope_region(NodeId v) const;

  /// Replays a delta returned by a defer_adjacency commit onto the
  /// overlay. Must be applied in commit order before the next commit's
  /// scan (the scan diffs against the current overlay).
  void apply_delta(const EdgeDelta& delta);

  /// Sparse-index slot compactions performed so far (satellite: the
  /// intern table used to grow forever under long teleporting churn).
  std::uint64_t compactions() const { return compactions_; }

  /// Cell buckets currently holding at least one node.
  std::size_t occupied_cells() const { return occupied_cells_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Row-major cell key of `p` (row * cols + col, 64-bit so the sparse
  /// lattice never clamps).
  std::uint64_t cell_key(const geom::Point& p) const;

  /// Bucket slot of `key`, or kNoSlot when the sparse index has never
  /// seen the cell. Dense: the key itself.
  std::uint32_t slot_of(std::uint64_t key) const;

  /// Slot of `key`, creating a bucket on first occupancy (sparse).
  std::uint32_t intern(std::uint64_t key);

  /// Inverse of intern for occupied slots.
  std::uint64_t key_of_slot(std::uint32_t slot) const;

  /// Doubles the sparse key->slot table.
  void grow_table();

  /// Rebuilds the key->slot table at `cap` buckets (pow2) from
  /// slot_keys_.
  void rebuild_table(std::size_t cap);

  /// Sparse index only: when the ever-interned slot count has outgrown
  /// the occupied-cell count by 4x, drop the empty buckets and renumber
  /// the survivors (ascending old-slot order, so the result is a pure
  /// function of the commit history). Slot ids are internal — nothing
  /// outside the tracker keys off them — so renumbering is invisible to
  /// deltas, regions, and adjacency.
  void maybe_compact();

  /// Diffs staged_[i], i in [begin, end), against the frozen adjacency
  /// and appends normalized changed edges plus scanned cell keys to the
  /// chunk outputs; sorts all three on return. An edge between two
  /// staged nodes is recorded only by its smaller endpoint, so the
  /// concatenation over chunks has no duplicates.
  void scan_chunk(std::size_t begin, std::size_t end, EdgeDelta& delta,
                  std::vector<std::uint64_t>& keys) const;

  /// Prepares the per-commit paint map for ~`expected` distinct cells.
  void paint_reset(std::size_t expected);

  /// Records `label` as the painter of cell `key`. Returns the previous
  /// painter's label if the cell was already painted this commit, else
  /// kNoSlot. Grows on demand.
  std::uint32_t paint_insert(std::uint64_t key, std::uint32_t label);

  /// Label of the painter of `key`, or kNoSlot if the cell is unpainted.
  std::uint32_t paint_find(std::uint64_t key) const;

  /// Paints the grown dirty blocks (per-mover growth per CommitOptions'
  /// tiering), unions overlapping labels, maps every label to its
  /// region in paint_region_, and fills `out` from the committed
  /// `delta`. `old_slots[i]` is the slot staged_[i] occupied before
  /// migration.
  void build_regions(const EdgeDelta& delta,
                     const std::vector<std::uint32_t>& old_slots,
                     const CommitOptions& opts, RegionPartition& out);

  std::vector<geom::Point> positions_;
  graph::DynamicAdjacency adjacency_;
  double range_;
  double range_sq_;
  double width_;
  double height_;
  bool sparse_ = false;
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
  double inv_cell_x_ = 0.0;  // cols / width
  double inv_cell_y_ = 0.0;  // rows / height
  std::vector<std::vector<NodeId>> cells_;    // per-slot id buckets
  std::vector<std::uint64_t> slot_keys_;      // sparse: slot -> cell key
  std::vector<std::uint64_t> table_keys_;     // sparse: open addressing,
  std::vector<std::uint32_t> table_slots_;    //   UINT64_MAX = empty
  std::vector<std::uint32_t> cell_of_node_;   // node -> bucket slot
  std::vector<NodeId> staged_;                // dirty node ids
  std::vector<char> is_staged_;               // dedup flag per node
  std::size_t last_cells_scanned_ = 0;        // dirty-block cells, last commit
  std::size_t occupied_cells_ = 0;            // buckets with >= 1 node
  std::uint64_t compactions_ = 0;             // sparse slot compactions

  // Per-commit scratch (allocated once, O(staged) per tick): dirty-block
  // keys for the cells-scanned count, the open-addressing paint map of
  // the region builder, and the union-find over staged indices. The
  // paint map and paint_region_ outlive the commit: scope_region reads
  // them until the next one, which empties paint_region_ first.
  std::vector<std::uint64_t> scanned_keys_;
  std::vector<std::uint64_t> paint_keys_;     // pow2, UINT64_MAX = empty
  std::vector<std::uint32_t> paint_labels_;   // painter's staged index
  std::size_t paint_count_ = 0;
  std::vector<std::uint32_t> union_parent_;   // DSU over staged indices
  std::vector<std::uint32_t> paint_region_;   // staged index -> region id
};

}  // namespace manet::incr
