// Uniform spatial hashing grid for range queries over node positions.
//
// Unit-disk topology construction only needs pairs closer than the
// transmission range r. Bucketing nodes into square cells of side r means
// every such pair sits in the same or an adjacent cell, so the O(n^2)
// pair scan collapses to an expected O(n * d) sweep over 3x3 cell
// neighborhoods (d = average degree). The grid is rebuilt from scratch
// per topology by a two-pass counting sort over one CSR offset per
// lattice cell, O(n + cells). The lattice is clamped to at most
// max(64, 4n) cells: a degree-calibrated layout (mean degree d >= pi/4
// over its field) needs about n * pi / d cells and never reaches the
// clamp; a tiny range over a huge field gets coarser cells instead,
// which widens candidate sets but never loses a pair.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "geom/point.hpp"

namespace manet::geom {

/// Selects nothing: the grid has one cell storage. Kept because
/// perfbench/runner.cpp still names its one value; deleted at the next
/// benchmark change.
enum class GridIndex { kSparse };

/// A uniform cell grid over the bounding box of a point set. Cells are
/// squares of side >= cell_size, except where the O(n) clamp coarsens
/// them.
class SpatialGrid {
 public:
  /// Buckets `positions` (indexed by NodeId) into cells of side at least
  /// `cell_size` (> 0). The point vector must outlive nothing — the grid
  /// copies nothing and stores only ids.
  SpatialGrid(const std::vector<Point>& positions, double cell_size);

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }

  /// Column of `p` (clamped to the grid, so out-of-box points land on the
  /// border cells).
  std::size_t col_of(const Point& p) const;
  /// Row of `p` (clamped likewise).
  std::size_t row_of(const Point& p) const;

  /// Node ids bucketed in cell (col, row), in increasing id order.
  std::span<const NodeId> cell(std::size_t col, std::size_t row) const;

  /// Calls `fn(NodeId)` for every node in the 3x3 cell block around
  /// (col, row) — the candidate set for a range query of radius
  /// <= cell_size anchored in that cell.
  template <typename Fn>
  void for_each_in_block(std::size_t col, std::size_t row, Fn&& fn) const {
    const std::size_t c0 = col > 0 ? col - 1 : 0;
    const std::size_t c1 = col + 1 < cols_ ? col + 1 : cols_ - 1;
    const std::size_t r0 = row > 0 ? row - 1 : 0;
    const std::size_t r1 = row + 1 < rows_ ? row + 1 : rows_ - 1;
    for (std::size_t r = r0; r <= r1; ++r)
      for (std::size_t c = c0; c <= c1; ++c)
        for (NodeId v : cell(c, r)) fn(v);
  }

  /// Calls `fn(col, row, slot_begin, slot_end)` for every *occupied*
  /// cell in row-major order — the sweep unit_disk_graph iterates.
  template <typename Fn>
  void for_each_occupied(Fn&& fn) const {
    for (std::size_t cell_idx = 0; cell_idx + 1 < offsets_.size(); ++cell_idx)
      if (offsets_[cell_idx] != offsets_[cell_idx + 1])
        fn(cell_idx % cols_, cell_idx / cols_, offsets_[cell_idx],
           offsets_[cell_idx + 1]);
  }

  /// All bucketed node ids in cell-sweep order (row-major cells, ids
  /// ascending within a cell). Slot k of this span corresponds to slot k
  /// of slot_x()/slot_y().
  std::span<const NodeId> slots() const { return ids_; }

  /// Cell-ordered copies of the point coordinates: slot_x()[k] is the x
  /// coordinate of node slots()[k]. Keeping these contiguous per cell
  /// block turns neighborhood scans into linear sweeps.
  std::span<const double> slot_x() const { return xs_; }
  std::span<const double> slot_y() const { return ys_; }

  /// First slot index of cell (col, row); contiguous cell ranges map to
  /// contiguous slot spans.
  std::size_t cell_begin(std::size_t col, std::size_t row) const {
    return offsets_[row * cols_ + col];
  }
  /// One-past-last slot index of cell (col, row).
  std::size_t cell_end(std::size_t col, std::size_t row) const {
    return offsets_[row * cols_ + col + 1];
  }

 private:
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double inv_cell_x_ = 0.0;  // cols / width  (0 when width is 0)
  double inv_cell_y_ = 0.0;  // rows / height (0 when height is 0)
  std::vector<std::size_t> offsets_;  // CSR over the cols*rows cells
  std::vector<NodeId> ids_;           // node ids grouped by cell
  std::vector<double> xs_;            // coordinates in slot order
  std::vector<double> ys_;
};

}  // namespace manet::geom
