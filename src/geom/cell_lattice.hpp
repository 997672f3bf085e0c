// The field lattice: square cells of side >= a range over a fixed
// [0, width] x [0, height] working space, keyed row-major.
//
// Any pair closer than the cell side lies in the same or an adjacent
// cell, so the 3x3 block around a node's cell holds every unit-disk
// neighbor of it. Each side holds at most ceil(sqrt(4n)) + 1 cells, so
// the lattice stays O(n) for n nodes. The paper's layouts (n nodes
// uniform in the field, the range set for mean degree d) need about
// n * pi / d cells and keep the full lattice for every d >= pi / 4; a
// tiny range over a huge field gets coarser cells instead, which widens
// blocks but never separates an in-range pair. incr::DeltaTracker keeps
// its buckets and per-commit cell sets on this lattice, and
// generate_unit_disk_cell_order places nodes cell-major on it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "geom/point.hpp"

namespace manet::geom {

class CellLattice {
 public:
  /// The lattice for `n` nodes over [0, width] x [0, height] with cells
  /// of side >= `cell` (> 0). Computes the shape only; allocates nothing.
  CellLattice(std::size_t n, double cell, double width, double height) {
    MANET_REQUIRE(cell > 0.0, "transmission range must be positive");
    MANET_REQUIRE(width > 0.0 && height > 0.0, "area must be positive");
    const auto cap = static_cast<std::size_t>(
                         std::ceil(std::sqrt(4.0 * static_cast<double>(n)))) +
                     1;
    cols_ = dim(width, cell, cap);
    rows_ = dim(height, cell, cap);
    // At most 2^32 cells, tested by division so it cannot overflow.
    MANET_REQUIRE(cols_ <= (std::uint64_t{1} << 32) / rows_,
                  "cell keys must fit in 32 bits");
    inv_cell_x_ = static_cast<double>(cols_) / width;
    inv_cell_y_ = static_cast<double>(rows_) / height;
  }

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  std::size_t cells() const { return cols_ * rows_; }

  /// Row-major key (row * cols + col) of the cell holding `p`. Positions
  /// outside the field clamp onto the border cells. `p` must be finite.
  std::uint32_t key(const Point& p) const {
    const std::size_t col = clamp(p.x * inv_cell_x_, cols_);
    const std::size_t row = clamp(p.y * inv_cell_y_, rows_);
    return static_cast<std::uint32_t>(row * cols_ + col);
  }

  /// Calls `fn(key)` for every cell within Chebyshev distance `reach` of
  /// cell `center`, clipped to the lattice, in row-major order.
  template <typename Fn>
  void for_each_in_block(std::uint32_t center, std::size_t reach,
                         Fn&& fn) const {
    const std::size_t col = center % cols_;
    const std::size_t row = center / cols_;
    const std::size_t c0 = col > reach ? col - reach : 0;
    const std::size_t c1 = std::min(col + reach, cols_ - 1);
    const std::size_t r0 = row > reach ? row - reach : 0;
    const std::size_t r1 = std::min(row + reach, rows_ - 1);
    for (std::size_t r = r0; r <= r1; ++r)
      for (std::size_t c = c0; c <= c1; ++c)
        fn(static_cast<std::uint32_t>(r * cols_ + c));
  }

 private:
  // floor(extent / cell) clamped into [1, max_dim], computed in double so
  // degenerate huge-area / tiny-cell inputs cannot overflow the cast.
  static std::size_t dim(double extent, double cell, std::size_t max_dim) {
    const double cells = extent / cell;
    if (!(cells > 1.0)) return 1;
    if (cells >= static_cast<double>(max_dim)) return max_dim;
    return static_cast<std::size_t>(cells);
  }

  // floor(scaled) clamped into [0, dim), in double before the integer
  // cast, so a far but finite position lands on a border cell.
  static std::size_t clamp(double scaled, std::size_t dim) {
    if (!(scaled > 0.0)) return 0;
    if (scaled >= static_cast<double>(dim - 1)) return dim - 1;
    return static_cast<std::size_t>(scaled);
  }

  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
  double inv_cell_x_ = 0.0;  // cols / width
  double inv_cell_y_ = 0.0;  // rows / height
};

}  // namespace manet::geom
