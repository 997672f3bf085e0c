#include "geom/spatial_grid.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace manet::geom {
namespace {

std::size_t clamp_index(double v, std::size_t bound) {
  if (!(v > 0.0)) return 0;  // also catches NaN
  const auto idx = static_cast<std::size_t>(v);
  return idx < bound ? idx : bound - 1;
}

// floor(extent / cell_size) clamped into [1, max_dim], with the double
// clamped before the integer cast (extent / cell_size can exceed the
// size_t range for degenerate huge-area / tiny-cell inputs, where the
// cast would be undefined).
std::size_t dim_for(double extent, double cell_size, std::size_t max_dim) {
  const double cells = extent / cell_size;
  if (!(cells > 1.0)) return 1;
  if (cells >= static_cast<double>(max_dim)) return max_dim;
  return std::max<std::size_t>(1, static_cast<std::size_t>(cells));
}

}  // namespace

SpatialGrid::SpatialGrid(const std::vector<Point>& positions,
                         double cell_size) {
  MANET_REQUIRE(cell_size > 0.0, "cell size must be positive");
  const std::size_t n = positions.size();
  offsets_.assign(2, 0);  // 1x1-grid placeholder when empty
  if (n == 0) return;

  double max_x = positions[0].x, max_y = positions[0].y;
  min_x_ = positions[0].x;
  min_y_ = positions[0].y;
  for (const Point& p : positions) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double width = max_x - min_x_;
  const double height = max_y - min_y_;

  // floor(extent / cell_size) keeps the actual cell side >= cell_size, so
  // any pair within cell_size is confined to a 3x3 cell block. The cell
  // array is clamped to O(n) by halving the longer side: growing cells
  // only widens the candidate set, never loses a pair. Each side starts
  // at most cell_cap, and the test divides instead of multiplying, so
  // nothing overflows.
  const std::size_t cell_cap = std::max<std::size_t>(64, 4 * n);
  cols_ = dim_for(width, cell_size, cell_cap);
  rows_ = dim_for(height, cell_size, cell_cap);
  while (cols_ > cell_cap / rows_) {
    if (cols_ >= rows_)
      cols_ = (cols_ + 1) / 2;
    else
      rows_ = (rows_ + 1) / 2;
  }

  inv_cell_x_ = width > 0.0 ? static_cast<double>(cols_) / width : 0.0;
  inv_cell_y_ = height > 0.0 ? static_cast<double>(rows_) / height : 0.0;

  // Two-pass counting sort of node ids into cells; scanning ids in order
  // leaves each cell's id list sorted.
  offsets_.assign(cols_ * rows_ + 1, 0);
  std::vector<std::size_t> cell_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = row_of(positions[i]) * cols_ + col_of(positions[i]);
    cell_of[i] = c;
    ++offsets_[c + 1];
  }
  for (std::size_t c = 1; c < offsets_.size(); ++c)
    offsets_[c] += offsets_[c - 1];
  ids_.resize(n);
  xs_.resize(n);
  ys_.resize(n);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = cursor[cell_of[i]]++;
    ids_[slot] = static_cast<NodeId>(i);
    xs_[slot] = positions[i].x;
    ys_[slot] = positions[i].y;
  }
}

std::size_t SpatialGrid::col_of(const Point& p) const {
  return clamp_index((p.x - min_x_) * inv_cell_x_, cols_);
}

std::size_t SpatialGrid::row_of(const Point& p) const {
  return clamp_index((p.y - min_y_) * inv_cell_y_, rows_);
}

std::span<const NodeId> SpatialGrid::cell(std::size_t col,
                                          std::size_t row) const {
  MANET_REQUIRE(col < cols_ && row < rows_, "cell index out of range");
  const std::size_t b = cell_begin(col, row);
  return {ids_.data() + b, cell_end(col, row) - b};
}

}  // namespace manet::geom
