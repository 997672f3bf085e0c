// Packed variable-length rows: the storage behind every per-node list of
// the backbone store (core::StaticBackbone) — the CH_HOP1/CH_HOP2 tables,
// both coverage halves (C², C³) and the gateway selections.
//
// One element array holds every row end to end, and one (offset, length)
// slot per row locates it. Copying or freeing a table is then a few
// array operations, not one heap block per row — which is what a
// backbone snapshot (IncrementalBackbone::materialize, every broadcast
// tick) pays for. Rows are read as spans.
//
// assign(v, row) rewrites row v in place when the new row is no longer
// than the old one and appends it at the end of the array otherwise; the
// superseded entries become dead slack. When dead entries outnumber the
// live ones (and the rows, so that a compaction's O(rows + live) cost is
// always paid for by the slack it drops), the array is compacted: rows
// repacked in row order.
//
// Span lifetime: a span from operator[] stays valid until the next
// assign() to the same table (any row) — the append may reallocate the
// array and a compaction moves every row. assign() itself accepts a row
// read from the same table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace manet::core {

template <typename T>
class RowTable {
  static_assert(std::is_trivially_copyable_v<T>,
                "rows are moved with memcpy/memmove");

 public:
  RowTable() = default;
  /// `rows` empty rows.
  explicit RowTable(std::size_t rows) : slots_(rows) {}

  /// Number of rows.
  std::size_t size() const { return slots_.size(); }

  /// Entries across all rows (dead slack excluded).
  std::size_t entries() const { return live_; }

  /// Entries the element array holds, dead slack included. Never more
  /// than entries() + max(entries(), size()) after an assign().
  std::size_t stored() const { return data_.size(); }

  /// Row `v`; valid until the next assign() to this table.
  std::span<const T> operator[](std::size_t v) const {
    MANET_ASSERT(v < slots_.size(), "row index out of range");
    const Slot s = slots_[v];
    return {data_.data() + s.offset, s.length};
  }

  /// Replaces row `v` with `row` (which may be a span into this table).
  void assign(std::size_t v, std::span<const T> row) {
    MANET_ASSERT(v < slots_.size(), "row index out of range");
    Slot& s = slots_[v];
    const bool in_place = row.size() <= s.length;
    const std::size_t live = live_ - s.length + row.size();
    const std::size_t end = data_.size() + (in_place ? 0 : row.size());
    MANET_REQUIRE(end <= std::numeric_limits<std::uint32_t>::max(),
                  "row table exceeds 2^32 entries");
    if (end - live > std::max(live, slots_.size())) {
      compact(v, row, live);
      return;
    }
    live_ = live;
    if (in_place) {
      // memmove: `row` may overlap slot v itself.
      if (!row.empty())
        std::memmove(data_.data() + s.offset, row.data(), row.size_bytes());
      s.length = static_cast<std::uint32_t>(row.size());
      return;
    }
    const std::size_t at = data_.size();
    if (end > data_.capacity()) {
      // Grow into a fresh array: `row` may live in the old one, which
      // stays intact until the swap.
      std::vector<T> grown;
      grown.reserve(std::max(end, 2 * data_.capacity()));
      grown.assign(data_.begin(), data_.end());
      grown.insert(grown.end(), row.begin(), row.end());
      data_.swap(grown);
    } else {
      data_.resize(end);  // within capacity: no reallocation under `row`
      std::memcpy(data_.data() + at, row.data(), row.size_bytes());
    }
    s = {static_cast<std::uint32_t>(at),
         static_cast<std::uint32_t>(row.size())};
  }

  /// Row-by-row content equality; layout and slack are not compared.
  friend bool operator==(const RowTable& a, const RowTable& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t v = 0; v < a.size(); ++v)
      if (!std::ranges::equal(a[v], b[v])) return false;
    return true;
  }

 private:
  struct Slot {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  /// Repacks every row in row order, with `row` as row v's new content.
  void compact(std::size_t v, std::span<const T> row, std::size_t live) {
    std::vector<T> packed;
    packed.reserve(live);
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      const std::span<const T> r = w == v ? row : (*this)[w];
      slots_[w] = {static_cast<std::uint32_t>(packed.size()),
                   static_cast<std::uint32_t>(r.size())};
      packed.insert(packed.end(), r.begin(), r.end());
    }
    data_.swap(packed);
    live_ = live;
  }

  std::vector<T> data_;
  std::vector<Slot> slots_;
  std::size_t live_ = 0;
};

}  // namespace manet::core
