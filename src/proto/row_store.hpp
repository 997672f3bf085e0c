// Content-interned, refcounted payload rows for the maintenance
// protocol's per-node message caches.
//
// Every node caches its neighbors' last CH_HOP1/CH_HOP2 payloads and the
// selection sets of nearby gateway origins. Those payloads are broadcast
// — one sender's row lands identically in every neighbor's cache, and
// one origin's selection set lands identically in every selected node —
// so storing them per cache multiplies the row bytes by the average
// degree. The store deduplicates by content: a row is held once, callers
// hold 32-bit refs, and reference counts recycle slots when the last
// cache drops a row. At n=100k this is the difference between ~4.2 KB
// and ~1.5 KB of peak RSS per node.
//
// Concurrency contract (region-sharded delivery): intern/retain/release
// serialize on one mutex; content reads (hop1()/hop2()) are lock-free.
// A reader only ever dereferences refs it legitimately holds, which were
// interned under the mutex and published to the reader through the
// engine's region barriers (WorkerPool join), so reads race with nothing
// — rows live in fixed-capacity chunk slabs whose slots never move.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/ids.hpp"
#include "core/neighbor_tables.hpp"

namespace manet::proto {

/// Handle of one interned row. Ref 0 is the canonical empty row of
/// either kind: always valid, never released, the default of a cache
/// slot with no payload.
using RowRef = std::uint32_t;
inline constexpr RowRef kEmptyRow = 0;

namespace detail {

/// One refcounted intern table over rows of type Row. Slots live in
/// fixed-size chunks behind a bounded chunk directory, so a slot's
/// address never changes and lock-free readers are safe (see the
/// concurrency contract above).
template <typename Row>
class InternTable {
 public:
  using Elem = typename Row::value_type;

  InternTable() {
    table_.assign(64, 0);
    // Slot 0 = the pinned empty row.
    const auto [chunk, off] = locate(0);
    ensure_chunk(chunk);
    count_ = 1;
    refs_.push_back(1);  // pinned forever
    hash_of_.push_back(0);
  }

  /// Interns `row` (copying on first sight) and takes one reference.
  /// Reads the span directly: interning a table row or a message payload
  /// builds no temporary.
  RowRef intern(std::span<const Elem> row) {
    if (row.empty()) return kEmptyRow;
    const std::uint64_t h = hash(row);
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t mask = table_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = table_[i];
      if (slot == 0) break;
      const RowRef r = slot - 1;
      if (hash_of_[r] == h && std::ranges::equal(*row_ptr(r), row)) {
        ++refs_[r];
        return r;
      }
    }
    // New content: claim a slot, copy the row, link it into the table.
    RowRef r;
    if (!free_.empty()) {
      r = free_.back();
      free_.pop_back();
      row_ptr(r)->assign(row.begin(), row.end());
      refs_[r] = 1;
      hash_of_[r] = h;
    } else {
      r = static_cast<RowRef>(count_);
      const auto [chunk, off] = locate(count_);
      ensure_chunk(chunk);
      ++count_;
      chunks_[chunk][off].assign(row.begin(), row.end());
      refs_.push_back(1);
      hash_of_.push_back(h);
    }
    if ((live_ + 1) * 2 > table_.size()) grow_table();
    mask = table_.size() - 1;
    std::size_t i = h & mask;
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = r + 1;
    ++live_;
    return r;
  }

  /// Takes one more reference on an already-held row.
  void retain(RowRef r) {
    if (r == kEmptyRow) return;
    std::lock_guard<std::mutex> lock(mu_);
    MANET_ASSERT(refs_[r] > 0, "retain of a dead row");
    ++refs_[r];
  }

  /// Drops one reference; the slot recycles at zero.
  void release(RowRef r) {
    if (r == kEmptyRow) return;
    std::lock_guard<std::mutex> lock(mu_);
    MANET_ASSERT(refs_[r] > 0, "release of a dead row");
    if (--refs_[r] > 0) return;
    unlink(r);
    row_ptr(r)->clear();
    free_.push_back(r);
    --live_;
  }

  /// The row behind `r`. Lock-free (see the concurrency contract).
  const Row& get(RowRef r) const {
    if (r == kEmptyRow) return empty_;
    return *row_ptr(r);
  }

  /// Rows currently alive (the dedup numerator; empty row excluded).
  std::size_t live() const { return live_; }
  /// Slots ever allocated (the slab high-water mark).
  std::size_t slots() const { return count_; }
  /// Chunks allocated in the slab — the actual slab footprint, in units
  /// of kChunkSize rows. Chunks are claimed densely and never returned,
  /// so a flat chunk count under sustained churn is the free list doing
  /// its job: released slots are recycled before the slab grows.
  std::size_t chunks() const { return (count_ + kChunkSize - 1) >> kChunkBits; }

 private:
  static constexpr std::size_t kChunkBits = 10;  // 1024 rows per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 1 << 14;  // 16M rows

  static std::pair<std::size_t, std::size_t> locate(std::size_t r) {
    return {r >> kChunkBits, r & (kChunkSize - 1)};
  }

  Row* row_ptr(RowRef r) const {
    const auto [chunk, off] = locate(r);
    return &chunks_[chunk][off];
  }

  void ensure_chunk(std::size_t chunk) {
    MANET_REQUIRE(chunk < kMaxChunks, "row store slab exhausted");
    if (chunks_[chunk] == nullptr)
      chunks_[chunk] = std::make_unique<Row[]>(kChunkSize);
  }

  static std::uint64_t hash(std::span<const Elem> row) {
    // FNV-1a over the elements' bytes (rows are flat POD sequences).
    std::uint64_t h = 1469598103934665603ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(row.data());
    const std::size_t len = row.size_bytes();
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
    return h;
  }

  void unlink(RowRef r) {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash_of_[r] & mask;
    while (table_[i] != r + 1) i = (i + 1) & mask;
    // Backward-shift deletion keeps probe chains intact.
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; table_[j] != 0; j = (j + 1) & mask) {
      const std::size_t home = hash_of_[table_[j] - 1] & mask;
      const bool reachable = hole <= j ? (home <= hole || home > j)
                                       : (home <= hole && home > j);
      if (reachable) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = 0;
  }

  void grow_table() {
    std::vector<std::uint32_t> fresh(table_.size() * 2, 0);
    const std::size_t mask = fresh.size() - 1;
    for (const std::uint32_t slot : table_) {
      if (slot == 0) continue;
      std::size_t i = hash_of_[slot - 1] & mask;
      while (fresh[i] != 0) i = (i + 1) & mask;
      fresh[i] = slot;
    }
    table_ = std::move(fresh);
  }

  mutable std::mutex mu_;
  std::unique_ptr<Row[]> chunks_[kMaxChunks];
  std::size_t count_ = 0;  ///< slots ever allocated
  std::size_t live_ = 0;   ///< rows currently referenced
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint64_t> hash_of_;
  std::vector<RowRef> free_;
  std::vector<std::uint32_t> table_;  ///< open addressing, slot+1, 0=empty
  Row empty_;
};

}  // namespace detail

/// The engine-wide shared store: CH_HOP1-shaped rows (sorted NodeSets —
/// also gateway-selection payloads) and CH_HOP2-shaped rows.
class RowStore {
 public:
  RowRef intern_hop1(std::span<const NodeId> row) { return hop1_.intern(row); }
  RowRef intern_hop2(std::span<const core::Hop2Entry> row) {
    return hop2_.intern(row);
  }
  void retain_hop1(RowRef r) { hop1_.retain(r); }
  void retain_hop2(RowRef r) { hop2_.retain(r); }
  void release_hop1(RowRef r) { hop1_.release(r); }
  void release_hop2(RowRef r) { hop2_.release(r); }
  const NodeSet& hop1(RowRef r) const { return hop1_.get(r); }
  const std::vector<core::Hop2Entry>& hop2(RowRef r) const {
    return hop2_.get(r);
  }

  std::size_t live_hop1() const { return hop1_.live(); }
  std::size_t live_hop2() const { return hop2_.live(); }
  std::size_t slots_hop1() const { return hop1_.slots(); }
  std::size_t slots_hop2() const { return hop2_.slots(); }
  std::size_t chunks_hop1() const { return hop1_.chunks(); }
  std::size_t chunks_hop2() const { return hop2_.chunks(); }

 private:
  detail::InternTable<NodeSet> hop1_;
  detail::InternTable<std::vector<core::Hop2Entry>> hop2_;
};

}  // namespace manet::proto
