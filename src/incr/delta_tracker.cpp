#include "incr/delta_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/assert.hpp"
#include "geom/unit_disk.hpp"
#include "incr/worker_pool.hpp"

namespace manet::incr {
namespace {

// Per-dimension bound for the sparse lattice: keys row * cols + col stay
// below 2^50 in a uint64. Capping only grows the cell side, which widens
// rescan blocks but never loses an in-range pair.
constexpr std::size_t kMaxSparseDim = std::size_t{1} << 25;

// splitmix64 finalizer — the probe hash for both open-addressing maps.
// A pure function of the key, so probing is deterministic across runs.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// floor(extent / cell) clamped into [1, kMaxSparseDim], computed in
// double so degenerate huge-area / tiny-range inputs cannot overflow the
// integer cast.
std::size_t lattice_dim(double extent, double cell) {
  const double cells = extent / cell;
  if (!(cells > 1.0)) return 1;
  if (cells >= static_cast<double>(kMaxSparseDim)) return kMaxSparseDim;
  return std::max<std::size_t>(1, static_cast<std::size_t>(cells));
}

// A NaN or infinite coordinate has no cell (its cast to an index would
// be undefined), so positions are checked on the way in.
void require_finite(const geom::Point& p) {
  MANET_REQUIRE(std::isfinite(p.x) && std::isfinite(p.y),
                "node positions must be finite");
}

std::vector<geom::Point> require_finite(std::vector<geom::Point> positions) {
  for (const geom::Point& p : positions) require_finite(p);
  return positions;
}

// floor(scaled) clamped into [0, dim), in double before the integer
// cast, so a far but finite position lands on a border cell.
std::size_t clamp_cell(double scaled, std::size_t dim) {
  if (!(scaled > 0.0)) return 0;
  if (scaled >= static_cast<double>(dim - 1)) return dim - 1;
  return static_cast<std::size_t>(scaled);
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

// Folds sorted per-chunk vectors into one sorted vector (stable k-way
// merge, so cross-chunk duplicates stay adjacent for a later unique).
// Done iteratively because k is a handful of chunks per lane.
template <typename T>
std::vector<T> merge_sorted(std::vector<std::vector<T>>& parts) {
  std::vector<T> merged;
  std::vector<T> tmp;
  for (auto& part : parts) {
    if (part.empty()) continue;
    if (merged.empty()) {
      merged = std::move(part);
      continue;
    }
    tmp.clear();
    tmp.reserve(merged.size() + part.size());
    std::merge(merged.begin(), merged.end(), part.begin(), part.end(),
               std::back_inserter(tmp));
    merged.swap(tmp);
  }
  return merged;
}

}  // namespace

DeltaTracker::DeltaTracker(std::vector<geom::Point> positions, double range,
                           double width, double height, geom::GridIndex index,
                           bool streaming_build)
    : positions_(require_finite(std::move(positions))),
      adjacency_(streaming_build
                     ? geom::unit_disk_graph_streaming(positions_, range, index)
                     : geom::unit_disk_graph(positions_, range, index)),
      range_(range),
      range_sq_(range * range),
      width_(width),
      height_(height) {
  MANET_REQUIRE(!positions_.empty(), "tracker needs at least one node");
  MANET_REQUIRE(range_ > 0.0, "transmission range must be positive");
  MANET_REQUIRE(width_ > 0.0 && height_ > 0.0, "area must be positive");

  // Square cells of side >= range (so any in-range pair sits in the same
  // or an adjacent cell). The dense index clamps the per-dimension cell
  // count to keep the cell array O(n) even for a tiny range over a huge
  // area; the sparse index runs the lattice unclamped and interns only
  // occupied cells. kAuto goes sparse exactly when the dense clamp would
  // have had to coarsen the cells.
  const std::size_t n = positions_.size();
  const auto cap = static_cast<std::size_t>(
                       std::ceil(std::sqrt(4.0 * static_cast<double>(n)))) +
                   1;
  const std::size_t fit_x = lattice_dim(width_, range_);
  const std::size_t fit_y = lattice_dim(height_, range_);
  sparse_ = index == geom::GridIndex::kSparse ||
            (index == geom::GridIndex::kAuto && (fit_x > cap || fit_y > cap));
  cols_ = sparse_ ? fit_x : std::clamp<std::size_t>(fit_x, 1, cap);
  rows_ = sparse_ ? fit_y : std::clamp<std::size_t>(fit_y, 1, cap);
  inv_cell_x_ = static_cast<double>(cols_) / width_;
  inv_cell_y_ = static_cast<double>(rows_) / height_;

  if (sparse_) {
    const std::size_t table = pow2_at_least(2 * n);
    table_keys_.assign(table, ~std::uint64_t{0});
    table_slots_.resize(table);
  } else {
    cells_.resize(cols_ * rows_);
  }
  cell_of_node_.resize(n);
  is_staged_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t slot = intern(cell_key(positions_[v]));
    cell_of_node_[v] = slot;
    if (cells_[slot].empty()) ++occupied_cells_;
    cells_[slot].push_back(v);
  }
}

std::uint64_t DeltaTracker::cell_key(const geom::Point& p) const {
  // Out-of-box positions clamp onto the border cells, like SpatialGrid.
  const std::size_t col = clamp_cell(p.x * inv_cell_x_, cols_);
  const std::size_t row = clamp_cell(p.y * inv_cell_y_, rows_);
  return static_cast<std::uint64_t>(row) * cols_ + col;
}

std::uint32_t DeltaTracker::slot_of(std::uint64_t key) const {
  if (!sparse_) return static_cast<std::uint32_t>(key);
  const std::size_t mask = table_keys_.size() - 1;
  for (std::size_t h = mix64(key) & mask;; h = (h + 1) & mask) {
    if (table_keys_[h] == key) return table_slots_[h];
    if (table_keys_[h] == ~std::uint64_t{0}) return kNoSlot;
  }
}

std::uint32_t DeltaTracker::intern(std::uint64_t key) {
  if (!sparse_) return static_cast<std::uint32_t>(key);
  const std::size_t mask = table_keys_.size() - 1;
  for (std::size_t h = mix64(key) & mask;; h = (h + 1) & mask) {
    if (table_keys_[h] == key) return table_slots_[h];
    if (table_keys_[h] != ~std::uint64_t{0}) continue;
    const auto slot = static_cast<std::uint32_t>(slot_keys_.size());
    table_keys_[h] = key;
    table_slots_[h] = slot;
    slot_keys_.push_back(key);
    cells_.emplace_back();
    if (2 * slot_keys_.size() > table_keys_.size()) grow_table();
    return slot;
  }
}

std::uint64_t DeltaTracker::key_of_slot(std::uint32_t slot) const {
  return sparse_ ? slot_keys_[slot] : slot;
}

void DeltaTracker::grow_table() { rebuild_table(table_keys_.size() * 2); }

void DeltaTracker::rebuild_table(std::size_t cap) {
  table_keys_.assign(cap, ~std::uint64_t{0});
  table_slots_.resize(cap);
  const std::size_t mask = cap - 1;
  for (std::uint32_t slot = 0; slot < slot_keys_.size(); ++slot) {
    std::size_t h = mix64(slot_keys_[slot]) & mask;
    while (table_keys_[h] != ~std::uint64_t{0}) h = (h + 1) & mask;
    table_keys_[h] = slot_keys_[slot];
    table_slots_[h] = slot;
  }
}

void DeltaTracker::maybe_compact() {
  if (!sparse_) return;
  if (slot_keys_.size() < 4 * occupied_cells_ + 64) return;
  ++compactions_;

  // Survivors keep their relative order, so the renumbering (and with
  // it every future intern) is a pure function of the commit history —
  // independent of thread count or pipelining.
  std::vector<std::uint32_t> remap(slot_keys_.size(), kNoSlot);
  std::vector<std::uint64_t> keys;
  std::vector<std::vector<NodeId>> buckets;
  keys.reserve(occupied_cells_);
  buckets.reserve(occupied_cells_);
  for (std::uint32_t slot = 0; slot < slot_keys_.size(); ++slot) {
    if (cells_[slot].empty()) continue;
    remap[slot] = static_cast<std::uint32_t>(keys.size());
    keys.push_back(slot_keys_[slot]);
    buckets.push_back(std::move(cells_[slot]));
  }
  MANET_ASSERT(keys.size() == occupied_cells_,
               "occupancy count out of sync with cell buckets");
  slot_keys_ = std::move(keys);
  cells_ = std::move(buckets);
  for (auto& slot : cell_of_node_) {
    slot = remap[slot];  // every node's cell is occupied by definition
    MANET_ASSERT(slot != kNoSlot, "node mapped to an evicted cell slot");
  }
  rebuild_table(pow2_at_least(
      2 * std::max(positions_.size(), slot_keys_.size())));
}

void DeltaTracker::stage_move(NodeId v, geom::Point p) {
  MANET_REQUIRE(v < positions_.size(), "node id out of range");
  require_finite(p);
  positions_[v] = p;  // last staged position wins
  if (!is_staged_[v]) {
    is_staged_[v] = 1;
    staged_.push_back(v);
  }
}

EdgeDelta DeltaTracker::commit(RegionPartition* regions) {
  CommitOptions opts;
  opts.regions = regions;
  return commit(opts);
}

void DeltaTracker::scan_chunk(std::size_t begin, std::size_t end,
                              EdgeDelta& delta,
                              std::vector<std::uint64_t>& keys) const {
  // Diff against the *frozen* pre-commit adjacency. The classic serial
  // commit mutated the overlay mid-scan so each changed edge fell out of
  // exactly one endpoint's symmetric difference; against a frozen
  // overlay a staged-staged edge shows up at both endpoints instead, so
  // the smaller endpoint claims it. Both rules select the same edge set
  // (every changed pair incident to a staged node, once), which is what
  // keeps deferred, parallel, and serial commits hash-identical.
  std::vector<NodeId> now;
  std::vector<NodeId> old;
  std::vector<NodeId> to_add;
  std::vector<NodeId> to_remove;
  for (std::size_t i = begin; i < end; ++i) {
    const NodeId v = staged_[i];
    const geom::Point p = positions_[v];
    const std::uint64_t key = key_of_slot(cell_of_node_[v]);
    const auto col = static_cast<std::size_t>(key % cols_);
    const auto row = static_cast<std::size_t>(key / cols_);
    const std::size_t c0 = col > 0 ? col - 1 : 0;
    const std::size_t c1 = col + 1 < cols_ ? col + 1 : cols_ - 1;
    const std::size_t r0 = row > 0 ? row - 1 : 0;
    const std::size_t r1 = row + 1 < rows_ ? row + 1 : rows_ - 1;
    now.clear();
    for (std::size_t r = r0; r <= r1; ++r)
      for (std::size_t c = c0; c <= c1; ++c) {
        const std::uint64_t k = static_cast<std::uint64_t>(r) * cols_ + c;
        keys.push_back(k);
        const std::uint32_t slot = slot_of(k);
        if (slot == kNoSlot) continue;  // sparse: cell never occupied
        for (const NodeId w : cells_[slot])
          if (w != v && geom::distance_sq(p, positions_[w]) < range_sq_)
            now.push_back(w);
      }
    std::sort(now.begin(), now.end());

    const auto nb = adjacency_.neighbors(v);
    old.assign(nb.begin(), nb.end());
    to_add.clear();
    to_remove.clear();
    std::set_difference(now.begin(), now.end(), old.begin(), old.end(),
                        std::back_inserter(to_add));
    std::set_difference(old.begin(), old.end(), now.begin(), now.end(),
                        std::back_inserter(to_remove));
    for (const NodeId w : to_add)
      if (!is_staged_[w] || v < w)
        delta.added.emplace_back(std::min(v, w), std::max(v, w));
    for (const NodeId w : to_remove)
      if (!is_staged_[w] || v < w)
        delta.removed.emplace_back(std::min(v, w), std::max(v, w));
  }
  // Partial sorts inside the (possibly worker-side) chunk; the caller
  // k-way merges, so the serial tail is O(changes), not O(changes log).
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

EdgeDelta DeltaTracker::commit(const CommitOptions& opts) {
  EdgeDelta delta;
  last_cells_scanned_ = 0;
  // The previous commit's scopes expire here; only build_regions below
  // makes scope_region answer again.
  paint_region_.clear();
  if (opts.regions) {
    opts.regions->count = 0;
    opts.regions->deltas.clear();
    opts.regions->core_cells.clear();
    opts.regions->cols = cols_;
    opts.regions->rows = rows_;
  }
  if (staged_.empty()) return delta;

  // Phase 1: migrate every dirty node to its (possibly new) cell, so all
  // neighborhood scans below see final positions. The pre-move slots are
  // kept: removed edges live near the *old* positions, so the region
  // partition must treat both blocks of a mover as dirty.
  std::vector<std::uint32_t> old_slots(staged_.size());
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const NodeId v = staged_[i];
    const std::uint64_t key = cell_key(positions_[v]);
    const std::uint32_t old_slot = cell_of_node_[v];
    old_slots[i] = old_slot;
    if (key == key_of_slot(old_slot)) continue;
    const std::uint32_t slot = intern(key);
    auto& bucket = cells_[old_slot];
    const auto it = std::find(bucket.begin(), bucket.end(), v);
    MANET_ASSERT(it != bucket.end(), "node missing from its grid cell");
    *it = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) --occupied_cells_;
    if (cells_[slot].empty()) ++occupied_cells_;
    cells_[slot].push_back(v);
    cell_of_node_[v] = slot;
  }

  // Phase 2: rescan the dirty 3x3 blocks against the frozen adjacency,
  // sharded into contiguous staged ranges when a pool is attached. The
  // chunking never shows: chunk outputs are disjoint by the
  // smaller-endpoint rule and the merge below restores the one global
  // sorted order the serial scan produces.
  const std::size_t lanes = opts.pool ? opts.pool->lanes() : 1;
  const std::size_t n_chunks =
      lanes <= 1 ? 1 : std::min(staged_.size(), lanes * 4);
  std::vector<EdgeDelta> chunk_deltas(n_chunks);
  std::vector<std::vector<std::uint64_t>> chunk_keys(n_chunks);
  const auto scan_job = [&](std::size_t job, std::size_t /*lane*/) {
    const std::size_t begin = job * staged_.size() / n_chunks;
    const std::size_t end = (job + 1) * staged_.size() / n_chunks;
    scan_chunk(begin, end, chunk_deltas[job], chunk_keys[job]);
  };
  if (opts.pool && n_chunks > 1) {
    opts.pool->run(n_chunks, scan_job);
  } else {
    scan_job(0, 0);
  }

  {
    std::vector<std::vector<std::pair<NodeId, NodeId>>> parts;
    parts.reserve(n_chunks);
    for (auto& c : chunk_deltas) parts.push_back(std::move(c.added));
    delta.added = merge_sorted(parts);
    parts.clear();
    for (auto& c : chunk_deltas) parts.push_back(std::move(c.removed));
    delta.removed = merge_sorted(parts);
  }
  // Overlapping dirty blocks count once, whether or not their cells have
  // ever been occupied (the dense index used to stamp per-cell scratch;
  // key dedup gives the identical count without O(cells) state).
  scanned_keys_ = merge_sorted(chunk_keys);
  last_cells_scanned_ = static_cast<std::size_t>(
      std::unique(scanned_keys_.begin(), scanned_keys_.end()) -
      scanned_keys_.begin());

  for (const NodeId v : staged_) is_staged_[v] = 0;

  for (const auto& [u, w] : delta.added) {
    delta.touched.push_back(u);
    delta.touched.push_back(w);
  }
  for (const auto& [u, w] : delta.removed) {
    delta.touched.push_back(u);
    delta.touched.push_back(w);
  }
  normalize(delta.touched);

  if (!opts.defer_adjacency) apply_delta(delta);
  if (opts.regions) build_regions(delta, old_slots, opts, *opts.regions);
  staged_.clear();
  maybe_compact();
  return delta;
}

void DeltaTracker::apply_delta(const EdgeDelta& delta) {
  for (const auto& [u, w] : delta.added) {
    const bool fresh = adjacency_.add_edge(u, w);
    MANET_ASSERT(fresh, "delta add replayed onto an existing edge");
    (void)fresh;
  }
  for (const auto& [u, w] : delta.removed) {
    const bool gone = adjacency_.remove_edge(u, w);
    MANET_ASSERT(gone, "delta removed a missing edge");
    (void)gone;
  }
}

void DeltaTracker::paint_reset(std::size_t expected) {
  const std::size_t cap = pow2_at_least(2 * expected);
  if (paint_keys_.size() < cap) {
    paint_keys_.assign(cap, ~std::uint64_t{0});
    paint_labels_.resize(cap);
  } else {
    std::fill(paint_keys_.begin(), paint_keys_.end(), ~std::uint64_t{0});
  }
  paint_count_ = 0;
}

std::uint32_t DeltaTracker::paint_insert(std::uint64_t key,
                                         std::uint32_t label) {
  if (2 * paint_count_ >= paint_keys_.size()) {
    // Rehash in place to 2x: stash live pairs, reset, reinsert.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
    live.reserve(paint_count_);
    for (std::size_t h = 0; h < paint_keys_.size(); ++h)
      if (paint_keys_[h] != ~std::uint64_t{0})
        live.emplace_back(paint_keys_[h], paint_labels_[h]);
    const std::size_t cap = paint_keys_.size() * 2;
    paint_keys_.assign(cap, ~std::uint64_t{0});
    paint_labels_.resize(cap);
    paint_count_ = 0;
    for (const auto& [k, l] : live) paint_insert(k, l);
  }
  const std::size_t mask = paint_keys_.size() - 1;
  for (std::size_t h = mix64(key) & mask;; h = (h + 1) & mask) {
    if (paint_keys_[h] == key) return paint_labels_[h];
    if (paint_keys_[h] != ~std::uint64_t{0}) continue;
    paint_keys_[h] = key;
    paint_labels_[h] = label;
    ++paint_count_;
    return kNoSlot;
  }
}

std::uint32_t DeltaTracker::paint_find(std::uint64_t key) const {
  const std::size_t mask = paint_keys_.size() - 1;
  for (std::size_t h = mix64(key) & mask;; h = (h + 1) & mask) {
    if (paint_keys_[h] == key) return paint_labels_[h];
    if (paint_keys_[h] == ~std::uint64_t{0}) return kNoSlot;
  }
}

std::uint32_t DeltaTracker::scope_region(NodeId v) const {
  // Empty until a commit builds regions, which also sizes the paint map
  // (an empty map has no probe mask).
  if (paint_region_.empty()) return kNoRegion;
  const std::uint32_t label = paint_find(key_of_slot(cell_of_node_[v]));
  return label == kNoSlot ? kNoRegion : paint_region_[label];
}

void DeltaTracker::build_regions(const EdgeDelta& delta,
                                 const std::vector<std::uint32_t>& old_slots,
                                 const CommitOptions& opts,
                                 RegionPartition& out) {
  // Union-find over staged indices. One label covers BOTH of a mover's
  // blocks (old and new cell), so a teleporting node can never straddle
  // two regions — its removed and added edges repair together.
  union_parent_.resize(staged_.size());
  for (std::uint32_t i = 0; i < staged_.size(); ++i) union_parent_[i] = i;
  const auto find = [&](std::uint32_t x) {
    while (union_parent_[x] != x) {
      union_parent_[x] = union_parent_[union_parent_[x]];  // halve path
      x = union_parent_[x];
    }
    return x;
  };
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) union_parent_[std::max(a, b)] = std::min(a, b);
  };

  // Per-mover paint growth. Without tiering (head_of empty) every mover
  // paints growth_cells, the historical behavior. With tiering, a mover
  // paints for the repair wave its OWN changed edges can launch: the
  // full chain only when one of its edges touches a tick-start
  // clusterhead, the member tier when its edges connect only members,
  // and the quiet tier when it kept every link. Waves launched by other
  // movers are contained by those movers' paint, so the per-mover bound
  // is sound region-wide; any paint overlap merges the regions.
  const bool tiered = !opts.head_of.empty();
  std::vector<std::size_t> growth_of;
  if (tiered) {
    growth_of.assign(staged_.size(), opts.quiet_growth_cells);
    // Staged indices sorted by node id, so delta endpoints (node ids)
    // can be mapped back to their staged slot by binary search.
    std::vector<std::uint32_t> by_id(staged_.size());
    for (std::uint32_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
    std::sort(by_id.begin(), by_id.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return staged_[a] < staged_[b];
              });
    const auto bump = [&](NodeId x, std::size_t g) {
      const auto it = std::lower_bound(
          by_id.begin(), by_id.end(), x,
          [&](std::uint32_t a, NodeId b) { return staged_[a] < b; });
      if (it != by_id.end() && staged_[*it] == x)
        growth_of[*it] = std::max(growth_of[*it], g);
    };
    const auto classify = [&](const std::pair<NodeId, NodeId>& e) {
      const bool head = opts.head_of[e.first] == e.first ||
                        opts.head_of[e.second] == e.second;
      const std::size_t g =
          head ? opts.growth_cells : opts.member_growth_cells;
      bump(e.first, g);
      bump(e.second, g);
    };
    for (const auto& e : delta.added) classify(e);
    for (const auto& e : delta.removed) classify(e);
  }

  // Paint each staged node's two 3x3 blocks grown by its growth tier;
  // blocks that land on an already-painted cell merge with its label.
  // Non-overlap of grown blocks then guarantees core cells of distinct
  // regions are >= g_a + g_b + 1 apart (Chebyshev) for the two movers'
  // tiers. The paint map is keyed by cell key, so unoccupied cells
  // paint (and merge) the same way they did on the dense per-cell
  // arrays.
  //
  // Sized for the common heavily-overlapping case (a few cells per
  // mover); paint_insert doubles on demand up to the true worst case of
  // 2 * (2*reach+1)^2 distinct cells per mover.
  paint_reset(4 * staged_.size() + 64);
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const std::size_t kReach =
        1 + (tiered ? growth_of[i] : opts.growth_cells);
    const std::uint64_t centers[2] = {key_of_slot(old_slots[i]),
                                      key_of_slot(cell_of_node_[staged_[i]])};
    for (int which = 0; which < (centers[0] == centers[1] ? 1 : 2);
         ++which) {
      const auto col = static_cast<std::size_t>(centers[which] % cols_);
      const auto row = static_cast<std::size_t>(centers[which] / cols_);
      const std::size_t c0 = col > kReach ? col - kReach : 0;
      const std::size_t c1 = std::min(col + kReach, cols_ - 1);
      const std::size_t r0 = row > kReach ? row - kReach : 0;
      const std::size_t r1 = std::min(row + kReach, rows_ - 1);
      for (std::size_t r = r0; r <= r1; ++r)
        for (std::size_t c = c0; c <= c1; ++c) {
          const std::uint64_t k = static_cast<std::uint64_t>(r) * cols_ + c;
          const std::uint32_t prev =
              paint_insert(k, static_cast<std::uint32_t>(i));
          if (prev != kNoSlot) unite(static_cast<std::uint32_t>(i), prev);
        }
    }
  }

  // Dense region ids in first-seen staged order (deterministic). A
  // set's root is its smallest staged index (unite keeps the min), so
  // an ascending walk meets every root before the rest of its set.
  paint_region_.resize(staged_.size());
  for (std::uint32_t i = 0; i < staged_.size(); ++i) {
    const std::uint32_t root = find(i);
    paint_region_[i] = root == i ? static_cast<std::uint32_t>(out.count++)
                                 : paint_region_[root];
  }
  out.deltas.resize(out.count);
  out.core_cells.resize(out.count);

  // Core cells (the ungrown 3x3 blocks), attributed to their final
  // region and deduped per region at the end. Movers sharing a core cell
  // always share a region (their grown blocks overlap), so per-region
  // dedup equals the global dedup the dense stamps used to do.
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const std::uint64_t centers[2] = {key_of_slot(old_slots[i]),
                                      key_of_slot(cell_of_node_[staged_[i]])};
    for (int which = 0; which < (centers[0] == centers[1] ? 1 : 2);
         ++which) {
      const auto col = static_cast<std::size_t>(centers[which] % cols_);
      const auto row = static_cast<std::size_t>(centers[which] / cols_);
      const std::size_t c0 = col > 0 ? col - 1 : 0;
      const std::size_t c1 = std::min(col + 1, cols_ - 1);
      const std::size_t r0 = row > 0 ? row - 1 : 0;
      const std::size_t r1 = std::min(row + 1, rows_ - 1);
      for (std::size_t r = r0; r <= r1; ++r)
        for (std::size_t c = c0; c <= c1; ++c)
          out.core_cells[paint_region_[i]].push_back(
              static_cast<std::uint64_t>(r) * cols_ + c);
    }
  }
  for (auto& cells : out.core_cells) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  }

  // A region's node scope is what scope_region reads off this paint.
  // With each mover's growth sized one cell past its wave's receiver
  // bound, every node a region's repair wave can touch this tick —
  // senders AND receivers — lives strictly inside the paint, so messages
  // never cross region boundaries and the outermost painted ring stays
  // quiescent (the message-level independence the sharded protocol
  // engine runs on).

  // Distribute the delta. Both endpoints of a changed edge sit in cells
  // of the same region (painting covers every endpoint's cell and the
  // blocks overlap), so any endpoint names the edge's region; iterating
  // the globally sorted lists keeps every per-region slice sorted.
  const auto region_of_cell = [&](std::uint32_t slot) {
    const std::uint32_t label = paint_find(key_of_slot(slot));
    MANET_ASSERT(label != kNoSlot,
                 "delta endpoint outside the painted dirty region");
    return paint_region_[label];
  };
  for (const auto& e : delta.added) {
    const std::uint32_t r0 = region_of_cell(cell_of_node_[e.first]);
    MANET_ASSERT(r0 == region_of_cell(cell_of_node_[e.second]),
                 "changed edge straddles two repair regions");
    out.deltas[r0].added.push_back(e);
  }
  for (const auto& e : delta.removed) {
    const std::uint32_t r0 = region_of_cell(cell_of_node_[e.first]);
    MANET_ASSERT(r0 == region_of_cell(cell_of_node_[e.second]),
                 "changed edge straddles two repair regions");
    out.deltas[r0].removed.push_back(e);
  }
  for (auto& slice : out.deltas) {
    for (const auto& [u, w] : slice.added) {
      slice.touched.push_back(u);
      slice.touched.push_back(w);
    }
    for (const auto& [u, w] : slice.removed) {
      slice.touched.push_back(u);
      slice.touched.push_back(w);
    }
    normalize(slice.touched);
  }
}

}  // namespace manet::incr
