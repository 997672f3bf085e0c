#include "incr/delta_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/assert.hpp"
#include "geom/unit_disk.hpp"
#include "incr/worker_pool.hpp"

namespace manet::incr {
namespace {

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

// Folds sorted per-chunk vectors into one sorted vector (stable k-way
// merge). Done iteratively because k is a handful of chunks per lane.
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
                           double width, double height, bool streaming_build)
    : positions_(require_finite(std::move(positions))),
      adjacency_(streaming_build
                     ? geom::unit_disk_graph_streaming(positions_, range)
                     : geom::unit_disk_graph(positions_, range)),
      range_(range),
      range_sq_(range * range),
      lattice_(positions_.size(), range, width, height) {
  MANET_REQUIRE(!positions_.empty(), "tracker needs at least one node");

  const std::size_t n = positions_.size();
  cells_.resize(lattice_.cells());
  cell_stamp_.assign(lattice_.cells(), 0);
  cell_label_.resize(lattice_.cells());
  cell_of_node_.resize(n);
  is_staged_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t key = lattice_.key(positions_[v]);
    cell_of_node_[v] = key;
    cells_[key].push_back(v);
  }
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
                              EdgeDelta& delta) const {
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
    now.clear();
    lattice_.for_each_in_block(cell_of_node_[v], 1, [&](std::uint32_t k) {
      for (const NodeId w : cells_[k])
        if (w != v && geom::distance_sq(p, positions_[w]) < range_sq_)
          now.push_back(w);
    });
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
}

void DeltaTracker::bump_epoch() {
  if (++epoch_ != 0) return;
  // uint32 wrap: clear every stale stamp once, then restart at 1.
  std::fill(cell_stamp_.begin(), cell_stamp_.end(), 0u);
  epoch_ = 1;
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
    opts.regions->cols = lattice_.cols();
    opts.regions->rows = lattice_.rows();
  }
  if (staged_.empty()) return delta;

  // Phase 1: migrate every dirty node to its (possibly new) cell, so all
  // neighborhood scans below see final positions. The pre-move cells are
  // kept: removed edges live near the *old* positions, so the region
  // partition must treat both blocks of a mover as dirty.
  std::vector<std::uint32_t> old_cells(staged_.size());
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const NodeId v = staged_[i];
    const std::uint32_t key = lattice_.key(positions_[v]);
    const std::uint32_t old_key = cell_of_node_[v];
    old_cells[i] = old_key;
    if (key == old_key) continue;
    auto& bucket = cells_[old_key];
    const auto it = std::find(bucket.begin(), bucket.end(), v);
    MANET_ASSERT(it != bucket.end(), "node missing from its grid cell");
    *it = bucket.back();
    bucket.pop_back();
    cells_[key].push_back(v);
    cell_of_node_[v] = key;
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
  const auto scan_job = [&](std::size_t job, std::size_t /*lane*/) {
    const std::size_t begin = job * staged_.size() / n_chunks;
    const std::size_t end = (job + 1) * staged_.size() / n_chunks;
    scan_chunk(begin, end, chunk_deltas[job]);
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
  // Overlapping dirty blocks count once, whether or not their cells are
  // occupied: only a cell's first stamp this commit counts.
  bump_epoch();
  for (const NodeId v : staged_)
    lattice_.for_each_in_block(cell_of_node_[v], 1, [&](std::uint32_t k) {
      if (cell_stamp_[k] == epoch_) return;
      cell_stamp_[k] = epoch_;
      ++last_cells_scanned_;
    });

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
  if (opts.regions) build_regions(delta, old_cells, opts, *opts.regions);
  staged_.clear();
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

std::uint32_t DeltaTracker::scope_region(NodeId v) const {
  // Empty until a commit builds regions; only then does epoch_ name the
  // paint rather than some other cell set.
  if (paint_region_.empty()) return kNoRegion;
  const std::uint32_t k = cell_of_node_[v];
  return cell_stamp_[k] == epoch_ ? paint_region_[cell_label_[k]] : kNoRegion;
}

void DeltaTracker::build_regions(const EdgeDelta& delta,
                                 const std::vector<std::uint32_t>& old_cells,
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
  // tiers. Unoccupied cells paint (and merge) like occupied ones.
  bump_epoch();
  for (std::uint32_t i = 0; i < staged_.size(); ++i) {
    const std::size_t reach = 1 + (tiered ? growth_of[i] : opts.growth_cells);
    const std::uint32_t centers[2] = {old_cells[i], cell_of_node_[staged_[i]]};
    for (int which = 0; which < (centers[0] == centers[1] ? 1 : 2); ++which)
      lattice_.for_each_in_block(centers[which], reach, [&](std::uint32_t k) {
        if (cell_stamp_[k] == epoch_) {
          unite(i, cell_label_[k]);
        } else {
          cell_stamp_[k] = epoch_;
          cell_label_[k] = i;
        }
      });
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
  // always share a region (their grown blocks overlap), so no cell is
  // listed by two regions.
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const std::uint32_t centers[2] = {old_cells[i], cell_of_node_[staged_[i]]};
    auto& cells = out.core_cells[paint_region_[i]];
    for (int which = 0; which < (centers[0] == centers[1] ? 1 : 2); ++which)
      lattice_.for_each_in_block(centers[which], 1, [&](std::uint32_t k) {
        cells.push_back(k);
      });
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
  const auto region_of_cell = [&](std::uint32_t key) {
    MANET_ASSERT(cell_stamp_[key] == epoch_,
                 "delta endpoint outside the painted dirty region");
    return paint_region_[cell_label_[key]];
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
