#include "incr/backbone.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "core/table_kernels.hpp"
#include "graph/bitset.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/worker_pool.hpp"
#include "obs/session.hpp"

namespace manet::incr {
namespace {

/// Table rows a lane recomputed and found changed, packed end to end.
/// A RowTable takes no concurrent writes, so lanes hand their rows back
/// and the caller commits them in chunk order — ascending node order, the
/// same assign() sequence at any lane count.
template <typename T>
struct ChangedRows {
  NodeSet nodes;
  std::vector<T> data;
  std::vector<std::size_t> ends;

  void add(NodeId v, std::span<const T> row) {
    nodes.push_back(v);
    data.insert(data.end(), row.begin(), row.end());
    ends.push_back(data.size());
  }
  /// Assigns every row into `table`, appending the ids to `changed`
  /// when given.
  void commit(core::RowTable<T>& table, NodeSet* changed = nullptr) const {
    std::size_t begin = 0;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      table.assign(nodes[k], std::span<const T>(data).subspan(
                                 begin, ends[k] - begin));
      begin = ends[k];
      if (changed != nullptr) changed->push_back(nodes[k]);
    }
  }
};

/// Membership flips (v, now a member) of one chunk, ascending.
using Flips = std::vector<std::pair<NodeId, bool>>;

/// Applies the chunks' flips, in chunk order one ascending sequence, to
/// the sorted set `set` by one merge walk into `buf`, which then swaps
/// with `set`: the two vectors trade places and keep their capacity, so a
/// tick allocates nothing once both have grown. Returns the flip count.
std::size_t merge_flips(NodeSet& set, const std::vector<Flips>& chunks,
                        NodeSet& buf) {
  buf.clear();
  auto it = set.begin();
  std::size_t count = 0;
  for (const Flips& flips : chunks) {
    for (const auto& [v, member] : flips) {
      while (it != set.end() && *it < v) buf.push_back(*it++);
      if (member) {
        buf.push_back(v);
      } else {
        MANET_ASSERT(it != set.end() && *it == v, "flip of a non-member");
        ++it;
      }
    }
    count += flips.size();
  }
  if (count == 0) return 0;
  buf.insert(buf.end(), it, set.end());
  set.swap(buf);
  return count;
}

/// Accumulates a sorted-unique dirty set via closed neighborhoods.
class DirtySet {
 public:
  explicit DirtySet(std::size_t universe) : seen_(universe) {}
  void add(NodeId v) {
    if (seen_.set(v)) nodes_.push_back(v);
  }
  void add_closed_neighborhood(const graph::DynamicAdjacency& g, NodeId v) {
    add(v);
    for (const NodeId w : g.neighbors(v)) add(w);
  }
  NodeSet take() {
    normalize(nodes_);
    return std::move(nodes_);
  }

 private:
  graph::NodeBitset seen_;
  NodeSet nodes_;
};

/// Splits [0, items) into ascending contiguous (begin, count) chunks —
/// a pure function of (items, lanes), so every stage output indexed by
/// chunk id concatenates to the same sorted list at any lane count.
std::vector<std::pair<std::size_t, std::size_t>> plan_chunks(
    std::size_t items, std::size_t lanes) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (items == 0) return chunks;
  // A few chunks per lane so an unlucky heavy chunk can't serialize the
  // stage; chunky enough that claim overhead stays irrelevant. One lane
  // has nothing to balance, so it takes the stage in one chunk.
  const std::size_t target = std::min(items, lanes > 1 ? lanes * 4 : 1);
  const std::size_t size = (items + target - 1) / target;
  for (std::size_t begin = 0; begin < items; begin += size)
    chunks.emplace_back(begin, std::min(size, items - begin));
  return chunks;
}

/// obs::Span lookalike that buffers the completed span in `buf` instead
/// of writing the recorder (see TraceSpanRec). `tr == nullptr` disables.
class StageSpan {
 public:
  StageSpan(obs::TraceRecorder* tr, std::vector<TraceSpanRec>& buf,
            const char* name, std::uint64_t tick, const char* arg_name)
      : tr_(tr), buf_(&buf), name_(name), arg_name_(arg_name), tick_(tick) {
    if (tr_) start_ns_ = tr_->now_ns();
  }
  ~StageSpan() {
    if (!tr_) return;
    buf_->push_back({name_, start_ns_, tr_->now_ns() - start_ns_, tick_, 0,
                     arg_name_, arg_});
  }
  void set_arg(std::uint64_t v) { arg_ = v; }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  obs::TraceRecorder* tr_;
  std::vector<TraceSpanRec>* buf_;
  const char* name_;
  const char* arg_name_;
  std::uint64_t tick_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

}  // namespace

void IncrementalBackbone::flush_trace() {
  if (trace_buf_.empty()) return;
  if (obs_) {
    for (const TraceSpanRec& s : trace_buf_)
      obs_->trace.complete("incr", s.name, s.ts, s.dur, s.tick, s.tid,
                           s.arg_name, s.arg);
  }
  trace_buf_.clear();
}

IncrementalBackbone::IncrementalBackbone(const graph::DynamicAdjacency& g,
                                         core::CoverageMode mode)
    // One batch build seeds the store; ticks only repair it from here on.
    : backbone_(core::build_static_backbone(g.freeze(), mode)),
      selection_refs_(g.order(), 0) {
  for (const NodeId h : backbone_.clustering.heads)
    for (const NodeId v : backbone_.selection[h]) ++selection_refs_[v];
}

void IncrementalBackbone::set_obs(obs::Session* session) {
  obs_ = session;
  obs_handles_ = {};
  if (!session) return;
  auto& r = session->registry;
  obs_handles_.links_appeared = r.counter("incr.links_appeared");
  obs_handles_.links_disappeared = r.counter("incr.links_disappeared");
  obs_handles_.reaffiliations = r.counter("incr.reaffiliations");
  obs_handles_.role_changes = r.counter("incr.role_changes");
  obs_handles_.heads_declared = r.counter("incr.heads_declared");
  obs_handles_.heads_resigned = r.counter("incr.heads_resigned");
  obs_handles_.hop1_rows_scanned = r.counter("incr.hop1_rows_scanned");
  obs_handles_.hop1_rows_changed = r.counter("incr.hop1_rows_changed");
  obs_handles_.hop2_rows_scanned = r.counter("incr.hop2_rows_scanned");
  obs_handles_.hop2_rows_changed = r.counter("incr.hop2_rows_changed");
  obs_handles_.heads_reselected = r.counter("incr.heads_reselected");
  obs_handles_.coverage_changes = r.counter("incr.coverage_changes");
  obs_handles_.backbone_flips = r.counter("incr.backbone_flips");
  obs_handles_.links_per_tick = r.histogram(
      "incr.links_per_tick", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  obs_handles_.rows_per_tick = r.histogram(
      "incr.rows_per_tick", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
}

void IncrementalBackbone::apply_gateway_ref(GatewayRef ref,
                                            NodeSet& cds_candidates) {
  if (ref.added) {
    if (selection_refs_[ref.v]++ == 0) cds_candidates.push_back(ref.v);
  } else {
    MANET_ASSERT(selection_refs_[ref.v] > 0, "gateway refcount underflow");
    if (--selection_refs_[ref.v] == 0) cds_candidates.push_back(ref.v);
  }
}

void IncrementalBackbone::clear_head_rows(NodeId v, NodeSet& cds_candidates) {
  for (const NodeId w : backbone_.selection[v])
    apply_gateway_ref({w, false}, cds_candidates);
  backbone_.selection.assign(v, {});
  backbone_.coverage.assign(v, core::Coverage{});
}

struct IncrementalBackbone::HeadRows {
  ChangedRows<NodeId> two_hop, three_hop, selection;
  std::vector<GatewayRef> refs;

  /// Assigns every changed row into `b`, in the order the rows were added.
  void commit(core::StaticBackbone& b) const {
    two_hop.commit(b.coverage.two_hop);
    three_hop.commit(b.coverage.three_hop);
    selection.commit(b.selection);
  }
};

bool IncrementalBackbone::reselect_head(const graph::DynamicAdjacency& g,
                                        NodeId h, LaneScratch& lane,
                                        HeadRows& out) const {
  const core::TablesView<graph::DynamicAdjacency> view{
      g, backbone_.clustering, backbone_.tables};
  core::coverage_row(view, h, g.order(), lane.cov_bits, lane.cov);
  lane.sel.clear();
  core::select_gateways_local(view, h, lane.cov, lane.sel_bits, lane.sel);
  // Both gateway lists are sorted: one merge walk yields old \ new as
  // releases and new \ old as new references.
  const std::span<const NodeId> before = backbone_.selection[h];
  const NodeSet& after = lane.sel;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() || (i < before.size() && before[i] < after[j])) {
      out.refs.push_back({before[i++], false});
    } else if (i == before.size() || after[j] < before[i]) {
      out.refs.push_back({after[j++], true});
    } else {
      ++i;
      ++j;
    }
  }
  if (!std::ranges::equal(before, after)) out.selection.add(h, after);
  const bool coverage_changed =
      !std::ranges::equal(lane.cov.two_hop, backbone_.coverage.two_hop[h]) ||
      !std::ranges::equal(lane.cov.three_hop, backbone_.coverage.three_hop[h]);
  if (coverage_changed) {
    out.two_hop.add(h, lane.cov.two_hop);
    out.three_hop.add(h, lane.cov.three_hop);
  }
  return coverage_changed;
}

TickStats IncrementalBackbone::apply(const graph::DynamicAdjacency& g,
                                     const EdgeDelta& delta,
                                     const RegionPartition* partition,
                                     WorkerPool* pool) {
  cluster::Clustering& clustering = backbone_.clustering;
  core::NeighborTables& tables = backbone_.tables;
  MANET_REQUIRE(g.order() == clustering.head_of.size(),
                "adjacency does not match the maintained state");
  ++ticks_applied_;
  obs::TraceRecorder* tr = obs_ ? &obs_->trace : nullptr;
  TickStats stats;
  stats.link_changes = delta.link_changes();
  stats.regions = partition != nullptr ? partition->count : 0;
  obs_handles_.links_appeared.add(delta.added.size());
  obs_handles_.links_disappeared.add(delta.removed.size());
  obs_handles_.links_per_tick.record(delta.link_changes());
  if (delta.empty()) return stats;

  const std::size_t lanes = pool != nullptr ? pool->lanes() : 1;
  if (lane_scratch_.size() < lanes) lane_scratch_.resize(lanes);
  const auto run = [pool](std::size_t jobs, const WorkerPool::Job& fn) {
    if (pool != nullptr) {
      pool->run(jobs, fn);
    } else {
      for (std::size_t job = 0; job < jobs; ++job) fn(job, 0);
    }
  };

  // Workers buffer their spans (TraceRecorder is single-writer) and the
  // caller moves them into trace_buf_ after each join, one trace track
  // per lane.
  struct LaneSpan {
    const char* name;
    std::uint64_t ts, dur, arg;
  };
  std::vector<std::vector<LaneSpan>> lane_spans(lanes);
  const auto timed = [&](std::size_t lane, const char* name,
                         std::uint64_t arg, auto&& fn) {
    if (!tr) {
      fn();
      return;
    }
    const std::uint64_t t0 = tr->now_ns();
    fn();
    lane_spans[lane].push_back({name, t0, tr->now_ns() - t0, arg});
  };
  const auto flush_spans = [&] {
    if (!tr) return;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto tid = static_cast<std::uint32_t>(lane + 1);
      for (const LaneSpan& s : lane_spans[lane])
        trace_buf_.push_back(
            {s.name, s.ts, s.dur, ticks_applied_, tid, "items", s.arg});
      lane_spans[lane].clear();
    }
  };

  // --- Cluster-repair rules, one job per independent region (without a
  // partition the whole delta is one region). Each job writes the
  // head_of entries of its own region's nodes in place; S30 puts no other
  // region's writes within its read radius, so the per-region ascending
  // scans see exactly what one global scan would show them.
  ClusterRepair rep;
  {
    StageSpan span(tr, trace_buf_, "cluster_repair", ticks_applied_, "flips");
    const std::size_t regions = partition != nullptr ? partition->count : 1;
    std::vector<ClusterRepair> reps(regions);
    run(regions, [&](std::size_t r, std::size_t lane) {
      const EdgeDelta& region =
          partition != nullptr ? partition->deltas[r] : delta;
      timed(lane, "region_repair", region.link_changes(), [&] {
        reps[r] = repair_clustering_region(g, region, clustering);
      });
    });
    // Merge in region order: churn sums, and the per-region sorted sets
    // (disjoint by S30) into global ones.
    for (const ClusterRepair& part : reps) {
      rep.churn.heads_resigned += part.churn.heads_resigned;
      rep.churn.heads_declared += part.churn.heads_declared;
      rep.churn.reaffiliations += part.churn.reaffiliations;
      rep.resigned.insert(rep.resigned.end(), part.resigned.begin(),
                          part.resigned.end());
      rep.declared.insert(rep.declared.end(), part.declared.begin(),
                          part.declared.end());
      rep.head_changed.insert(rep.head_changed.end(),
                              part.head_changed.begin(),
                              part.head_changed.end());
    }
    normalize(rep.resigned);
    normalize(rep.declared);
    normalize(rep.head_changed);
    if (!rep.resigned.empty() || !rep.declared.empty())
      clustering.heads = set_union(
          set_difference(clustering.heads, rep.resigned), rep.declared);

    // --- Roles against the final head_of, in sorted chunks: chunk c
    // writes roles of its own slice only, and the per-chunk changed
    // lists concatenate to the one ascending result.
    const NodeSet role_dirty =
        role_support(g, rep.head_changed, delta.touched);
    const auto chunks = plan_chunks(role_dirty.size(), lanes);
    std::vector<NodeSet> role_changed(chunks.size());
    run(chunks.size(), [&](std::size_t ci, std::size_t lane) {
      timed(lane, "role_chunk", chunks[ci].second, [&] {
        refresh_roles(g, clustering,
                      std::span<const NodeId>(role_dirty)
                          .subspan(chunks[ci].first, chunks[ci].second),
                      role_changed[ci]);
      });
    });
    for (const NodeSet& part : role_changed)
      rep.role_changed.insert(rep.role_changed.end(), part.begin(),
                              part.end());
    span.set_arg(rep.declared.size() + rep.resigned.size());
    flush_spans();
  }
  stats.cluster_churn = rep.churn;
  stats.head_changes = rep.head_changed.size();
  stats.role_changes = rep.role_changed.size();
  obs_handles_.reaffiliations.add(rep.head_changed.size());
  obs_handles_.role_changes.add(rep.role_changed.size());
  obs_handles_.heads_declared.add(rep.declared.size());
  obs_handles_.heads_resigned.add(rep.resigned.size());

  // --- CH_HOP1(v) reads v's own head status, v's edges and its
  // neighbors' head status, so the exact dirty set is the changed-edge
  // endpoints plus the closed neighborhoods of the status flips. Chunk c
  // recomputes the rows of its own slice against frozen inputs
  // (clustering, adjacency, the table itself) and hands back the ones
  // that changed. Rows that come out identical are recorded as clean:
  // they prove their readers unchanged, which keeps each later stage
  // small.
  const NodeSet status_flips = set_union(rep.declared, rep.resigned);
  DirtySet hop1_mark(g.order());
  for (const NodeId v : delta.touched) hop1_mark.add(v);
  for (const NodeId v : status_flips) hop1_mark.add_closed_neighborhood(g, v);
  const NodeSet hop1_dirty = hop1_mark.take();

  NodeSet hop1_changed;
  {
    StageSpan span(tr, trace_buf_, "hop1_scan", ticks_applied_, "rows");
    span.set_arg(hop1_dirty.size());
    const auto chunks = plan_chunks(hop1_dirty.size(), lanes);
    std::vector<ChangedRows<NodeId>> changed(chunks.size());
    run(chunks.size(), [&](std::size_t ci, std::size_t lane) {
      timed(lane, "hop1_chunk", chunks[ci].second, [&] {
        const auto [begin, count] = chunks[ci];
        const core::TablesView<graph::DynamicAdjacency> view{g, clustering,
                                                             tables};
        NodeSet row;
        for (std::size_t i = begin; i < begin + count; ++i) {
          const NodeId v = hop1_dirty[i];
          core::hop1_row(view, v, row);
          if (!std::ranges::equal(row, tables.ch_hop1[v]))
            changed[ci].add(v, row);
        }
      });
    });
    for (const auto& part : changed) part.commit(tables.ch_hop1, &hop1_changed);
    flush_spans();
  }
  obs_handles_.hop1_rows_scanned.add(hop1_dirty.size());
  obs_handles_.hop1_rows_changed.add(hop1_changed.size());

  // --- CH_HOP2(v) additionally reads the neighbors' head_of assignments
  // and their (now final) CH_HOP1 rows: dirty set = changed-edge
  // endpoints ∪ closed neighborhoods of head_of changes and of actually
  // changed CH_HOP1 rows.
  DirtySet hop2_mark(g.order());
  for (const NodeId v : delta.touched) hop2_mark.add(v);
  for (const NodeId v : rep.head_changed)
    hop2_mark.add_closed_neighborhood(g, v);
  for (const NodeId v : hop1_changed) hop2_mark.add_closed_neighborhood(g, v);
  const NodeSet hop2_dirty = hop2_mark.take();

  NodeSet changed_rows = hop1_changed;
  {
    StageSpan span(tr, trace_buf_, "hop2_scan", ticks_applied_, "rows");
    span.set_arg(hop2_dirty.size());
    const auto chunks = plan_chunks(hop2_dirty.size(), lanes);
    std::vector<ChangedRows<core::Hop2Entry>> changed(chunks.size());
    run(chunks.size(), [&](std::size_t ci, std::size_t lane) {
      timed(lane, "hop2_chunk", chunks[ci].second, [&] {
        const auto [begin, count] = chunks[ci];
        const core::TablesView<graph::DynamicAdjacency> view{g, clustering,
                                                             tables};
        std::vector<core::Hop2Entry> row;
        for (std::size_t i = begin; i < begin + count; ++i) {
          const NodeId v = hop2_dirty[i];
          core::hop2_row(view, tables.mode, v, row);
          if (!std::ranges::equal(row, tables.ch_hop2[v]))
            changed[ci].add(v, row);
        }
      });
    });
    for (const auto& part : changed) part.commit(tables.ch_hop2, &changed_rows);
    flush_spans();
  }
  obs_handles_.hop2_rows_scanned.add(hop2_dirty.size());
  obs_handles_.hop2_rows_changed.add(changed_rows.size() -
                                     hop1_changed.size());
  normalize(changed_rows);
  stats.rows_recomputed = hop1_dirty.size() + hop2_dirty.size();
  obs_handles_.rows_per_tick.record(stats.rows_recomputed);

  // --- Coverage + gateway reselection. A head's coverage and gateway
  // selection read exactly its neighbor list and the table rows of its
  // neighbors, so a head needs a rerun only when it gained/lost an edge
  // (touched), just declared, or sits next to a row that actually
  // changed. Everything else keeps its cached coverage and selection
  // verbatim — bit-identical to the full rebuild because the inputs are
  // proven identical. Chunk c hands back its heads' changed rows and
  // gateway refcount changes (no head reads another head's rows), which
  // the caller commits in chunk order: ascending heads.
  graph::NodeBitset head_dirty(g.order());
  NodeSet recompute;
  const auto mark = [&](NodeId v) {
    if (clustering.is_head(v) && head_dirty.set(v)) recompute.push_back(v);
  };
  for (const NodeId v : delta.touched) mark(v);
  for (const NodeId v : rep.declared) mark(v);
  for (const NodeId v : changed_rows) {
    mark(v);
    for (const NodeId w : g.neighbors(v)) mark(w);
  }
  normalize(recompute);

  NodeSet cds_candidates;
  for (const NodeId h : rep.declared) cds_candidates.push_back(h);
  for (const NodeId h : rep.resigned) cds_candidates.push_back(h);
  {
    StageSpan span(tr, trace_buf_, "head_reselect", ticks_applied_, "heads");
    span.set_arg(recompute.size());
    const auto chunks = plan_chunks(recompute.size(), lanes);
    std::vector<HeadRows> rows(chunks.size());
    std::vector<std::size_t> coverage_changes(chunks.size(), 0);
    run(chunks.size(), [&](std::size_t ci, std::size_t lane) {
      timed(lane, "head_chunk", chunks[ci].second, [&] {
        const auto [begin, count] = chunks[ci];
        for (std::size_t i = begin; i < begin + count; ++i) {
          const NodeId h = recompute[i];
          const bool changed =
              reselect_head(g, h, lane_scratch_[lane], rows[ci]);
          // A fresh head's coverage counts as changed.
          if (changed || contains_sorted(rep.declared, h))
            ++coverage_changes[ci];
        }
      });
    });
    for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
      stats.coverage_changes += coverage_changes[ci];
      rows[ci].commit(backbone_);
      for (const GatewayRef ref : rows[ci].refs)
        apply_gateway_ref(ref, cds_candidates);
    }
    // Resignations leave stale head rows behind; release their reference
    // counts (guard against a same-tick re-declaration, which rule 2 makes
    // impossible today but cheap to stay safe against).
    for (const NodeId v : rep.resigned)
      if (!clustering.is_head(v)) clear_head_rows(v, cds_candidates);
    flush_spans();
  }
  stats.heads_reselected = recompute.size();
  obs_handles_.heads_reselected.add(recompute.size());
  obs_handles_.coverage_changes.add(stats.coverage_changes);

  // --- CDS settling for every node whose head status or selection
  // reference count moved this tick. A node is a gateway iff some head
  // selects it and in the CDS iff it is also or instead a head; both are
  // pure reads of head_of, selection_refs_ and the sorted sets (all
  // frozen here), so chunks over the sorted candidate set buffer their
  // flips and the caller merges them in chunk order — one ascending flip
  // sequence per set.
  normalize(cds_candidates);
  {
    StageSpan span(tr, trace_buf_, "cds_settle", ticks_applied_, "candidates");
    span.set_arg(cds_candidates.size());
    const auto chunks = plan_chunks(cds_candidates.size(), lanes);
    std::vector<Flips> gateway_flips(chunks.size());
    std::vector<Flips> cds_flips(chunks.size());
    run(chunks.size(), [&](std::size_t ci, std::size_t lane) {
      timed(lane, "cds_chunk", chunks[ci].second, [&] {
        const auto [begin, count] = chunks[ci];
        for (std::size_t i = begin; i < begin + count; ++i) {
          const NodeId v = cds_candidates[i];
          const bool gateway = selection_refs_[v] > 0;
          const bool member = gateway || clustering.is_head(v);
          if (gateway != contains_sorted(backbone_.gateways, v))
            gateway_flips[ci].emplace_back(v, gateway);
          if (member != contains_sorted(backbone_.cds, v))
            cds_flips[ci].emplace_back(v, member);
        }
      });
    });
    merge_flips(backbone_.gateways, gateway_flips, merge_buf_);
    stats.backbone_changes = merge_flips(backbone_.cds, cds_flips, merge_buf_);
    flush_spans();
  }
  obs_handles_.backbone_flips.add(stats.backbone_changes);
  return stats;
}

}  // namespace manet::incr
