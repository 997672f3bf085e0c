// Layer 3 of the incremental maintenance engine: keeping the CH_HOP1 /
// CH_HOP2 tables, coverage sets, per-head gateway selections and the
// SI-CDS current under a stream of edge deltas.
//
// Exact dependency tracking drives the invalidation:
//
//  * CH_HOP1(v) reads v's own head status, v's edges and its neighbors'
//    head status — dirty set = changed-edge endpoints ∪ closed
//    neighborhoods of the head-status flips;
//  * CH_HOP2(v) additionally reads the neighbors' head_of assignments
//    and CH_HOP1 rows — dirty set = changed-edge endpoints ∪ closed
//    neighborhoods of head_of changes and of CH_HOP1 rows that
//    *actually* changed;
//  * coverage and gateway selection of a head h read exactly h's
//    neighbor list and the table rows of h's neighbors — so h needs a
//    rerun only when an edge at h changed, h just became a head, or a
//    neighbor's row *actually* changed (recomputed rows that come out
//    identical prove their readers unchanged, which keeps the expensive
//    selection stage far smaller than the worst-case 3-hop ball).
//
// Rows inside the balls are recomputed with the exact per-row kernels
// the batch path uses (core/table_kernels.hpp and
// core::select_gateways_local, read through core::TablesView over the
// mutable adjacency), everything else keeps its cached value,
// so after every tick the whole structure is bit-identical to a
// from-scratch core::build_static_backbone over the current topology and
// clustering (asserted by the pipeline's oracle mode and the
// equivalence tests).
//
// The maintained state is one core::StaticBackbone, kept whole after
// every apply(): its packed rows are rewritten in ascending node order by
// the caller of each stage, and its sorted gateway union and CDS by a
// merge of the tick's membership flips, decided from per-node selection
// reference counts, so settling never rescans the selections. view()
// therefore reads the store as it is, and materialize() copies its
// arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/lcc.hpp"
#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/row_table.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "core/table_kernels.hpp"
#include "graph/dynamic_adjacency.hpp"
#include "incr/cluster_repair.hpp"
#include "incr/edge_delta.hpp"
#include "obs/metrics.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::incr {

struct RegionPartition;
class WorkerPool;

/// One buffered trace span. TraceRecorder is single-writer and apply()
/// may run as an async pool batch (pipelined mode) while the driver
/// thread records its own spans, so apply() never writes the recorder:
/// it buffers every span as a TraceSpanRec, and the driver writes them
/// with flush_trace() once the tick is joined.
struct TraceSpanRec {
  const char* name = "";
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t tick = 0;
  std::uint32_t tid = 0;
  const char* arg_name = nullptr;
  std::uint64_t arg = 0;
};

/// What one tick cost and churned. The churn counters use the same
/// definitions as mobility::MaintenanceDelta, so the maintenance-cost
/// experiments can read them straight off the engine.
struct TickStats {
  std::size_t link_changes = 0;       ///< edges appearing or disappearing
  cluster::LccDelta cluster_churn;    ///< LCC rule-level repair counters
  std::size_t head_changes = 0;       ///< nodes whose clusterhead changed
  std::size_t role_changes = 0;       ///< nodes whose cluster role changed
  std::size_t backbone_changes = 0;   ///< static-CDS membership flips
  std::size_t coverage_changes = 0;   ///< heads with new/changed coverage
  std::size_t rows_recomputed = 0;    ///< hop1+hop2 row evaluations
  std::size_t heads_reselected = 0;   ///< coverage+selection reruns
  std::size_t regions = 0;            ///< independent repair regions
};

/// The incrementally maintained static backbone of a mutable topology.
class IncrementalBackbone {
 public:
  /// Full initial build over the current adjacency (one-time O(n) cost;
  /// every later tick is bounded by the dirty region).
  IncrementalBackbone(const graph::DynamicAdjacency& g,
                      core::CoverageMode mode);

  /// Consumes one edge delta. `g` must already reflect the delta (the
  /// DeltaTracker hands both over in that state). With a `partition`
  /// (DeltaTracker::commit's split of the same delta) each independent
  /// region repairs its clustering as one job; without one the whole
  /// delta is a single region. The row, reselection and settling stages
  /// run in sorted chunks. Jobs fan out on `pool`, or run inline on the
  /// caller without one, and every shared-structure merge runs on the
  /// caller between stages. The maintained state afterwards is bitwise
  /// identical for every partition and lane count (same dirty sets, same
  /// ascending orders — DESIGN S30), and so are the stats apart from
  /// `regions`, which is partition->count (0 without a partition).
  TickStats apply(const graph::DynamicAdjacency& g, const EdgeDelta& delta,
                  const RegionPartition* partition = nullptr,
                  WorkerPool* pool = nullptr);

  /// Attaches an observability session: per-phase spans go to its
  /// flight recorder (through flush_trace()), `incr.*` counters and
  /// histograms to its registry. nullptr detaches. The session must
  /// outlive the backbone.
  void set_obs(obs::Session* session);

  /// Writes the spans apply() buffered to the attached session's flight
  /// recorder, in the order they completed, and empties the buffer.
  /// Call after each apply() has returned (or been joined), from the
  /// thread that owns the recorder. Metrics need no flush: they are live
  /// (atomic adds commute).
  void flush_trace();

  const cluster::Clustering& clustering() const {
    return backbone_.clustering;
  }
  const core::NeighborTables& tables() const { return backbone_.tables; }
  const core::CoverageTable& coverage() const { return backbone_.coverage; }
  const core::RowTable<NodeId>& selection() const {
    return backbone_.selection;
  }
  /// Union of all selected gateways, sorted.
  const NodeSet& gateways() const { return backbone_.gateways; }
  /// The SI-CDS: clusterheads ∪ gateways, sorted.
  const NodeSet& cds() const { return backbone_.cds; }

  /// A copy of the maintained store.
  core::StaticBackbone materialize() const { return backbone_; }

  /// The backbone view (core/state_hash.hpp) over the maintained store
  /// as it stands: spans read through it last until the next apply().
  core::BackboneRef view() const { return core::BackboneRef(backbone_); }

 private:
  /// Pre-resolved metric handles (inert when no session is attached).
  struct ObsHandles {
    obs::Counter links_appeared, links_disappeared, reaffiliations,
        role_changes, heads_declared, heads_resigned, hop1_rows_scanned,
        hop1_rows_changed, hop2_rows_scanned, hop2_rows_changed,
        heads_reselected, coverage_changes, backbone_flips;
    obs::Histogram links_per_tick, rows_per_tick;
  };

  /// One gateway reference count change: `v` entered (`added`) or left
  /// one head's selection.
  struct GatewayRef {
    NodeId v;
    bool added;
  };

  /// Per-lane kernel scratches and row buffers, reused across heads.
  struct LaneScratch {
    core::CoverageScratch cov_bits;
    core::SelectionScratch sel_bits;
    core::Coverage cov;
    NodeSet sel;
  };

  /// What one reselect chunk hands back: the coverage and selection rows
  /// that changed (a RowTable takes no concurrent writes; the caller
  /// commits them in chunk order) and the gateway reference changes.
  struct HeadRows;

  /// Recomputes head h's coverage and gateway selection, appending the
  /// rows that changed and h's gateway reference changes to `out`;
  /// returns whether the coverage changed. Reads g and the store only —
  /// so distinct heads may run concurrently on per-lane scratches.
  bool reselect_head(const graph::DynamicAdjacency& g, NodeId h,
                     LaneScratch& lane, HeadRows& out) const;
  /// Applies one reference change, queueing `v` for CDS settling when
  /// its count leaves or reaches zero.
  void apply_gateway_ref(GatewayRef ref, NodeSet& cds_candidates);
  void clear_head_rows(NodeId v, NodeSet& cds_candidates);

  core::StaticBackbone backbone_;
  /// selection_refs_[v] = number of heads whose selection contains v.
  std::vector<std::uint32_t> selection_refs_;
  /// Reused by the CDS-settle merges of the gateway union and the CDS.
  NodeSet merge_buf_;
  obs::Session* obs_ = nullptr;
  ObsHandles obs_handles_;
  std::vector<TraceSpanRec> trace_buf_;
  std::uint64_t ticks_applied_ = 0;  ///< trace span "tick" argument
  /// One per pool lane (grown by apply() to the lane count of the pool
  /// it is handed).
  std::vector<LaneScratch> lane_scratch_;
};

}  // namespace manet::incr
