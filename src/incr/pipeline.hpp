// Layer 4 of the incremental maintenance engine: the facade gluing the
// DeltaTracker (positions -> link deltas) to the IncrementalBackbone
// (link deltas -> repaired clustering/tables/coverage/selections/CDS),
// plus an oracle cross-check mode that rebuilds everything from scratch
// after every tick and asserts bitwise equality — the safety net that
// lets the delta path be trusted in production and benchmarked honestly.
//
// Each tick's delta is partitioned into independent dirty regions
// (DeltaTracker) and repaired by IncrementalBackbone::apply on a
// persistent WorkerPool, which at threads = 1 runs every job inline on
// the caller. The maintained state — and therefore backbone().view(),
// metric snapshots and every downstream artifact — is bitwise identical
// at any thread count (the determinism soaks and the oracle pin this).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/neighbor_tables.hpp"
#include "geom/point.hpp"
#include "incr/backbone.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/worker_pool.hpp"
#include "obs/metrics.hpp"

namespace manet::incr {

/// Engine configuration.
struct PipelineOptions {
  core::CoverageMode mode = core::CoverageMode::kTwoPointFiveHop;
  /// After every tick, rebuild the full static backbone from scratch
  /// (plus a from-scratch unit-disk graph) and require bitwise equality
  /// with the maintained state. Orders of magnitude slower — for tests
  /// and the equivalence bench column only.
  bool oracle_check = false;
  /// Observability session: per-phase flight-recorder spans and `incr.*`
  /// metrics. nullptr = not observed. Must outlive the pipeline. On an
  /// oracle mismatch the recorder tail and the offending tick's dirty
  /// set are dumped to stderr before the throw.
  obs::Session* obs = nullptr;
  /// Execution lanes of the repair and the delta commit: a persistent
  /// pool of k-1 workers plus the calling thread fans out each tick's
  /// independent regions, row chunks, and the delta-commit cell scans.
  /// 1 = one lane, every job inline on the caller (no worker thread).
  std::size_t threads = 1;
  /// Tick pipelining. 1 = classic synchronous ticks. 2 = tick t's
  /// repair runs as an async pool batch while the caller stages and
  /// commits tick t+1 (the commit diffs the frozen overlay read-only
  /// and defers its edge edits, so the two overlap safely — DESIGN
  /// S31). tick() then returns the *previous* tick's stats; call
  /// drain() to join the last repair. The maintained state after drain
  /// is bitwise identical to depth 1 at any thread count. Depth > 2 is
  /// impossible: tick t+1's repair needs tick t's repaired state.
  /// Incompatible with oracle_check (which must observe every tick
  /// synchronously).
  std::size_t pipeline_depth = 1;
  /// Selects nothing. Kept because perfbench/runner.cpp still sets it;
  /// deleted at the next benchmark change.
  geom::GridIndex grid{};
  /// Build the initial unit-disk CSR with the streaming two-pass counting
  /// sweep instead of the edge-list GraphBuilder — same graph, roughly
  /// half the cold-build peak RSS.
  bool streaming_build = false;
};

/// Delta-driven replacement for the per-tick full rebuild: feed it the
/// positions that moved, get back the repaired backbone and the tick's
/// churn accounting.
class IncrementalPipeline {
 public:
  IncrementalPipeline(std::vector<geom::Point> positions, double range,
                      double width, double height, PipelineOptions options);
  /// Joins any in-flight repair before tearing the pool down.
  ~IncrementalPipeline();

  std::size_t size() const { return tracker_.size(); }
  const std::vector<geom::Point>& positions() const {
    return tracker_.positions();
  }
  const graph::DynamicAdjacency& adjacency() const {
    return tracker_.adjacency();
  }
  /// The maintained backbone. These three accessors throw
  /// std::invalid_argument while a pipelined repair is in flight (it
  /// writes the backbone, or has not yet caught it up with adjacency()):
  /// call drain() first.
  const IncrementalBackbone& backbone() const {
    require_settled();
    return backbone_;
  }
  /// The backbone view (core/state_hash.hpp) of the maintained state;
  /// with adjacency() it is a broadcast input (core::dynamic_broadcast).
  core::BackboneRef view() const { return backbone().view(); }
  const cluster::Clustering& clustering() const {
    return backbone().clustering();
  }

  /// Stages a position update (applied at the next tick()).
  void stage_move(NodeId v, geom::Point p) { tracker_.stage_move(v, p); }

  /// Attaches (or detaches, with nullptr) an observability session after
  /// construction; equivalent to having passed it in PipelineOptions.
  /// Call between ticks, not during one.
  void set_obs(obs::Session* session);

  /// Commits all staged moves and repairs every maintained structure.
  /// With oracle_check on, throws std::invalid_argument describing the
  /// first mismatch against the full rebuild (i.e. an engine bug).
  /// With pipeline_depth 2 the repair is launched asynchronously and
  /// the stats of the *previous* tick are returned (zeros on the first
  /// call); the maintained backbone lags the topology by the in-flight
  /// tick until drain().
  TickStats tick();

  /// Joins the in-flight repair (pipeline_depth 2) and returns its
  /// tick's stats; zeros when nothing is pending. Synchronous engines
  /// return zeros immediately. After drain() the maintained state
  /// equals what the synchronous engine would hold after the same
  /// moves, bit for bit.
  TickStats drain();

  /// CSR snapshot of the maintained topology.
  graph::Graph freeze_graph() const { return tracker_.adjacency().freeze(); }

 private:
  /// Double-buffered per-tick state for pipelined mode: while tick t's
  /// repair reads its slot, tick t+1's commit fills the other. Depth 2
  /// never has more than one repair in flight, so two slots suffice.
  struct InFlight {
    EdgeDelta delta;
    RegionPartition partition;
    TickStats stats;
    WorkerPool::Ticket ticket;
  };

  void require_settled() const {
    MANET_REQUIRE(pending_ == nullptr,
                  "a pipelined repair is in flight: call drain() before "
                  "reading the backbone");
  }
  TickStats tick_sync();
  TickStats tick_pipelined();
  /// Joins the pending repair slot, flushes its buffered trace spans,
  /// and returns its stats; zeros when nothing is pending.
  TickStats join_pending();

  DeltaTracker tracker_;
  IncrementalBackbone backbone_;
  PipelineOptions options_;
  std::uint64_t tick_index_ = 0;
  /// Reused per tick; filled by DeltaTracker::commit.
  RegionPartition partition_;
  std::unique_ptr<WorkerPool> pool_;
  InFlight slots_[2];
  InFlight* pending_ = nullptr;  ///< slot whose repair is in flight
  obs::Counter ticks_counter_;
  obs::Counter staged_counter_;
  obs::Counter dirty_cells_counter_;
  obs::Counter regions_counter_;
  obs::Histogram region_size_hist_;
  /// Previous oracle clustering (oracle mode): the full-rebuild path is
  /// lcc_update from the previous tick's structure, exactly what the
  /// engine repairs incrementally.
  cluster::Clustering oracle_previous_;
};

}  // namespace manet::incr
