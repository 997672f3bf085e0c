// Churn maintenance experiment: what does it cost to keep the static
// backbone current while the network moves?
//
// The paper's closing argument says maintaining a static backbone at all
// times is costly. One runner measures that cost for both maintenance
// engines over one mobility front end (exp/mobility_mix.hpp): per tick a
// fraction of the nodes moves, and the chosen engine repairs the
// maintained state.
//  * kIncr, the snapshot-driven incremental engine (src/incr), repairs
//    from the link delta. The optional batch baseline rebuilds the
//    unit-disk graph, repairs the clustering with a full LCC pass and
//    rebuilds tables/coverage/selections from scratch; both produce
//    bit-identical structures (the engine's oracle mode asserts it), so
//    their ratio is a pure algorithmic speedup.
//  * kProto, the HELLO-paced protocol engine (src/proto), commits the
//    link delta, beacons and runs its repair waves to quiescence; the
//    per-tick message counts are the material for the paper's O(n)
//    maintenance-communication argument.
// In crosscheck mode a one-lane incr::IncrementalPipeline consumes the
// identical move sequence and the two state hashes must be equal after
// every tick.
#pragma once

#include <cstdint>
#include <string>

#include "core/neighbor_tables.hpp"
#include "geom/spatial_grid.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::exp {

/// One churn-maintenance configuration.
struct ChurnConfig {
  enum class Model { kWaypoint, kRandomDirection };
  enum class Engine { kIncr, kProto };

  /// The maintenance engine under test.
  Engine engine = Engine::kIncr;
  std::size_t nodes = 500;
  double degree = 6.0;          ///< target average degree (paper: 6 / 18)
  std::size_t ticks = 100;      ///< mobility ticks to simulate
  double move_fraction = 0.01;  ///< fraction of nodes moving per tick
  Model model = Model::kWaypoint;
  core::CoverageMode mode = core::CoverageMode::kTwoPointFiveHop;
  std::uint64_t seed = 0;
  double width = 100.0;
  double height = 100.0;
  /// Cross-check the engine against a from-scratch rebuild every tick,
  /// inside the engine (incr::PipelineOptions::oracle_check or
  /// proto::EngineOptions::oracle_check). Slow; for tests and the soak.
  bool oracle_check = false;
  /// Drive a one-lane incremental pipeline over the identical move
  /// sequence and require state-hash equality after every tick
  /// (std::logic_error otherwise). Incompatible with pipeline_depth 2.
  bool crosscheck = false;
  /// Also time the batch rebuild baseline each tick. Off lets overhead
  /// measurements isolate the engine.
  bool rebuild_baseline = true;
  /// Observability session threaded into the engine (per-phase spans,
  /// `incr.*` or `proto.*`/`net.*` metrics) and the run loop itself.
  /// nullptr = unobserved. Must outlive run_churn().
  obs::Session* obs = nullptr;
  /// Execution lanes of the engine. incr: 1 = every repair job inline
  /// on the calling thread. proto: 0 = the sequential simulator loop,
  /// k >= 1 = active repair regions on k lanes. State hash and
  /// deterministic metrics are the same at every value.
  std::size_t threads = 1;
  /// Tick pipelining (incr only; incr::PipelineOptions::pipeline_depth):
  /// 2 = overlap each tick's repair with the next tick's ingest +
  /// commit. Incompatible with oracle_check and crosscheck; the final
  /// state and hash are identical to depth 1.
  std::size_t pipeline_depth = 1;
  /// Move burst: at tick ticks/2, this fraction of all nodes moves in a
  /// single tick (0 disables; overrides move_fraction for that tick if
  /// larger). The burst tick's round count measures reconvergence after
  /// a correlated topology shock.
  double burst_fraction = 0.0;
  /// Re-introduce the historical stale-gateway-flag bug in every node
  /// (proto only; proto::EngineOptions::inject_stale_gateway_fault).
  /// Only the divergence-forensics test sets this.
  bool inject_stale_gateway_fault = false;
  /// Attempts at a connected initial topology before settling for a
  /// disconnected one (the paper's filter). Large sparse configs are
  /// essentially never connected — pass 1 to skip the wasted retries.
  std::size_t connect_attempts = 100;
  /// Fail the run (std::invalid_argument naming the exhausted budget)
  /// instead of silently continuing on a disconnected layout when every
  /// connect attempt is rejected.
  bool require_connected = false;
  /// Selects nothing. Kept because perfbench/runner.cpp still sets it;
  /// deleted at the next benchmark change.
  geom::GridIndex grid{};
  /// Build the initial topology CSR with the streaming counting sweep —
  /// same graph, lower cold-build peak RSS.
  bool streaming_build = false;
  /// Relabel the initial layout into spatial-grid slot order
  /// (geom::cell_order_layout) before simulating: node ids become
  /// cell-major, which keeps the engine's sweeps cache-friendly at large
  /// n. Changes node labels (a different but equally distributed run),
  /// so head-to-head hash comparisons must use it on both sides.
  bool cell_order = false;
  /// Generate the initial placement cell-by-cell
  /// (geom::generate_unit_disk_cell_order) and check connectivity with
  /// a union-find sweep instead of building a throwaway graph per
  /// rejection-sampling attempt: the cold start's working memory is
  /// O(n) beyond the positions themselves. The layout
  /// comes out cell-major already, so this subsumes `cell_order`
  /// (a different but equally distributed run than the non-streaming
  /// path — hash comparisons must use it on both sides).
  bool streaming_placement = false;
};

/// Aggregated outcome of one churn run. Means are per tick; rates are
/// per node per tick. A field the engine does not produce stays 0.
struct ChurnResult {
  std::size_t ticks = 0;
  /// Staging plus tick() per tick: the engine's own cost.
  double incremental_ms_per_tick = 0.0;
  /// End-to-end wall clock of the engine (per-tick loop cost plus the
  /// final drain), per tick. Equals incremental_ms_per_tick except under
  /// incr pipelining, where it is the honest multi-core number — repair
  /// time hidden behind ingest does not show up here.
  double wall_ms_per_tick = 0.0;
  double rebuild_ms_per_tick = 0.0;  ///< graph + LCC + backbone rebuild
  double speedup = 0.0;              ///< rebuild / incremental
  // Mean per-tick churn (MaintenanceDelta definitions).
  double mean_link_changes = 0.0;
  double mean_head_changes = 0.0;
  double mean_role_changes = 0.0;
  // incr: mean static-CDS flips and dirty-region size (work done).
  double mean_backbone_changes = 0.0;
  double mean_coverage_changes = 0.0;
  double mean_rows_recomputed = 0.0;
  double mean_heads_reselected = 0.0;
  double mean_regions = 0.0;  ///< independent repair regions per tick
  // proto: mean state refreshes, rounds and wire traffic.
  double mean_rows_changed = 0.0;
  double mean_heads_refreshed = 0.0;
  double mean_rounds = 0.0;  ///< simulator rounds per tick
  std::uint32_t max_rounds = 0;
  std::uint32_t burst_rounds = 0;  ///< rounds of the burst tick (0 = none)
  double hello_rate = 0.0;         ///< MAINT_HELLO (always 1.0)
  double repair_rate = 0.0;        ///< R1_STATUS + R2_STATUS
  double rows_rate = 0.0;          ///< CH_HOP1 + CH_HOP2 refresh
  double gateway_rate = 0.0;       ///< GATEWAY floods + re-sends
  double total_rate = 0.0;         ///< all maintenance transmissions
  double deliveries_rate = 0.0;    ///< per-node deliveries (wire fan-out)
  // proto: mean per-phase breakdown of the tick (the remainder is
  // accounting overhead). Deliver and node step are summed across lanes
  // under concurrent region execution, so they can exceed the wall
  // clock; commit and the ledger drain run on the caller alone.
  double commit_ms_per_tick = 0.0;     ///< tracker commit + region build
  double deliver_ms_per_tick = 0.0;    ///< message delivery passes
  double node_step_ms_per_tick = 0.0;  ///< node code (timers + rounds)
  double mirror_ms_per_tick = 0.0;     ///< ledger drain (clustering)
  /// FNV-1a digest of the final maintained state (clustering, tables,
  /// coverage, selections, CDS): core::backbone_state_hash of the
  /// engine's view. Both engines land on the same digest for the same
  /// config, at every lane count.
  std::uint64_t state_hash = 0;
  /// Process peak RSS in bytes after the run (0 where unsupported).
  /// Monotone per process: run ascending sizes to read per-size peaks.
  std::size_t peak_rss_bytes = 0;
  /// Whether the initial topology was connected, and how many layouts
  /// the rejection sampler generated to get it (== connect_attempts on
  /// exhaustion).
  bool connected = false;
  std::size_t connect_attempts_used = 0;
  /// Share of the nodes in the initial topology's largest connected
  /// component (1 when connected).
  double giant_fraction = 0.0;
};

/// Human-readable tags ("waypoint" / "direction", "incr" / "proto") for
/// reports.
std::string model_name(ChurnConfig::Model model);
std::string engine_name(ChurnConfig::Engine engine);

/// Runs one churn-maintenance simulation. Deterministic in config.seed.
/// Throws std::invalid_argument on a contradictory config and
/// std::logic_error on an oracle or crosscheck mismatch.
ChurnResult run_churn(const ChurnConfig& config);

}  // namespace manet::exp
