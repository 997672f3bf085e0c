#include "exp/churn.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/lcc.hpp"
#include "common/assert.hpp"
#include "common/rss.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "exp/mobility_mix.hpp"
#include "geom/unit_disk.hpp"
#include "incr/pipeline.hpp"
#include "obs/session.hpp"
#include "proto/engine.hpp"

namespace manet::exp {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Run totals of the per-tick stats; finish() turns them into means and
/// rates. Integer sums convert to the same doubles as per-tick sums.
struct Totals {
  std::size_t link_changes = 0, head_changes = 0, role_changes = 0;
  std::size_t backbone_changes = 0, coverage_changes = 0,
              rows_recomputed = 0, heads_reselected = 0, regions = 0;
  std::size_t rows_changed = 0, heads_refreshed = 0, rounds = 0,
              deliveries = 0;
  std::uint32_t max_rounds = 0;
  net::MessageCounts msgs;
  double commit_ms = 0.0, deliver_ms = 0.0, node_step_ms = 0.0,
         mirror_ms = 0.0;
};

void add(Totals& t, const incr::TickStats& s) {
  t.link_changes += s.link_changes;
  t.head_changes += s.head_changes;
  t.role_changes += s.role_changes;
  t.backbone_changes += s.backbone_changes;
  t.coverage_changes += s.coverage_changes;
  t.rows_recomputed += s.rows_recomputed;
  t.heads_reselected += s.heads_reselected;
  t.regions += s.regions;
}

void add(Totals& t, const proto::MaintTickStats& s) {
  t.link_changes += s.link_changes;
  t.head_changes += s.head_changes;
  t.role_changes += s.role_changes;
  t.rows_changed += s.rows_changed;
  t.heads_refreshed += s.heads_refreshed;
  t.rounds += s.rounds;
  t.max_rounds = std::max(t.max_rounds, s.rounds);
  t.msgs.maint_hello += s.messages.maint_hello;
  t.msgs.r1_status += s.messages.r1_status;
  t.msgs.r2_status += s.messages.r2_status;
  t.msgs.ch_hop1 += s.messages.ch_hop1;
  t.msgs.ch_hop2 += s.messages.ch_hop2;
  t.msgs.gateway += s.messages.gateway;
  t.deliveries += s.delivery.deliveries;
  t.commit_ms += s.commit_ms;
  t.deliver_ms += s.deliver_ms;
  t.node_step_ms += s.node_step_ms;
  t.mirror_ms += s.mirror_ms;
}

std::uint32_t rounds_of(const incr::TickStats&) { return 0; }
std::uint32_t rounds_of(const proto::MaintTickStats& s) { return s.rounds; }

void finish(const Totals& t, const ChurnConfig& config, ChurnResult& r) {
  const double ticks = static_cast<double>(config.ticks);
  const double node_ticks = ticks * static_cast<double>(config.nodes);
  const auto mean = [&](std::size_t sum) {
    return static_cast<double>(sum) / ticks;
  };
  const auto rate = [&](std::size_t sum) {
    return static_cast<double>(sum) / node_ticks;
  };
  r.mean_link_changes = mean(t.link_changes);
  r.mean_head_changes = mean(t.head_changes);
  r.mean_role_changes = mean(t.role_changes);
  r.mean_backbone_changes = mean(t.backbone_changes);
  r.mean_coverage_changes = mean(t.coverage_changes);
  r.mean_rows_recomputed = mean(t.rows_recomputed);
  r.mean_heads_reselected = mean(t.heads_reselected);
  r.mean_regions = mean(t.regions);
  r.mean_rows_changed = mean(t.rows_changed);
  r.mean_heads_refreshed = mean(t.heads_refreshed);
  r.mean_rounds = mean(t.rounds);
  r.max_rounds = t.max_rounds;
  r.hello_rate = rate(t.msgs.maint_hello);
  r.repair_rate = rate(t.msgs.r1_status + t.msgs.r2_status);
  r.rows_rate = rate(t.msgs.ch_hop1 + t.msgs.ch_hop2);
  r.gateway_rate = rate(t.msgs.gateway);
  r.total_rate = rate(t.msgs.maintenance_total());
  r.deliveries_rate = rate(t.deliveries);
  r.commit_ms_per_tick = t.commit_ms / ticks;
  r.deliver_ms_per_tick = t.deliver_ms / ticks;
  r.node_step_ms_per_tick = t.node_step_ms / ticks;
  r.mirror_ms_per_tick = t.mirror_ms / ticks;
}

incr::PipelineOptions pipeline_options(const ChurnConfig& config) {
  incr::PipelineOptions options;
  options.mode = config.mode;
  options.grid = config.grid;
  options.streaming_build = config.streaming_build;
  return options;
}

/// The one loop of both engines: stage and tick the engine on the
/// mix's moves, optionally beside the rebuild baseline and the
/// lockstep witness.
template <class Engine>
ChurnResult run_loop(const ChurnConfig& config, MobilityMix& mix,
                     Engine& engine) {
  obs::TraceRecorder* tr = config.obs ? &config.obs->trace : nullptr;

  // The lockstep witness: a one-lane incremental engine over the same
  // moves (its state is the same at any lane count).
  std::optional<incr::IncrementalPipeline> witness;
  const auto check_witness = [&](std::size_t tick) {
    const std::uint64_t expect = core::backbone_state_hash(witness->view());
    const std::uint64_t got = core::backbone_state_hash(engine.view());
    if (got != expect)
      throw std::logic_error(
          engine_name(config.engine) +
          " engine state hash diverged from the incremental witness at "
          "tick " +
          std::to_string(tick) + ": engine " + std::to_string(got) +
          " vs witness " + std::to_string(expect));
  };
  if (config.crosscheck) {
    witness.emplace(mix.positions(), mix.range(), config.width,
                    config.height, pipeline_options(config));
    check_witness(0);
  }

  // Rebuild baseline state: the previous tick's clustering, repaired by a
  // full LCC pass each tick (what a snapshot-based deployment would run).
  cluster::Clustering rebuild_previous;
  if (config.rebuild_baseline) rebuild_previous = engine.view().clustering();

  const std::size_t burst_tick =
      config.burst_fraction > 0.0 ? config.ticks / 2 : config.ticks;
  const std::size_t burst_movers = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             config.burst_fraction * static_cast<double>(config.nodes))));

  ChurnResult result;
  result.ticks = config.ticks;
  Totals totals;
  double engine_ms = 0.0;
  double rebuild_ms = 0.0;

  for (std::size_t tick = 0; tick < config.ticks; ++tick) {
    const bool is_burst = tick == burst_tick;
    const std::span<const NodeId> moved = mix.advance(
        is_burst ? std::max(burst_movers, mix.movers_per_tick())
                 : mix.movers_per_tick());
    const std::vector<geom::Point>& positions = mix.positions();

    const auto tick_start = Clock::now();
    for (const NodeId v : moved) engine.stage_move(v, positions[v]);
    const auto stats = engine.tick();
    engine_ms += ms_since(tick_start);
    add(totals, stats);
    if (is_burst) result.burst_rounds = rounds_of(stats);

    if (witness) {
      for (const NodeId v : moved) witness->stage_move(v, positions[v]);
      witness->tick();
      check_witness(tick + 1);
    }

    // Rebuild baseline: from-scratch graph, full LCC pass, full backbone.
    if (config.rebuild_baseline) {
      obs::Span span(tr, "churn", "rebuild_baseline",
                     static_cast<std::uint64_t>(tick + 1), "links");
      const auto rebuild_start = Clock::now();
      const graph::Graph g = geom::unit_disk_graph(positions, mix.range());
      cluster::Clustering repaired =
          cluster::lcc_update(g, rebuild_previous);
      const core::StaticBackbone full =
          core::build_static_backbone(g, repaired, config.mode);
      rebuild_ms += ms_since(rebuild_start);
      span.set_arg(g.edges().size());
      // Pipelined runs lag: the maintained CDS is one in-flight tick
      // behind the positions the baseline just rebuilt from.
      if (config.pipeline_depth <= 1) {
        MANET_ASSERT(full.cds.size() == engine.view().cds().size(),
                     "maintained and rebuilt CDS diverged");
      }
      rebuild_previous = std::move(repaired);
    }
  }

  // Join the in-flight repair (incr pipelining); its tick's stats are
  // the one installment the loop hasn't accumulated yet. The drain time
  // belongs to the engine's wall clock.
  double wall_ms = engine_ms;
  if constexpr (std::is_same_v<Engine, incr::IncrementalPipeline>) {
    const auto drain_start = Clock::now();
    add(totals, engine.drain());
    wall_ms += ms_since(drain_start);
  }

  finish(totals, config, result);
  const double ticks = static_cast<double>(config.ticks);
  result.incremental_ms_per_tick = engine_ms / ticks;
  result.wall_ms_per_tick = wall_ms / ticks;
  if (config.rebuild_baseline) {
    result.rebuild_ms_per_tick = rebuild_ms / ticks;
    result.speedup =
        result.incremental_ms_per_tick > 0.0
            ? result.rebuild_ms_per_tick / result.incremental_ms_per_tick
            : 0.0;  // degenerate only for sub-microsecond runs
  }
  // Through the view, not a materialize() copy, which would double peak
  // RSS right at the end of a memory-audited run.
  result.state_hash = core::backbone_state_hash(engine.view());
  result.peak_rss_bytes = peak_rss_bytes();
  result.connected = mix.connected();
  result.connect_attempts_used = mix.connect_attempts_used();
  return result;
}

}  // namespace

std::string model_name(ChurnConfig::Model model) {
  return model == ChurnConfig::Model::kWaypoint ? "waypoint" : "direction";
}

std::string engine_name(ChurnConfig::Engine engine) {
  return engine == ChurnConfig::Engine::kIncr ? "incr" : "proto";
}

ChurnResult run_churn(const ChurnConfig& config) {
  const bool proto = config.engine == ChurnConfig::Engine::kProto;
  MANET_REQUIRE(config.ticks > 0, "churn run needs at least one tick");
  MANET_REQUIRE(config.burst_fraction >= 0.0 && config.burst_fraction <= 1.0,
                "burst fraction must be in [0, 1]");
  MANET_REQUIRE(!(config.crosscheck && config.pipeline_depth > 1),
                "crosscheck needs synchronous ticks: use pipeline_depth 1");
  MANET_REQUIRE(!proto || config.pipeline_depth == 1,
                "pipeline_depth applies to the incr engine only");
  MANET_REQUIRE(proto || !config.inject_stale_gateway_fault,
                "the stale-gateway fault exists in the proto engine only");

  // Layout + mobility model + mover sampling, on fixed per-seed rng
  // streams: every engine replays the identical trajectory.
  MobilityMix mix(config);

  if (proto) {
    proto::EngineOptions options;
    options.mode = config.mode;
    options.oracle_check = config.oracle_check;
    options.grid = config.grid;
    options.streaming_build = config.streaming_build;
    options.obs = config.obs;
    options.threads = config.threads;
    options.inject_stale_gateway_fault = config.inject_stale_gateway_fault;
    proto::MaintenanceEngine engine(mix.positions(), mix.range(),
                                    config.width, config.height, options);
    return run_loop(config, mix, engine);
  }
  incr::PipelineOptions options = pipeline_options(config);
  options.oracle_check = config.oracle_check;
  options.obs = config.obs;
  options.threads = config.threads;
  options.pipeline_depth = config.pipeline_depth;
  incr::IncrementalPipeline engine(mix.positions(), mix.range(), config.width,
                                   config.height, options);
  return run_loop(config, mix, engine);
}

}  // namespace manet::exp
