// Maintenance traffic of the message-driven backbone engine (src/proto).
//
// Two sections:
//  * Oracle soak (default): >= 200 ticks of churn for every mobility
//    model x coverage mode combination, with BOTH correctness harnesses
//    armed — the engine-internal from-scratch oracle diff and the
//    per-tick state-hash crosscheck against the snapshot-driven
//    incremental pipeline. A 30% move burst lands mid-run and reports
//    how many simulator rounds reconvergence took. Any divergence
//    aborts the bench (std::logic_error).
//  * Traffic sweep: per-node-per-tick transmission rates as n grows.
//    The paper's O(n) maintenance-communication claim shows as a flat
//    total rate; the exit code gates max/min rate <= 1.5 across the
//    sweep. --scale runs the committed 10k/100k rows (sparse grid +
//    streaming build + cell-major labels, correctness harnesses off so
//    the timings are honest); --scale-fast is the CI smoke (10k only).
//
// Flags: --fast (soak at 60 ticks), --seed=<u64>, --ticks=<k>,
//        --move-frac=<f> (default 0.02), --scale / --scale-fast,
//        --threads=<k> (default 2 — engine_threads of the sharded scale
//        rows; the verify stage sweeps {0,1,2,8} regardless),
//        --json=<path> (default BENCH_msgmaint.json in the working
//        directory — a committed top-level artifact like
//        BENCH_scale.json; regenerate with --scale),
//        --trace-out=<path> (Chrome-trace JSON of the last record's run —
//        repair waves render as flow arrows across node tracks in
//        Perfetto), --journal-out=<path> (the same run's event journal
//        as JSONL, the trace_inspect CLI's input).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "exp/msg_churn.hpp"
#include "obs/session.hpp"

namespace {

using namespace manet;

struct Record {
  exp::MsgChurnConfig config;
  exp::MsgChurnResult result;
  std::string metrics_json;  ///< obs registry snapshot of this run
  std::string section;       ///< "soak" / "traffic" / "scale"
};

/// A fresh session per record: each row's metrics block (proto.*,
/// proto.conv.*, net.*) covers exactly one run. --trace-out and
/// --journal-out are rewritten every record, so the files end up holding
/// the last (largest) run's trace and journal.
exp::MsgChurnResult run_record(exp::MsgChurnConfig config,
                               std::vector<Record>& records,
                               const std::string& section,
                               const std::string& trace_path,
                               const std::string& journal_path,
                               std::string* det_json = nullptr) {
  obs::Session session;
  config.base.obs = &session;
  const exp::MsgChurnResult r = exp::run_msg_churn(config);
  const obs::MetricsSnapshot snap = session.registry.snapshot();
  records.push_back({config, r, snap.to_json(), section});
  if (det_json != nullptr) *det_json = snap.deterministic().to_json();
  if (!trace_path.empty())
    session.trace.write_chrome_trace_file(trace_path, &session.journal);
  if (!journal_path.empty()) session.journal.write_jsonl_file(journal_path);
  return r;
}

/// Satellite: a disconnected sweep topology is a legitimate regime at
/// scale (connectivity is hopeless at d=6 and n >= 10k) but must never
/// pass silently — rates measured on a fragmented network are not
/// comparable with connected rows.
void warn_if_disconnected(const exp::MsgChurnConfig& c,
                          const exp::MsgChurnResult& r) {
  if (r.connected) return;
  std::printf(
      "*** WARNING: n=%zu row ran on a DISCONNECTED topology (%zu/%zu "
      "connect attempts used) — per-node rates reflect a fragmented "
      "network; raise connect_attempts or degree for connected rows ***\n",
      r.nodes, r.connect_attempts_used, c.base.connect_attempts);
}

const char* mode_name(core::CoverageMode mode) {
  return mode == core::CoverageMode::kTwoPointFiveHop ? "2.5-hop" : "3-hop";
}

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<Record>& records, bool traffic_flat,
                bool determinism_ok, bool rss_ok, bool scaling_ok) {
  // The default lands in the working directory (the committed artifact
  // convention of BENCH_scale.json); an explicit --json=dir/file.json
  // gets its parent created, matching common/artifacts.hpp.
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  out << "{\n  \"bench\": \"msg_maintenance\",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"traffic_o_n_ok\": " << (traffic_flat ? "true" : "false")
      << ",\n  \"sharded_determinism_ok\": "
      << (determinism_ok ? "true" : "false")
      << ",\n  \"rss_per_node_ok\": " << (rss_ok ? "true" : "false")
      << ",\n  \"wall_scaling_ok\": " << (scaling_ok ? "true" : "false")
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& [c, r, metrics, section] = records[i];
    out << "    {\"section\": \"" << section << "\", \"model\": \""
        << exp::model_name(c.base.model) << "\", \"mode\": \""
        << mode_name(c.base.mode) << "\", \"n\": " << r.nodes
        << ", \"degree\": " << c.base.degree
        << ", \"move_fraction\": " << c.base.move_fraction
        << ", \"ticks\": " << r.ticks
        << ", \"oracle\": " << (c.oracle_check ? "true" : "false")
        << ", \"crosscheck\": " << (c.crosscheck ? "true" : "false")
        << ", \"burst_fraction\": " << c.burst_fraction
        << ", \"mean_rounds\": " << r.mean_rounds
        << ", \"max_rounds\": " << r.max_rounds
        << ", \"burst_rounds\": " << r.burst_rounds
        << ", \"hello_rate\": " << r.hello_rate
        << ", \"repair_rate\": " << r.repair_rate
        << ", \"rows_rate\": " << r.rows_rate
        << ", \"gateway_rate\": " << r.gateway_rate
        << ", \"msgs_per_node_per_tick\": " << r.total_rate
        << ", \"deliveries_per_node_per_tick\": " << r.deliveries_rate
        << ", \"mean_link_changes\": " << r.mean_link_changes
        << ", \"mean_head_changes\": " << r.mean_head_changes
        << ", \"engine_threads\": " << c.engine_threads
        << ", \"host_hw_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"throttled_host\": "
        << (std::thread::hardware_concurrency() <= 1 && c.engine_threads > 1
                ? "true"
                : "false")
        << ", \"wall_ms_per_tick\": " << r.wall_ms_per_tick
        << ", \"commit_ms_per_tick\": " << r.commit_ms_per_tick
        << ", \"deliver_ms_per_tick\": " << r.deliver_ms_per_tick
        << ", \"node_step_ms_per_tick\": " << r.node_step_ms_per_tick
        << ", \"mirror_ms_per_tick\": " << r.mirror_ms_per_tick
        << ", \"connected\": " << (r.connected ? "true" : "false")
        << ", \"connect_attempts_used\": " << r.connect_attempts_used
        << ", \"state_hash\": \"" << std::hex << r.state_hash << std::dec
        << "\", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"rss_bytes_per_node\": "
        << static_cast<double>(r.peak_rss_bytes) / static_cast<double>(r.nodes)
        << ", \"metrics\": " << metrics << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_row(const char* tag, const exp::MsgChurnConfig& c,
               const exp::MsgChurnResult& r) {
  std::printf(
      "%-10s %-7s %7zu %6.2f %6.1f %6.1f  %6.3f %6.3f %6.3f %6.3f %7.3f\n",
      tag, mode_name(c.base.mode), r.nodes, r.mean_rounds,
      static_cast<double>(r.max_rounds), static_cast<double>(r.burst_rounds),
      r.hello_rate, r.repair_rate, r.rows_rate, r.gateway_rate,
      r.total_rate);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool fast = flags.get_bool("fast");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2003));
  const auto soak_ticks =
      static_cast<std::size_t>(flags.get_int("ticks", fast ? 60 : 200));
  const double move_frac = flags.get_double("move-frac", 0.02);
  const bool scale_fast = flags.get_bool("scale-fast");
  const bool scale = flags.get_bool("scale") || scale_fast;
  const auto threads =
      static_cast<std::size_t>(flags.get_int("threads", 2));
  const std::string json_path = flags.get("json", "BENCH_msgmaint.json");
  const std::string trace_path = flags.get("trace-out", "");
  const std::string journal_path = flags.get("journal-out", "");

  std::vector<Record> records;
  std::puts(
      "manetcast :: msg_maintenance — HELLO-paced protocol engine traffic");
  std::printf("%-10s %-7s %7s %6s %6s %6s  %6s %6s %6s %6s %7s\n", "model",
              "mode", "n", "rnds", "max", "burst", "hello", "repair", "rows",
              "gatewy", "msgs/nt");

  // Oracle soak: every model x mode, oracle + crosscheck + mid-run burst.
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection}) {
    for (const auto mode : {core::CoverageMode::kTwoPointFiveHop,
                            core::CoverageMode::kThreeHop}) {
      exp::MsgChurnConfig config;
      config.base.nodes = 120;
      config.base.degree = 6.0;
      config.base.ticks = soak_ticks;
      config.base.move_fraction = move_frac;
      config.base.model = model;
      config.base.mode = mode;
      config.base.seed = seed;
      config.base.connect_attempts = 5;
      config.crosscheck = true;
      config.oracle_check = true;
      config.burst_fraction = 0.3;
      const exp::MsgChurnResult r =
          run_record(config, records, "soak", trace_path, journal_path);
      print_row(exp::model_name(model).c_str(), config, r);
    }
  }
  std::printf(
      "soak: %zu ticks per row, oracle diff + incremental crosscheck on "
      "every tick, 30%% move burst mid-run — all passed\n\n",
      soak_ticks);

  // Traffic sweep: the O(n) claim. Correctness harnesses off (the soak
  // just proved them); the gate is the flatness of msgs/node/tick.
  std::vector<std::size_t> sizes{200, 500, 1000, 2000};
  std::size_t sweep_ticks = fast ? 40 : 100;
  std::string section = "traffic";
  // Scale rows hold the ABSOLUTE churn fixed — 100 movers per tick at
  // every n — instead of a fixed fraction. That is the workload the
  // region-sharded engine is built for: the repair scope is O(changes),
  // so wall/tick must stay near-flat while n grows 100x. (A fixed
  // fraction at 1M paints essentially every grid cell, degenerating the
  // sharded tick into the sequential one plus overhead — it measures
  // cache thrash, not the engine.) Traffic stays HELLO-dominated, so
  // the flatness gate is unaffected.
  constexpr double kScaleMovers = 100.0;
  if (scale) {
    sizes = scale_fast
                ? std::vector<std::size_t>{10000}
                : std::vector<std::size_t>{10000, 100000, 1000000, 10000000};
    sweep_ticks = scale_fast ? 10 : 30;
    section = "scale";
    std::puts(scale_fast
                  ? "scale smoke — sparse grid + streaming cold start, "
                    "n=10k, 100 movers/tick"
                  : "scale sweep — sparse grid + streaming cold start, "
                    "10k/100k/1M/10M, fixed 100 movers/tick");
  } else {
    std::puts("traffic sweep — waypoint, 2.5-hop, correctness checks off");
  }

  const auto sweep_config = [&](std::size_t n) {
    exp::MsgChurnConfig config;
    config.base.nodes = n;
    config.base.degree = 6.0;
    config.base.ticks = sweep_ticks;
    config.base.move_fraction =
        scale ? kScaleMovers / static_cast<double>(n) : move_frac;
    config.base.model = exp::ChurnConfig::Model::kWaypoint;
    config.base.mode = core::CoverageMode::kTwoPointFiveHop;
    config.base.seed = seed;
    config.base.connect_attempts = 1;
    config.crosscheck = false;
    config.oracle_check = false;
    if (scale) {
      config.base.grid = geom::GridIndex::kSparse;
      config.base.streaming_build = true;
      config.base.cell_order = true;
      // Cell-by-cell placement + union-find connectivity: the cold
      // start never materializes a throwaway graph or an unordered
      // layout copy, which is what lets the 10M row start inside the
      // steady-state RSS budget.
      config.base.streaming_placement = true;
    }
    return config;
  };

  // Scale verify stage (before the sweep, so the monotone peak-RSS
  // counter still reads as a per-size peak for the ascending rows):
  // the region-sharded engine at threads {1,2,8} and the sequential
  // loop (threads=0) must land on ONE state hash and byte-identical
  // deterministic metrics over the identical workload.
  bool determinism_ok = true;
  if (scale) {
    const std::size_t vn = sizes.front();
    const std::vector<std::size_t> verify_threads =
        scale_fast ? std::vector<std::size_t>{0, threads}
                   : std::vector<std::size_t>{0, 1, 2, 8};
    std::printf(
        "\nscale verify — sharded engine vs sequential, n=%zu "
        "(one hash + byte-identical deterministic metrics required)\n",
        vn);
    std::uint64_t verify_hash = 0;
    std::string verify_metrics;
    for (const std::size_t t : verify_threads) {
      exp::MsgChurnConfig config = sweep_config(vn);
      config.engine_threads = t;
      std::string det;
      const exp::MsgChurnResult r = run_record(
          config, records, "scale-verify", trace_path, journal_path, &det);
      const bool first = t == verify_threads.front();
      if (first) {
        verify_hash = r.state_hash;
        verify_metrics = det;
      }
      const bool hash_ok = r.state_hash == verify_hash;
      const bool metrics_ok = det == verify_metrics;
      determinism_ok = determinism_ok && hash_ok && metrics_ok;
      std::printf("  engine_threads=%zu  %016llx  metrics %s\n", t,
                  static_cast<unsigned long long>(r.state_hash),
                  first         ? "(reference)"
                  : metrics_ok ? "identical"
                               : "DIVERGED");
      warn_if_disconnected(config, r);
    }
    std::printf("scale verify %s\n\n",
                determinism_ok
                    ? "passed — sharding changes no observable"
                    : "FAILED — sharded runs diverged");
  }

  double min_rate = 0.0, max_rate = 0.0;
  // (n, bytes/node) of each sweep size's final row, ascending n — the
  // memory-audit series for the RSS gate.
  std::vector<std::pair<std::size_t, double>> rss_series;
  // (n, wall ms/tick) of each scale size's sharded row — the series for
  // the sublinear-scaling gate.
  std::vector<std::pair<std::size_t, double>> wall_series;
  for (const std::size_t n : sizes) {
    // Thread variants per size: the smaller scale rows keep a
    // sequential (engine_threads=0) baseline next to the sharded row
    // so the sweep shows what the O(changes) tick buys; the 1M row
    // runs sharded only — a sequential run costs O(n) per tick for no
    // extra information. Traffic rows stay sequential (rates are
    // thread-invariant; the verify stage just proved it).
    std::vector<std::size_t> variants{0};
    if (scale) {
      variants.clear();
      if (n < 1000000) variants.push_back(0);
      variants.push_back(threads);
    }
    double rss_per_node = 0.0;
    for (const std::size_t t : variants) {
      exp::MsgChurnConfig config = sweep_config(n);
      config.engine_threads = t;
      const exp::MsgChurnResult r =
          run_record(config, records, section, trace_path, journal_path);
      print_row("waypoint", config, r);
      rss_per_node = static_cast<double>(r.peak_rss_bytes) /
                     static_cast<double>(r.nodes);
      std::printf(
          "%36s thr %zu, wall %.3f ms/tick (commit %.3f, deliver %.3f, "
          "node %.3f, mirror %.3f), rss %.1f MB (%.0f B/node)\n",
          "", t, r.wall_ms_per_tick, r.commit_ms_per_tick,
          r.deliver_ms_per_tick, r.node_step_ms_per_tick,
          r.mirror_ms_per_tick,
          static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0),
          rss_per_node);
      warn_if_disconnected(config, r);
      if (min_rate == 0.0 || r.total_rate < min_rate)
        min_rate = r.total_rate;
      max_rate = std::max(max_rate, r.total_rate);
      if (scale && t == variants.back())
        wall_series.emplace_back(n, r.wall_ms_per_tick);
    }
    rss_series.emplace_back(n, rss_per_node);
  }
  // O(n) gate: per-node traffic must stay flat as n grows 10-500x. The
  // 1.5x allowance absorbs boundary effects of the small sizes.
  const bool traffic_flat = min_rate > 0.0 && max_rate / min_rate <= 1.5;
  std::printf(
      "\nO(n) maintenance traffic: msgs/node/tick in [%.3f, %.3f], "
      "ratio %.2f (gate <= 1.50) — %s\n",
      min_rate, max_rate, max_rate / min_rate,
      traffic_flat ? "flat, O(n) holds" : "NOT FLAT — gate FAILED");

  // Memory gate, mirroring churn_maintenance's per-node budget: bytes
  // per node must not grow with n (10% allowance for measurement
  // noise), and the million-node-and-up rows must hold the post-diet
  // 1.0 KB/node budget absolutely. The smoke run gets its own absolute
  // budget (a 10k-node process is dominated by fixed overhead, so the
  // big rows' budget would be vacuous there) — this is the exit-code
  // gate CI leans on.
  bool rss_ok = true;
  if (scale) {
    for (std::size_t i = 1; i < rss_series.size(); ++i)
      if (rss_series[i].second > rss_series[i - 1].second * 1.10) {
        rss_ok = false;
        std::printf(
            "RSS gate FAILED: %.0f B/node at n=%zu grew from %.0f B/node "
            "at n=%zu\n",
            rss_series[i].second, rss_series[i].first,
            rss_series[i - 1].second, rss_series[i - 1].first);
      }
    for (const auto& [rn, per_node] : rss_series)
      if (rn >= 1000000 && per_node > 1024.0) {
        rss_ok = false;
        std::printf(
            "RSS gate FAILED: n=%zu row at %.0f B/node exceeds the "
            "1.0 KB/node budget\n",
            rn, per_node);
      }
    if (scale_fast && rss_series.back().second > 3072.0) {
      rss_ok = false;
      std::printf(
          "RSS gate FAILED: smoke row at %.0f B/node exceeds the 3.0 "
          "KB/node smoke budget\n",
          rss_series.back().second);
    }
    if (rss_ok)
      std::printf("RSS gate passed: bytes/node flat across the sweep "
                  "(last row %.0f B/node)\n",
                  rss_series.back().second);
  }

  // Sublinear-wall gate: with the absolute churn fixed, the sharded
  // tick is O(changes), so wall/tick must grow strictly slower than n
  // between consecutive scale rows (10x n must cost < 10x wall).
  bool scaling_ok = true;
  if (scale && wall_series.size() >= 2) {
    for (std::size_t i = 1; i < wall_series.size(); ++i) {
      const auto& [n0, w0] = wall_series[i - 1];
      const auto& [n1, w1] = wall_series[i];
      const double n_ratio =
          static_cast<double>(n1) / static_cast<double>(n0);
      const double w_ratio = w0 > 0.0 ? w1 / w0 : 0.0;
      const bool ok = w_ratio < n_ratio;
      scaling_ok = scaling_ok && ok;
      std::printf(
          "wall scaling %zu -> %zu: %.3f -> %.3f ms/tick, ratio %.2fx "
          "for %.0fx nodes — %s\n",
          n0, n1, w0, w1, w_ratio, n_ratio,
          ok ? "sublinear" : "NOT sublinear — gate FAILED");
    }
  }

  write_json(json_path, seed, records, traffic_flat, determinism_ok, rss_ok,
             scaling_ok);
  std::printf("records written to %s\n", json_path.c_str());
  return traffic_flat && determinism_ok && rss_ok && scaling_ok ? 0 : 1;
}
