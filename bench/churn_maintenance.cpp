// Backbone maintenance cost under churn, for either engine.
//
// --engine=incr (default) drives the snapshot-driven incremental engine
// (src/incr); --engine=proto drives the HELLO-paced protocol engine
// (src/proto). Both go through exp::run_churn, and one record type, one
// verify stage, one RSS gate and one JSON writer serve both. Each engine
// brings its own experiments and budgets as data:
//
// incr
//  * matrix: both mobility models at n up to 2000, ~1% movers per tick,
//    engine vs the batch rebuild baseline (unit-disk graph + full LCC
//    pass + full backbone rebuild);
//  * --threads=<k> with k > 1: one lane vs k lanes vs pipelined (depth
//    2) at the matrix's largest size, one state hash required;
//  * --scale: verify stage (threads {1, 2, 8}, pipelined {2, 8}, the
//    edge-list build) at 100k, then 100k/300k/1M at 0.5% movers on the
//    streaming build + cell-major labels, threads {1, 2, 4} x depth
//    {1, 2} below 1M; RSS budget 1 KB/node at 1M.
//    The sweep rows also go to --scale-json.
// proto
//  * soak: every mobility model x coverage mode, the engine's oracle
//    and the incremental crosscheck on every tick, a 30% move burst
//    mid-run (any divergence aborts the bench);
//  * traffic sweep at 200–2000 nodes, or with --scale the 10k/100k/1M/
//    10M rows at 100 movers per tick (streaming placement), after a
//    verify stage at threads {0, 1, 2, 8} that also requires one
//    byte-identical deterministic metrics snapshot. Gates: max/min
//    msgs per node per tick <= 1.5, sublinear wall per tick, and
//    bytes per node (flat within 10%, 1 KB at >= 1M, 3 KB smoke).
//
// --scale-fast runs the scale stages at 10k only (proto verifies threads
// {0, --threads} there). The exit code is 1 when any gate fails: verify
// hashes (and proto metrics), repeat stability, one hash per sweep size,
// RSS, and proto's traffic and scaling gates.
//
// Flags: --engine=incr|proto, --fast, --seed=<u64> (2003),
//        --ticks=<k> (matrix or soak ticks), --move-frac=<f> (incr
//        0.01, proto 0.02), --threads=<k> (default 1: incr lanes of
//        every row; proto lanes of the sharded scale rows, 0 = the
//        sequential loop), --pipeline (incr: depth 2 for every matrix
//        row), --repeat=<k> (median-of-k sweep rows; hashes must
//        agree), --scale / --scale-fast,
//        --json=<path> (every run with its metrics; default
//        BENCH_churn.json under --out-dir, default results/, for incr
//        and ./BENCH_msgmaint.json for proto — a bare file name lands
//        under --out-dir),
//        --scale-json=<path> (incr sweep rows, default BENCH_scale.json
//        in the working directory),
//        --trace-out=<path> / --journal-out=<path> (Chrome trace and
//        event journal of the last run; repair waves render as flow
//        arrows in Perfetto, and trace_inspect reads the journal).
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "exp/churn.hpp"
#include "obs/session.hpp"

namespace {

using namespace manet;
using Engine = exp::ChurnConfig::Engine;

struct Record {
  exp::ChurnConfig config;
  exp::ChurnResult result;
  std::string section;       ///< "matrix" / "soak" / "scale" / ...
  std::string metrics_json;  ///< obs registry snapshot of this run
  std::size_t repeat = 1;    ///< runs this row is the median of
  /// Wall speedup over the same size's one-lane depth-1 row (0 = none).
  double speedup_vs_1t = 0.0;
};

/// Exit-code gates; traffic and scaling exist only where they ran.
struct Gates {
  bool determinism = true;  ///< verify stage, repeats, one hash per size
  bool rss = true;
  std::optional<bool> traffic_o_n;   ///< proto: flat msgs per node
  std::optional<bool> wall_scaling;  ///< proto --scale: sublinear wall
  bool ok() const {
    return determinism && rss && traffic_o_n.value_or(true) &&
           wall_scaling.value_or(true);
  }
};

/// A sweep or verify variant of a base config.
struct Variant {
  std::size_t threads = 1;
  std::size_t depth = 1;
  bool edge_list = false;  ///< edge-list build instead of base's
};

const char* mode_name(core::CoverageMode mode) {
  return mode == core::CoverageMode::kTwoPointFiveHop ? "2.5-hop" : "3-hop";
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

double rss_per_node(const Record& rec) {
  return static_cast<double>(rec.result.peak_rss_bytes) /
         static_cast<double>(rec.config.nodes);
}

void write_row(std::ostream& out, const Record& rec, bool with_metrics) {
  const exp::ChurnConfig& c = rec.config;
  const exp::ChurnResult& r = rec.result;
  const unsigned hw = std::thread::hardware_concurrency();
  out << "{\"engine\": \"" << exp::engine_name(c.engine)
      << "\", \"section\": \"" << rec.section << "\", \"model\": \""
      << exp::model_name(c.model) << "\", \"mode\": \"" << mode_name(c.mode)
      << "\", \"n\": " << c.nodes << ", \"degree\": " << c.degree
      << ", \"move_fraction\": " << c.move_fraction
      << ", \"threads\": " << c.threads
      << ", \"pipeline_depth\": " << c.pipeline_depth
      << ", \"ticks\": " << r.ticks << ", \"repeat\": " << rec.repeat
      << ", \"streaming\": " << json_bool(c.streaming_build)
      << ", \"oracle\": " << json_bool(c.oracle_check)
      << ", \"crosscheck\": " << json_bool(c.crosscheck)
      << ", \"burst_fraction\": " << c.burst_fraction
      // Threaded rows only mean something relative to the physical
      // parallelism of the host that produced them.
      << ", \"host_hw_concurrency\": " << hw
      << ", \"throttled_host\": " << json_bool(hw <= 1 && c.threads > 1)
      << ", \"connected\": " << json_bool(r.connected)
      << ", \"connect_attempts_used\": " << r.connect_attempts_used
      << ", \"giant_fraction\": " << r.giant_fraction
      << ", \"incremental_ms_per_tick\": " << r.incremental_ms_per_tick
      << ", \"wall_ms_per_tick\": " << r.wall_ms_per_tick;
  if (rec.speedup_vs_1t > 0.0)
    out << ", \"wall_speedup_vs_1t\": " << rec.speedup_vs_1t;
  out << ", \"ticks_per_s\": "
      << (r.wall_ms_per_tick > 0.0 ? 1000.0 / r.wall_ms_per_tick : 0.0)
      << ", \"mean_link_changes\": " << r.mean_link_changes
      << ", \"mean_head_changes\": " << r.mean_head_changes
      << ", \"mean_role_changes\": " << r.mean_role_changes;
  if (c.engine == Engine::kIncr) {
    out << ", \"rebuild_ms_per_tick\": " << r.rebuild_ms_per_tick
        << ", \"speedup\": " << r.speedup
        << ", \"mean_backbone_changes\": " << r.mean_backbone_changes
        << ", \"mean_coverage_changes\": " << r.mean_coverage_changes
        << ", \"mean_rows_recomputed\": " << r.mean_rows_recomputed
        << ", \"mean_heads_reselected\": " << r.mean_heads_reselected
        << ", \"mean_regions\": " << r.mean_regions;
  } else {
    out << ", \"mean_rows_changed\": " << r.mean_rows_changed
        << ", \"mean_heads_refreshed\": " << r.mean_heads_refreshed
        << ", \"mean_rounds\": " << r.mean_rounds
        << ", \"max_rounds\": " << r.max_rounds
        << ", \"burst_rounds\": " << r.burst_rounds
        << ", \"hello_rate\": " << r.hello_rate
        << ", \"repair_rate\": " << r.repair_rate
        << ", \"rows_rate\": " << r.rows_rate
        << ", \"gateway_rate\": " << r.gateway_rate
        << ", \"msgs_per_node_per_tick\": " << r.total_rate
        << ", \"deliveries_per_node_per_tick\": " << r.deliveries_rate
        << ", \"commit_ms_per_tick\": " << r.commit_ms_per_tick
        << ", \"deliver_ms_per_tick\": " << r.deliver_ms_per_tick
        << ", \"node_step_ms_per_tick\": " << r.node_step_ms_per_tick
        << ", \"mirror_ms_per_tick\": " << r.mirror_ms_per_tick;
  }
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.state_hash));
  out << ", \"state_hash\": \"" << hash
      << "\", \"peak_rss_bytes\": " << r.peak_rss_bytes
      << ", \"rss_bytes_per_node\": " << rss_per_node(rec);
  if (with_metrics) out << ", \"metrics\": " << rec.metrics_json;
  out << "}";
}

void write_json(const std::string& path, const std::string& bench,
                std::uint64_t seed, const Gates& gates,
                std::span<const Record> rows, bool with_metrics) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"seed\": " << seed
      << ",\n  \"determinism_ok\": " << json_bool(gates.determinism)
      << ",\n  \"rss_ok\": " << json_bool(gates.rss);
  if (gates.traffic_o_n)
    out << ",\n  \"traffic_o_n_ok\": " << json_bool(*gates.traffic_o_n);
  if (gates.wall_scaling)
    out << ",\n  \"wall_scaling_ok\": " << json_bool(*gates.wall_scaling);
  out << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    ";
    write_row(out, rows[i], with_metrics);
    out << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("records written to %s\n", path.c_str());
}

void print_header(Engine engine) {
  std::printf("%-12s %-9s %-7s %8s %4s %3s %5s %10s %10s ", "section",
              "model", "mode", "n", "d", "thr", "depth", "eng_ms", "wall_ms");
  if (engine == Engine::kIncr)
    std::printf("%10s %8s %8s %8s %6s", "rebuild_ms", "speedup", "links/t",
                "rows/t", "reg/t");
  else
    std::printf("%6s %4s %5s %6s %6s %6s %6s %7s", "rnds", "max", "burst",
                "hello", "repair", "rows", "gatewy", "msgs/nt");
  std::printf(" %9s %7s  %s\n", "rss_b/n", "vs_1t", "state_hash");
}

void print_row(const Record& rec) {
  const exp::ChurnConfig& c = rec.config;
  const exp::ChurnResult& r = rec.result;
  std::printf("%-12s %-9s %-7s %8zu %4g %3zu %5zu %10.4f %10.4f ",
              rec.section.c_str(), exp::model_name(c.model).c_str(),
              mode_name(c.mode), c.nodes, c.degree, c.threads,
              c.pipeline_depth, r.incremental_ms_per_tick,
              r.wall_ms_per_tick);
  if (c.engine == Engine::kIncr)
    std::printf("%10.4f %7.1fx %8.2f %8.1f %6.1f", r.rebuild_ms_per_tick,
                r.speedup, r.mean_link_changes, r.mean_rows_recomputed,
                r.mean_regions);
  else
    std::printf("%6.2f %4u %5u %6.3f %6.3f %6.3f %6.3f %7.3f", r.mean_rounds,
                r.max_rounds, r.burst_rounds, r.hello_rate, r.repair_rate,
                r.rows_rate, r.gateway_rate, r.total_rate);
  std::printf(" %9.0f", rss_per_node(rec));
  if (rec.speedup_vs_1t > 0.0)
    std::printf(" %6.2fx", rec.speedup_vs_1t);
  else
    std::printf(" %7s", "-");
  std::printf("  %016llx", static_cast<unsigned long long>(r.state_hash));
  if (!r.connected)
    std::printf("  (disconnected, giant component %.3f)", r.giant_fraction);
  std::printf("\n");
}

exp::ChurnConfig apply(exp::ChurnConfig config, const Variant& v) {
  config.threads = v.threads;
  config.pipeline_depth = v.depth;
  if (v.edge_list) config.streaming_build = false;
  return config;
}

/// Runs configs and keeps every run as a record.
struct Bench {
  std::string trace_path;
  std::string journal_path;
  std::vector<Record> records;
  Gates gates;

  /// One run with a fresh obs session, so each record's metrics cover
  /// exactly one run. --trace-out and --journal-out are rewritten every
  /// run, so the files end up holding the last run's. `det_json`, when
  /// given, receives the deterministic metrics snapshot.
  Record run(exp::ChurnConfig config, const std::string& section,
             std::string* det_json = nullptr) {
    obs::Session session;
    config.obs = &session;
    const exp::ChurnResult r = exp::run_churn(config);
    config.obs = nullptr;
    const obs::MetricsSnapshot snap = session.registry.snapshot();
    records.push_back({config, r, section, snap.to_json()});
    if (det_json != nullptr) *det_json = snap.deterministic().to_json();
    if (!trace_path.empty())
      session.trace.write_chrome_trace_file(trace_path, &session.journal);
    if (!journal_path.empty()) session.journal.write_jsonl_file(journal_path);
    return records.back();
  }

  /// Median-of-k by wall clock: timings on a shared machine are noisy,
  /// hashes are not — every repeat must land on the same state hash.
  /// All repeats are recorded; the median row is returned.
  Record repeated(const exp::ChurnConfig& config, const std::string& section,
                  std::size_t repeat) {
    std::vector<Record> runs;
    for (std::size_t i = 0; i < repeat; ++i) {
      runs.push_back(run(config, section));
      gates.determinism = gates.determinism &&
                          runs.back().result.state_hash ==
                              runs.front().result.state_hash;
    }
    std::sort(runs.begin(), runs.end(), [](const Record& a, const Record& b) {
      return a.result.wall_ms_per_tick < b.result.wall_ms_per_tick;
    });
    Record median = runs[runs.size() / 2];
    median.repeat = repeat;
    return median;
  }

  /// The verify stage: every variant of `base` must land on one state
  /// hash and, with `same_metrics`, on one byte-identical deterministic
  /// metrics snapshot.
  void verify(const exp::ChurnConfig& base, std::span<const Variant> variants,
              bool same_metrics) {
    std::printf("\nscale verify — one state hash%s across the variants\n",
                same_metrics ? " and deterministic metrics" : "");
    bool ok = true;
    std::uint64_t hash = 0;
    std::string metrics;
    for (const Variant& v : variants) {
      exp::ChurnConfig config = apply(base, v);
      std::string det;
      const Record rec = run(config, "scale-verify", &det);
      if (&v == &variants.front()) {
        hash = rec.result.state_hash;
        metrics = det;
      }
      ok = ok && rec.result.state_hash == hash &&
           (!same_metrics || det == metrics);
      print_row(rec);
    }
    gates.determinism = gates.determinism && ok;
    std::printf("scale verify %s\n\n",
                ok ? "passed" : "FAILED — the variants diverged");
  }

  /// One median-of-`repeat` row per (size, variant), in the given order
  /// (ascending sizes, so the monotone peak-RSS counter reads as a
  /// per-size peak). The rows of one size must land on one state hash.
  template <class ConfigOf, class VariantsOf>
  std::vector<Record> sweep(const std::string& section,
                            std::span<const std::size_t> sizes,
                            ConfigOf config_of, VariantsOf variants_of,
                            std::size_t repeat) {
    std::vector<Record> rows;
    for (const std::size_t n : sizes) {
      const std::size_t first = rows.size();
      for (const Variant& v : variants_of(n)) {
        rows.push_back(repeated(apply(config_of(n), v), section, repeat));
        gates.determinism =
            gates.determinism &&
            rows.back().result.state_hash == rows[first].result.state_hash;
      }
      const auto one_lane = std::find_if(
          rows.begin() + static_cast<std::ptrdiff_t>(first), rows.end(),
          [](const Record& r) {
            return r.config.threads == 1 && r.config.pipeline_depth == 1;
          });
      for (std::size_t i = first; i < rows.size(); ++i) {
        if (one_lane != rows.end() && rows[i].result.wall_ms_per_tick > 0.0)
          rows[i].speedup_vs_1t = one_lane->result.wall_ms_per_tick /
                                  rows[i].result.wall_ms_per_tick;
        print_row(rows[i]);
      }
    }
    return rows;
  }
};

/// The last row of each size, in order: RSS is monotone per process, so
/// that row reads the size's peak, and it is the sharded row where a
/// size has a sequential baseline too.
std::vector<const Record*> last_per_size(std::span<const Record> rows) {
  std::vector<const Record*> last;
  for (const Record& r : rows) {
    if (!last.empty() && last.back()->config.nodes == r.config.nodes)
      last.back() = &r;
    else
      last.push_back(&r);
  }
  return last;
}

/// Per-node peak-RSS budgets of a sweep.
struct RssBudget {
  double growth = 0.0;  ///< max ratio between consecutive sizes (0: none)
  double large = 1024.0;  ///< bytes/node at n >= 1M
  double smoke = 0.0;     ///< bytes/node of the last row (0: none)
};

bool rss_gate(std::span<const Record> rows, const RssBudget& budget) {
  const std::vector<const Record*> last = last_per_size(rows);
  bool ok = true;
  for (std::size_t i = 0; i < last.size(); ++i) {
    const std::size_t n = last[i]->config.nodes;
    const double per_node = rss_per_node(*last[i]);
    if (budget.growth > 0.0 && i > 0 &&
        per_node > rss_per_node(*last[i - 1]) * budget.growth) {
      ok = false;
      std::printf("RSS gate FAILED: %.0f B/node at n=%zu grew from %.0f "
                  "B/node at n=%zu\n",
                  per_node, n, rss_per_node(*last[i - 1]),
                  last[i - 1]->config.nodes);
    }
    if (n >= 1000000 && per_node > budget.large) {
      ok = false;
      std::printf("RSS gate FAILED: n=%zu at %.0f B/node exceeds the %.0f "
                  "B/node budget\n",
                  n, per_node, budget.large);
    }
  }
  if (budget.smoke > 0.0 && !last.empty() &&
      rss_per_node(*last.back()) > budget.smoke) {
    ok = false;
    std::printf("RSS gate FAILED: smoke row at %.0f B/node exceeds the %.0f "
                "B/node smoke budget\n",
                rss_per_node(*last.back()), budget.smoke);
  }
  if (ok && !last.empty())
    std::printf("RSS gate passed (last row %.0f B/node)\n",
                rss_per_node(*last.back()));
  return ok;
}

/// O(n) maintenance traffic: msgs per node per tick must stay flat as n
/// grows 10-1000x. The 1.5x allowance absorbs the small sizes' boundary
/// effects.
bool traffic_gate(std::span<const Record> rows) {
  double lo = 0.0, hi = 0.0;
  for (const Record& r : rows) {
    if (lo == 0.0 || r.result.total_rate < lo) lo = r.result.total_rate;
    hi = std::max(hi, r.result.total_rate);
  }
  const bool ok = lo > 0.0 && hi / lo <= 1.5;
  std::printf("\nO(n) maintenance traffic: msgs/node/tick in [%.3f, %.3f], "
              "ratio %.2f (gate <= 1.50) — %s\n",
              lo, hi, hi / lo,
              ok ? "flat, O(n) holds" : "NOT FLAT — gate FAILED");
  return ok;
}

/// With the absolute churn fixed, the sharded tick is O(changes): wall
/// per tick of each size's last row must grow strictly slower than n.
bool scaling_gate(std::span<const Record> rows) {
  const std::vector<const Record*> last = last_per_size(rows);
  bool ok = true;
  for (std::size_t i = 1; i < last.size(); ++i) {
    const Record& prev = *last[i - 1];
    const Record& cur = *last[i];
    const double n_ratio = static_cast<double>(cur.config.nodes) /
                           static_cast<double>(prev.config.nodes);
    const double w0 = prev.result.wall_ms_per_tick;
    const double w1 = cur.result.wall_ms_per_tick;
    const double w_ratio = w0 > 0.0 ? w1 / w0 : 0.0;
    const bool step_ok = w_ratio < n_ratio;
    ok = ok && step_ok;
    std::printf("wall scaling %zu -> %zu: %.3f -> %.3f ms/tick, ratio %.2fx "
                "for %.0fx nodes — %s\n",
                prev.config.nodes, cur.config.nodes, w0, w1, w_ratio,
                n_ratio, step_ok ? "sublinear" : "NOT sublinear — FAILED");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string engine_flag = flags.get("engine", "incr");
  if (engine_flag != "incr" && engine_flag != "proto")
    throw std::invalid_argument("--engine must be incr or proto, not '" +
                                engine_flag + "'");
  const bool proto = engine_flag == "proto";
  const Engine engine = proto ? Engine::kProto : Engine::kIncr;
  const bool fast = flags.get_bool("fast");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2003));
  const auto ticks = flags.get_count("ticks", fast ? (proto ? 60 : 50) : 200);
  const double move_frac = flags.get_double("move-frac", proto ? 0.02 : 0.01);
  const auto threads = flags.get_count("threads", 1);
  const std::size_t depth = flags.get_bool("pipeline") ? 2 : 1;
  const auto repeat = std::max<std::size_t>(1, flags.get_count("repeat", 1));
  const bool scale_fast = flags.get_bool("scale-fast");
  const bool scale = flags.get_bool("scale") || scale_fast;
  const std::string json_path = artifact_path(
      flags,
      flags.get("json", proto ? "./BENCH_msgmaint.json" : "BENCH_churn.json"));
  const std::string scale_json_path =
      flags.get("scale-json", "BENCH_scale.json");

  Bench bench;
  bench.trace_path = flags.get("trace-out", "");
  bench.journal_path = flags.get("journal-out", "");
  exp::ChurnConfig base;
  base.engine = engine;
  base.seed = seed;

  std::printf("manetcast :: churn_maintenance — %s engine\n",
              engine_flag.c_str());
  print_header(engine);

  if (!proto) {
    // Matrix: the engine against the rebuild baseline.
    std::vector<std::size_t> sizes{100, 500, 1000, 2000};
    if (fast) sizes.resize(2);
    for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                             exp::ChurnConfig::Model::kRandomDirection}) {
      for (const std::size_t n : sizes) {
        for (const double degree : {6.0, 18.0}) {
          // The dense setting is only interesting at the paper's scale.
          if (degree == 18.0 && n > 500) continue;
          exp::ChurnConfig config = base;
          config.model = model;
          config.nodes = n;
          config.degree = degree;
          config.ticks = ticks;
          config.move_fraction = move_frac;
          config.threads = threads;
          config.pipeline_depth = depth;
          print_row(bench.run(config, "matrix"));
        }
      }
    }
    if (threads > 1) {
      // One lane vs k lanes vs pipelined at the matrix's largest size.
      // Churn stays at the matrix's 1%: at 5% the staged nodes' painted
      // blocks chain into a single region almost every tick and the
      // region fan-out never engages, making the comparison vacuous.
      exp::ChurnConfig config = base;
      config.nodes = sizes.back();
      config.ticks = ticks;
      config.move_fraction = move_frac;
      config.rebuild_baseline = false;
      const std::size_t largest[] = {sizes.back()};
      const Variant variants[] = {{1, 1}, {threads, 1}, {threads, 2}};
      bench.sweep(
          "parallel", largest, [&](std::size_t) { return config; },
          [&](std::size_t) { return std::span<const Variant>(variants); },
          1);
    }
  } else {
    // Oracle soak: every model x mode, oracle + crosscheck + burst.
    for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                             exp::ChurnConfig::Model::kRandomDirection}) {
      for (const auto mode : {core::CoverageMode::kTwoPointFiveHop,
                              core::CoverageMode::kThreeHop}) {
        exp::ChurnConfig config = base;
        config.nodes = 120;
        config.ticks = ticks;
        config.move_fraction = move_frac;
        config.model = model;
        config.mode = mode;
        config.connect_attempts = 5;
        config.threads = 0;
        config.rebuild_baseline = false;
        config.crosscheck = true;
        config.oracle_check = true;
        config.burst_fraction = 0.3;
        print_row(bench.run(config, "soak"));
      }
    }
    std::printf("soak: %zu ticks per row, oracle diff + incremental "
                "crosscheck on every tick, 30%% move burst mid-run — all "
                "passed\n",
                ticks);
  }

  // The sweep: incr's scale rows, or proto's traffic or scale rows.
  if (scale || proto) {
    std::vector<std::size_t> sizes;
    if (proto && !scale)
      sizes = {200, 500, 1000, 2000};
    else if (scale_fast)
      sizes = {10000};
    else if (proto)
      sizes = {10000, 100000, 1000000, 10000000};
    else
      sizes = {100000, 300000, 1000000};
    const std::size_t sweep_ticks = scale ? (scale_fast ? 10 : 30)
                                          : (fast ? 40 : 100);
    // Every sweep row drops the rebuild baseline (an O(n) rebuild
    // interleaved with some rows would pollute their caches) and the
    // connectivity retries (hopeless at d=6 and these sizes). Scale rows
    // run the million-node configuration: streaming topology build and
    // cell-major labels. incr moves 0.5% of the nodes;
    // proto holds the absolute churn at 100 movers per tick, the
    // workload its O(changes) sharded tick is built for (a fixed
    // fraction at 1M paints nearly every cell), and places nodes cell by
    // cell so the 10M row starts inside its RSS budget.
    const auto config_of = [&](std::size_t n) {
      exp::ChurnConfig config = base;
      config.nodes = n;
      config.ticks = sweep_ticks;
      config.move_fraction =
          !scale ? move_frac
                 : (proto ? 100.0 / static_cast<double>(n) : 0.005);
      config.connect_attempts = 1;
      config.rebuild_baseline = false;
      if (scale) {
        config.streaming_build = true;
        config.cell_order = true;
        config.streaming_placement = proto;
      }
      return config;
    };

    if (scale) {
      // Verify at the smallest size, before the sweep, so the monotone
      // peak-RSS counter still reads per size. incr's variants include
      // the edge-list build, which must seed the same topology as the
      // streaming sweep; its cell_order stays off, so the stage checks
      // the engine on original labels while the sweep rows run cell-major
      // ones. proto's sequential loop (threads 0) and sharded runs must
      // also match metric for metric.
      exp::ChurnConfig verify_base = config_of(sizes.front());
      std::vector<Variant> variants;
      if (proto) {
        for (const std::size_t t :
             scale_fast ? std::vector<std::size_t>{0, threads}
                        : std::vector<std::size_t>{0, 1, 2, 8})
          variants.push_back({t, 1});
      } else {
        verify_base.cell_order = false;
        variants = {{1, 1}, {2, 1}, {8, 1}, {2, 2}, {8, 2}, {1, 1, true}};
      }
      bench.verify(verify_base, variants, proto);
    }

    // Variants per size. incr: threads {1, 2, 4} x depth {1, 2} below
    // 1M; the 1M row is the memory-audit row and stays one lane. proto:
    // a sequential baseline beside the sharded row below 1M (at 1M and
    // up a sequential tick costs O(n) for no extra information); the
    // traffic rows stay sequential.
    const auto variants_of = [&](std::size_t n) {
      if (!proto)
        return n >= 1000000
                   ? std::vector<Variant>{{1, 1}}
                   : std::vector<Variant>{{1, 1}, {2, 1}, {2, 2}, {4, 1},
                                          {4, 2}};
      if (!scale) return std::vector<Variant>{{0, 1}};
      std::vector<Variant> v;
      if (n < 1000000) v.push_back({0, 1});
      v.push_back({threads, 1});
      return v;
    };
    const std::vector<Record> rows =
        bench.sweep(scale ? "scale" : "traffic", sizes, config_of,
                    variants_of, repeat);

    if (scale) {
      RssBudget budget;
      if (proto) {
        budget.growth = 1.10;
        // A 10k-node process is dominated by fixed overhead, so the big
        // rows' budget would be vacuous there.
        if (scale_fast) budget.smoke = 3072.0;
      }
      bench.gates.rss = rss_gate(rows, budget);
    }
    if (proto) {
      bench.gates.traffic_o_n = traffic_gate(rows);
      bench.gates.wall_scaling = !scale || scaling_gate(rows);
    }
    if (scale && !proto)
      write_json(scale_json_path, "churn_maintenance --engine=incr --scale",
                 seed, bench.gates, rows, false);
  }

  if (std::thread::hardware_concurrency() <= 1)
    std::puts("WARNING: this host exposes a single hardware thread — "
              "threaded rows measured scheduling overhead, not parallel "
              "speedup (tagged throttled_host in the JSON)");
  write_json(json_path, "churn_maintenance --engine=" + engine_flag, seed,
             bench.gates, bench.records, true);
  std::printf("determinism %s, RSS %s\n",
              bench.gates.determinism ? "ok" : "FAILED",
              bench.gates.rss ? "ok" : "FAILED");
  return bench.gates.ok() ? 0 : 1;
}
