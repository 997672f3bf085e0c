// Incremental vs full-rebuild maintenance cost under churn.
//
// Drives exp::run_churn over both mobility models (random waypoint and
// random direction) at n up to 2000 with ~1% of nodes moving per tick,
// and reports per-tick wall-clock of the incremental engine (src/incr)
// against the batch baseline (unit-disk graph + full LCC pass + full
// backbone rebuild). The acceptance gate for the engine is the waypoint
// n=2000, d=6 row: incremental must be >= 5x faster than the rebuild.
//
// Two extra sections ride on top of the matrix:
//  * --threads=<k> with k > 1 additionally runs a one-lane vs k-lane
//    comparison (waypoint, d=6, heavier churn) plus a pipelined
//    (depth-2) row, and cross-checks that all engines produced the same
//    final state hash;
//  * --scale (or --scale-fast) appends the 100k/300k/1M scaling sweep —
//    sparse cell index + streaming topology build + cell-major labels,
//    ascending sizes, no rebuild baseline, peak-RSS column — after a
//    verify stage that pins the sparse engine's state
//    hash at threads {1, 2, 8}, pipelined depth 2 at threads {2, 8},
//    against the dense sequential engine. Below 1M each size runs a
//    threads sweep {1, 2, 4} (each threaded row at depth 1 and at
//    depth 2) and reports wall-clock speedup against the same-size
//    threads=1 row.
//    The sweep feeds the O(n) memory audit in docs/PERFORMANCE.md and
//    the exit code gates the hash checks and the <= 1 KB/node RSS
//    budget of the largest row.
//
// Flags: --fast (fewer ticks, sizes capped at 500), --seed=<u64>,
//        --ticks=<k>, --move-frac=<f> (default 0.01),
//        --threads=<k> (default 1, engine lanes for every row),
//        --pipeline (tick pipelining depth 2 for every engine row),
//        --repeat=<k> (median-of-k scale rows; hashes must agree),
//        --scale / --scale-fast (scaling sweep; fast stops at 10k),
//        --json=<path> (default BENCH_churn.json under --out-dir,
//        default results/),
//        --scale-json=<path> (default BENCH_scale.json in the working
//        directory — intentionally NOT under results/, so the committed
//        top-level artifact tracks the perf trajectory across PRs),
//        --trace-out=<path> (Chrome-trace JSON of the last record's run;
//        open in Perfetto / chrome://tracing).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "exp/churn.hpp"
#include "obs/session.hpp"

namespace {

using namespace manet;

struct Record {
  exp::ChurnConfig config;
  exp::ChurnResult result;
  std::string metrics_json;  ///< obs registry snapshot of this run
  std::string section;       ///< "matrix" / "parallel" / "scale"
};

const char* grid_name(geom::GridIndex g) {
  switch (g) {
    case geom::GridIndex::kDense:
      return "dense";
    case geom::GridIndex::kSparse:
      return "sparse";
    default:
      return "auto";
  }
}

void write_json(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& [c, r, metrics, section] = records[i];
    out << "  {\"section\": \"" << section << "\", \"model\": \""
        << exp::model_name(c.model) << "\", \"n\": " << c.nodes
        << ", \"degree\": " << c.degree
        << ", \"move_fraction\": " << c.move_fraction
        << ", \"threads\": " << c.threads
        << ", \"pipeline_depth\": " << c.pipeline_depth
        << ", \"ticks\": " << r.ticks
        << ", \"grid\": \"" << grid_name(c.grid) << "\""
        << ", \"streaming\": " << (c.streaming_build ? "true" : "false")
        << ", \"connected\": " << (r.connected ? "true" : "false")
        << ", \"connect_attempts_used\": " << r.connect_attempts_used
        << ", \"incremental_ms_per_tick\": " << r.incremental_ms_per_tick
        << ", \"wall_ms_per_tick\": " << r.wall_ms_per_tick
        << ", \"rebuild_ms_per_tick\": " << r.rebuild_ms_per_tick
        << ", \"speedup\": " << r.speedup
        << ", \"mean_link_changes\": " << r.mean_link_changes
        << ", \"mean_head_changes\": " << r.mean_head_changes
        << ", \"mean_backbone_changes\": " << r.mean_backbone_changes
        << ", \"mean_rows_recomputed\": " << r.mean_rows_recomputed
        << ", \"mean_heads_reselected\": " << r.mean_heads_reselected
        << ", \"mean_regions\": " << r.mean_regions
        << ", \"state_hash\": \"" << std::hex << r.state_hash << std::dec
        << "\", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"metrics\": " << metrics << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

/// One line of the committed top-level perf-trajectory artifact.
struct ScaleRow {
  std::size_t n = 0;
  std::size_t threads = 0;
  std::size_t pipeline_depth = 1;
  std::size_t ticks = 0;
  std::size_t repeat = 1;
  double incr_ms_per_tick = 0.0;
  double wall_ms_per_tick = 0.0;
  /// Wall-clock speedup against the same-size threads=1 row (1.0 for
  /// that row itself). Honest multi-core number: ~1x on a single
  /// hardware thread no matter how many lanes are configured.
  double wall_speedup_vs_1t = 0.0;
  std::size_t peak_rss_bytes = 0;
  std::uint64_t state_hash = 0;
};

void write_scale_json(const std::string& path, std::uint64_t seed,
                      const std::vector<ScaleRow>& rows, bool verify_ok,
                      bool rss_ok) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"churn_maintenance --scale\",\n"
      << "  \"workload\": \"waypoint d=6, 0.5% movers, sparse grid + "
         "streaming build + cell-major labels\",\n"
      << "  \"seed\": " << seed << ",\n"
      // Threaded rows only mean something relative to the physical
      // parallelism of the host that produced the artifact.
      << "  \"host_hw_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"verify_threads_1_2_8_pipelined_and_dense_ok\": "
      << (verify_ok ? "true" : "false") << ",\n"
      << "  \"rss_budget_1kb_per_node_ok\": " << (rss_ok ? "true" : "false")
      << ",\n  \"rows\": [\n";
  // A threaded row produced on a single-hardware-thread host measured
  // scheduling overhead, not parallel speedup — tag it so downstream
  // trajectory tooling never compares it against a real multi-core row.
  const bool throttled = std::thread::hardware_concurrency() <= 1;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    const double ticks_per_s =
        r.wall_ms_per_tick > 0.0 ? 1000.0 / r.wall_ms_per_tick : 0.0;
    out << "    {\"n\": " << r.n << ", \"threads\": " << r.threads
        << ", \"pipeline_depth\": " << r.pipeline_depth
        << ", \"ticks\": " << r.ticks << ", \"repeat\": " << r.repeat;
    if (throttled && r.threads > 1) out << ", \"throttled_host\": true";
    out
        << ", \"incremental_ms_per_tick\": " << r.incr_ms_per_tick
        << ", \"wall_ms_per_tick\": " << r.wall_ms_per_tick
        << ", \"wall_speedup_vs_1t\": " << r.wall_speedup_vs_1t
        << ", \"ticks_per_s\": " << ticks_per_s
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"rss_bytes_per_node\": "
        << static_cast<double>(r.peak_rss_bytes) / static_cast<double>(r.n)
        << ", \"state_hash\": \"" << std::hex << r.state_hash << std::dec
        << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

exp::ChurnResult run_record(exp::ChurnConfig config,
                            std::vector<Record>& records,
                            const std::string& section,
                            const std::string& trace_path) {
  // A fresh session per record: each row's metrics block covers exactly
  // one run. --trace-out is rewritten every record, so the file ends up
  // holding the last run's trace.
  obs::Session session;
  config.obs = &session;
  const exp::ChurnResult r = exp::run_churn(config);
  records.push_back({config, r, session.registry.snapshot().to_json(),
                     section});
  if (!trace_path.empty()) session.trace.write_chrome_trace_file(trace_path);
  return r;
}

/// Median-of-k by wall clock: timings on a shared machine are noisy,
/// hashes are not — every repeat must land on the same state hash or
/// `stable` trips (and with it the bench's exit code). All repeats are
/// recorded; the caller publishes only the median row.
exp::ChurnResult run_repeated(const exp::ChurnConfig& config,
                              std::size_t repeat,
                              std::vector<Record>& records,
                              const std::string& section,
                              const std::string& trace_path, bool& stable) {
  std::vector<exp::ChurnResult> runs;
  runs.reserve(repeat);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, repeat); ++i) {
    runs.push_back(run_record(config, records, section, trace_path));
    stable = stable && runs.back().state_hash == runs.front().state_hash;
  }
  std::sort(runs.begin(), runs.end(),
            [](const exp::ChurnResult& a, const exp::ChurnResult& b) {
              return a.wall_ms_per_tick < b.wall_ms_per_tick;
            });
  return runs[runs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool fast = flags.get_bool("fast");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2003));
  const auto ticks =
      static_cast<std::size_t>(flags.get_int("ticks", fast ? 50 : 200));
  const double move_frac = flags.get_double("move-frac", 0.01);
  const auto threads =
      static_cast<std::size_t>(flags.get_int("threads", 1));
  const bool pipeline = flags.get_bool("pipeline");
  const std::size_t depth = pipeline ? 2 : 1;
  const auto repeat = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("repeat", 1)));
  const bool scale_fast = flags.get_bool("scale-fast");
  const bool scale = flags.get_bool("scale") || scale_fast;
  const std::string json_path =
      artifact_path(flags, flags.get("json", "BENCH_churn.json"));
  const std::string scale_json_path =
      flags.get("scale-json", "BENCH_scale.json");
  const std::string trace_path = flags.get("trace-out", "");

  std::vector<std::size_t> sizes{100, 500, 1000, 2000};
  if (fast) sizes.resize(2);

  std::puts(
      "manetcast :: churn_maintenance — incremental engine vs full rebuild");
  std::printf("%-10s %6s %4s %3s %10s %10s %8s %8s %8s %6s\n", "model", "n",
              "d", "thr", "incr_ms", "rebuild_ms", "speedup", "links/t",
              "rows/t", "reg/t");

  std::vector<Record> records;
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection}) {
    for (const std::size_t n : sizes) {
      for (const double degree : {6.0, 18.0}) {
        // The dense setting is only interesting at the paper's scale.
        if (degree == 18.0 && n > 500) continue;
        exp::ChurnConfig config;
        config.model = model;
        config.nodes = n;
        config.degree = degree;
        config.ticks = ticks;
        config.move_fraction = move_frac;
        config.seed = seed;
        config.threads = threads;
        config.pipeline_depth = depth;
        const exp::ChurnResult r =
            run_record(config, records, "matrix", trace_path);
        std::printf(
            "%-10s %6zu %4g %3zu %10.4f %10.4f %7.1fx %8.2f %8.1f %6.1f\n",
            exp::model_name(model).c_str(), n, degree, threads,
            r.incremental_ms_per_tick, r.rebuild_ms_per_tick, r.speedup,
            r.mean_link_changes, r.mean_rows_recomputed, r.mean_regions);
      }
    }
  }

  bool determinism_ok = true;
  if (threads > 1) {
    // One lane vs k lanes head-to-head at the matrix's largest size.
    // Churn stays at the matrix's 1%: at 5% the staged nodes' painted
    // blocks chain into a single region almost every tick and the
    // region fan-out never engages, making the comparison (and the
    // state-hash cross-check) vacuous.
    std::puts(
        "\nparallel repair — one lane vs k lanes vs pipelined "
        "(waypoint, d=6)");
    std::printf("%6s %3s %5s %10s %10s %8s %6s  %s\n", "n", "thr", "depth",
                "incr_ms", "wall_ms", "speedup", "reg/t", "state_hash");
    exp::ChurnConfig config;
    config.model = exp::ChurnConfig::Model::kWaypoint;
    config.nodes = sizes.back();
    config.degree = 6.0;
    config.ticks = ticks;
    config.move_fraction = move_frac;
    config.seed = seed;
    config.rebuild_baseline = false;
    config.threads = 1;
    const exp::ChurnResult seq =
        run_record(config, records, "parallel", trace_path);
    config.threads = threads;
    const exp::ChurnResult par =
        run_record(config, records, "parallel", trace_path);
    config.pipeline_depth = 2;
    const exp::ChurnResult piped =
        run_record(config, records, "parallel", trace_path);
    const auto row = [&](std::size_t thr, std::size_t d,
                         const exp::ChurnResult& r) {
      const double wall_speedup = r.wall_ms_per_tick > 0.0
                                      ? seq.wall_ms_per_tick /
                                            r.wall_ms_per_tick
                                      : 0.0;
      std::printf("%6zu %3zu %5zu %10.4f %10.4f %7.2fx %6.1f  %016llx\n",
                  config.nodes, thr, d, r.incremental_ms_per_tick,
                  r.wall_ms_per_tick, wall_speedup, r.mean_regions,
                  static_cast<unsigned long long>(r.state_hash));
    };
    row(1, 1, seq);
    row(threads, 1, par);
    row(threads, 2, piped);
    determinism_ok = seq.state_hash == par.state_hash &&
                     seq.state_hash == piped.state_hash;
    std::printf("state hashes %s\n",
                determinism_ok ? "identical — sharded and pipelined runs "
                                 "are bitwise equivalent"
                               : "DIVERGED — parallel engine bug");
  }

  bool rss_ok = true;
  if (scale) {
    // 100k–1M scaling sweep, all rows on the million-node configuration:
    // sparse cell index, streaming topology build, cell-major node
    // labels, 0.5% movers, one-shot topology generation (connectivity is
    // hopeless at d=6 and these sizes). Ascending sizes so the monotone
    // peak-RSS counter reads as a per-size peak; no rebuild baseline
    // anywhere in the sweep (at 1M a second full backbone would double
    // the audited footprint, and everywhere it would skew the threaded
    // wall-clock comparison — see the sweep loop).
    std::vector<std::size_t> scale_sizes{100000, 300000, 1000000};
    if (scale_fast) scale_sizes = {10000};
    const std::size_t scale_ticks = scale_fast ? 10 : 30;
    const auto scale_config = [&](std::size_t n) {
      exp::ChurnConfig config;
      config.model = exp::ChurnConfig::Model::kWaypoint;
      config.nodes = n;
      config.degree = 6.0;
      config.ticks = scale_ticks;
      config.move_fraction = 0.005;
      config.seed = seed;
      config.threads = threads;
      config.connect_attempts = 1;
      config.rebuild_every = std::max<std::size_t>(1, scale_ticks / 3);
      config.grid = geom::GridIndex::kSparse;
      config.streaming_build = true;
      config.cell_order = true;
      return config;
    };

    // Verify stage at the sweep's smallest size: the sparse engine must
    // land on one state hash at threads {1, 2, 8}, and that hash must
    // match the dense sequential engine on the same workload — the
    // head-to-head that proves sparse index + streaming build + sharded
    // settling change nothing but footprint and speed. cell_order stays
    // off here: the relabeling permutation depends on the chosen grid's
    // lattice (dense clamping coarsens it), so cross-mode hash
    // comparisons need the original labels on both sides.
    const std::size_t vn = scale_sizes.front();
    std::printf(
        "\nscale verify — sparse engine at threads {1,2,8}, pipelined "
        "at {2,8}, vs dense sequential (waypoint, d=6, n=%zu)\n",
        vn);
    std::printf("%7s %6s %3s %5s %10s  %s\n", "n", "grid", "thr", "depth",
                "incr_ms", "state_hash");
    std::uint64_t verify_hash = 0;
    // (threads, pipeline_depth) pairs; the depth-2 entries prove that
    // overlapping tick t+1's commit with tick t's repair lands on the
    // bit-identical state the synchronous engine reaches (DESIGN S31).
    const std::pair<std::size_t, std::size_t> verify_configs[] = {
        {1, 1}, {2, 1}, {8, 1}, {2, 2}, {8, 2}};
    for (const auto& [t, d] : verify_configs) {
      exp::ChurnConfig config = scale_config(vn);
      config.threads = t;
      config.pipeline_depth = d;
      config.rebuild_baseline = false;
      config.cell_order = false;
      const exp::ChurnResult r =
          run_record(config, records, "scale-verify", trace_path);
      if (t == 1 && d == 1) verify_hash = r.state_hash;
      determinism_ok = determinism_ok && r.state_hash == verify_hash;
      std::printf("%7zu %6s %3zu %5zu %10.4f  %016llx\n", vn, "sparse", t, d,
                  r.incremental_ms_per_tick,
                  static_cast<unsigned long long>(r.state_hash));
    }
    {
      exp::ChurnConfig config = scale_config(vn);
      config.threads = 1;
      config.rebuild_baseline = false;
      config.cell_order = false;
      config.grid = geom::GridIndex::kDense;
      config.streaming_build = false;
      const exp::ChurnResult r =
          run_record(config, records, "scale-verify", trace_path);
      determinism_ok = determinism_ok && r.state_hash == verify_hash;
      std::printf("%7zu %6s %3d %5d %10.4f  %016llx\n", vn, "dense", 1, 1,
                  r.incremental_ms_per_tick,
                  static_cast<unsigned long long>(r.state_hash));
    }
    std::printf("scale verify %s\n",
                determinism_ok
                    ? "passed — one hash across threads, pipelining and "
                      "cell indexes"
                    : "FAILED — hashes diverged");

    std::puts("\nscaling sweep — waypoint, d=6, 0.5% movers, sparse+stream");
    std::printf("%8s %3s %5s %10s %10s %8s %6s %9s %9s  %s\n", "n", "thr",
                "depth", "incr_ms", "wall_ms", "wall_spd", "reg/t", "rss_mb",
                "rss_b/n", "state_hash");
    std::vector<ScaleRow> scale_rows;
    for (const std::size_t n : scale_sizes) {
      // Threads dimension: every threaded size runs at depth 1 and at
      // depth 2, so the pair of rows separates lane fan-out from the
      // commit/repair overlap of pipelining. Every sweep row
      // drops the rebuild baseline — the rebuild-vs-incremental story
      // lives in the matrix section, and an O(n) rebuild interleaved
      // with only the threads=1 row would pollute its caches and fake a
      // multi-core speedup the threaded rows never earned. The 1M row
      // stays threads=1 — it is the memory-audit row, and RSS is
      // monotone per process, so a threaded rerun would contaminate the
      // reading.
      // (threads, pipeline_depth) rows of this size.
      std::vector<std::pair<std::size_t, std::size_t>> sweep{
          {1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}};
      if (n >= 1000000) sweep = {{1, 1}};
      double wall_1t = 0.0;
      std::uint64_t row_hash = 0;
      for (const auto& [t, d] : sweep) {
        exp::ChurnConfig config = scale_config(n);
        config.threads = t;
        config.rebuild_baseline = false;
        config.pipeline_depth = d;
        bool stable = true;
        const exp::ChurnResult r = run_repeated(config, repeat, records,
                                                "scale", trace_path, stable);
        determinism_ok = determinism_ok && stable;
        if (t == 1) {
          wall_1t = r.wall_ms_per_tick;
          row_hash = r.state_hash;
        } else {
          determinism_ok = determinism_ok && r.state_hash == row_hash;
        }
        const double wall_speedup =
            r.wall_ms_per_tick > 0.0 ? wall_1t / r.wall_ms_per_tick : 0.0;
        const double rss_per_node = static_cast<double>(r.peak_rss_bytes) /
                                    static_cast<double>(n);
        std::printf("%8zu %3zu %5zu %10.4f %10.4f %7.2fx %6.1f %9.1f "
                    "%9.0f  %016llx\n",
                    n, t, config.pipeline_depth, r.incremental_ms_per_tick,
                    r.wall_ms_per_tick, wall_speedup, r.mean_regions,
                    static_cast<double>(r.peak_rss_bytes) /
                        (1024.0 * 1024.0),
                    rss_per_node,
                    static_cast<unsigned long long>(r.state_hash));
        scale_rows.push_back({n, t, config.pipeline_depth, r.ticks, repeat,
                              r.incremental_ms_per_tick, r.wall_ms_per_tick,
                              wall_speedup, r.peak_rss_bytes, r.state_hash});
        // The memory-audit gate: the largest row must hold the O(n)
        // budget (RSS is monotone, so only the last reading is binding).
        if (n == scale_sizes.back() && t == 1 && n >= 1000000 &&
            rss_per_node > 1024.0)
          rss_ok = false;
      }
    }
    write_scale_json(scale_json_path, seed, scale_rows, determinism_ok,
                     rss_ok);
    std::printf("scale summary written to %s\n", scale_json_path.c_str());
    if (std::thread::hardware_concurrency() <= 1)
      std::puts(
          "\n*** WARNING: this host exposes a single hardware thread — the "
          "threaded sweep rows measured scheduler overhead, not parallel "
          "speedup. They are tagged \"throttled_host\" in the JSON; do not "
          "read their wall_speedup_vs_1t as engine performance. ***");
    if (!rss_ok)
      std::printf("RSS budget EXCEEDED: largest row above 1 KB/node\n");
  }

  write_json(json_path, records);
  std::printf("records written to %s\n", json_path.c_str());
  if (!trace_path.empty())
    std::printf("chrome trace (last record) written to %s\n",
                trace_path.c_str());
  return determinism_ok && rss_ok ? 0 : 1;
}
