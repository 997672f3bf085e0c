// Times the generate -> cluster -> backbone -> replicate pipeline at
// n in {100, 500, 1000, 2000} and writes machine-readable records to
// BENCH_pipeline.json so future PRs have a perf trajectory to compare
// against. Also reports the spatial-grid vs O(n^2)-reference speedup of
// unit_disk_graph (the acceptance gate for the spatial-grid kernel).
//
// Benches per n:
//   * topology_grid_d{6,18}      — unit_disk_graph (spatial grid)
//   * topology_reference_d{6,18} — unit_disk_graph_reference (O(n^2) scan)
//   * coverage_build     — neighbor tables + all coverage sets
//   * static_backbone    — full SI-CDS construction
//   * replicate_full     — a fixed-count replicate of the whole pipeline
//                          (honors --threads)
//
// Flags: --fast (fewer timing reps, sizes capped at 1000),
//        --seed=<u64>, --json=<path> (default BENCH_pipeline.json under
//        --out-dir, default results/),
//        --threads=<k> for replicate_full (0 = hardware threads).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/coverage.hpp"
#include "core/static_backbone.hpp"
#include "exp/scenario.hpp"
#include "geom/unit_disk.hpp"
#include "stats/replicator.hpp"

namespace {

using namespace manet;

struct Record {
  std::string bench;
  std::size_t n;
  double mean_ms;
  std::size_t reps;
};

/// Mean wall-clock milliseconds of `reps` invocations of `fn`.
template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  double total = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = clock::now();
    fn();
    total += std::chrono::duration<double, std::milli>(clock::now() - start)
                 .count();
  }
  return total / static_cast<double>(reps);
}

std::vector<geom::Point> make_positions(std::size_t n, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0, n));
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  return pts;
}

void write_json(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"n\": " << r.n
        << ", \"mean_ms\": " << r.mean_ms << ", \"reps\": " << r.reps << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool fast = flags.get_bool("fast");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2003));
  const auto threads = flags.get_count("threads", 0);
  const std::string json_path =
      artifact_path(flags, flags.get("json", "BENCH_pipeline.json"));
  const std::size_t reps = fast ? 3 : 10;

  std::vector<std::size_t> sizes{100, 500, 1000, 2000};
  if (fast) sizes.pop_back();

  // Fixed average degree 18 (the paper's dense setting) keeps topologies
  // connected w.h.p. at every n, so the backbone stages stay comparable.
  const double degree = 18.0;

  std::vector<Record> records;
  std::puts("manetcast :: micro_pipeline — pipeline stage timings (ms)");
  std::printf("%-20s %6s %12s %6s\n", "bench", "n", "mean_ms", "reps");

  auto record = [&](const std::string& bench, std::size_t n, double ms,
                    std::size_t r) {
    records.push_back({bench, n, ms, r});
    std::printf("%-20s %6zu %12.3f %6zu\n", bench.c_str(), n, ms, r);
  };

  for (const std::size_t n : sizes) {
    const auto positions = make_positions(n, seed);

    // Topology construction at both paper densities (d = 6 common,
    // d = 18 highly dense): grid vs O(n^2) reference.
    // Topology benches are cheap, so triple the reps for tighter means.
    const std::size_t topo_reps = reps * 3;
    for (const double d : {6.0, 18.0}) {
      const double r = geom::range_for_average_degree(d, n, 100, 100);
      const std::string suffix = d == 6.0 ? "_d6" : "_d18";
      const double grid_ms = time_ms(
          topo_reps, [&] { (void)geom::unit_disk_graph(positions, r); });
      record("topology_grid" + suffix, n, grid_ms, topo_reps);
      const double ref_ms = time_ms(topo_reps, [&] {
        (void)geom::unit_disk_graph_reference(positions, r);
      });
      record("topology_reference" + suffix, n, ref_ms, topo_reps);
      if (ref_ms > 0.0 && grid_ms > 0.0)
        std::printf("  -> grid speedup at n=%zu, d=%g: %.1fx\n", n, d,
                    ref_ms / grid_ms);
    }

    const double range = geom::range_for_average_degree(degree, n, 100, 100);
    const auto g = geom::unit_disk_graph(positions, range);
    const auto c = cluster::lowest_id_clustering(g);
    record("coverage_build", n, time_ms(reps, [&] {
             const auto tables = core::build_neighbor_tables(
                 g, c, core::CoverageMode::kTwoPointFiveHop);
             (void)core::build_all_coverage(g, c, tables);
           }),
           reps);
    record("static_backbone", n, time_ms(reps, [&] {
             (void)core::build_static_backbone(
                 g, c, core::CoverageMode::kTwoPointFiveHop);
           }),
           reps);

    // Full replicate of the whole pipeline at a fixed replication count
    // (stopping rule pinned so every run times the same work).
    exp::PaperScenario scenario;
    scenario.sizes = {n};
    scenario.degrees = {degree};
    auto policy = exp::bench_policy(threads);
    policy.min_replications = fast ? 4 : 8;
    policy.max_replications = policy.min_replications;
    const exp::ScenarioPoint point{n, degree};
    record("replicate_full", n, time_ms(1, [&] {
             (void)stats::replicate(
                 policy, 1, [&](std::size_t rep, std::vector<double>& out) {
                   const auto net =
                       exp::make_network(scenario, point, seed, rep);
                   const auto cl = cluster::lowest_id_clustering(net.graph);
                   out.push_back(static_cast<double>(
                       core::build_static_backbone(
                           net.graph, cl, core::CoverageMode::kTwoPointFiveHop)
                           .cds.size()));
                 });
           }),
           1);
  }

  write_json(json_path, records);
  std::printf("records written to %s\n", json_path.c_str());
  return 0;
}
