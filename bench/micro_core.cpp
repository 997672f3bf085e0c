// Google-benchmark microbenchmarks of the core kernels: clustering,
// neighbor tables, coverage, gateway selection, full static-backbone
// construction, one dynamic broadcast, and the distributed protocol run.
// These put numbers on the "linear time" analysis of §4.
#include <benchmark/benchmark.h>

#include "broadcast/si_cds.hpp"
#include "cluster/lowest_id.hpp"
#include "common/rng.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/mo_cds.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "net/protocol.hpp"

namespace {

using namespace manet;

geom::UnitDiskNetwork benchmark_network(std::size_t n, double d) {
  Rng rng(derive_seed(4242, n, static_cast<std::uint64_t>(d)));
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  auto net = geom::generate_connected_unit_disk(cfg, rng);
  if (!net) throw std::runtime_error("no connected topology");
  return std::move(*net);
}

void BM_LowestIdClustering(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(cluster::lowest_id_clustering(net.graph));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LowestIdClustering)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_NeighborTables(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  const auto c = cluster::lowest_id_clustering(net.graph);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_neighbor_tables(
        net.graph, c, core::CoverageMode::kTwoPointFiveHop));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NeighborTables)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_StaticBackbone(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_static_backbone(
        net.graph, core::CoverageMode::kTwoPointFiveHop));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StaticBackbone)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_MoCds(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_mo_cds(net.graph));
}
BENCHMARK(BM_MoCds)->Arg(128)->Arg(256);

void BM_DynamicBroadcast(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  const auto bb = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::dynamic_broadcast(net.graph, bb, 0));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicBroadcast)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_SiCdsBroadcast(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  const auto st = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        broadcast::si_cds_broadcast(net.graph, st.cds, 0));
}
BENCHMARK(BM_SiCdsBroadcast)->Arg(128)->Arg(512);

void BM_DistributedProtocol(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(net::run_distributed_backbone(
        net.graph, core::CoverageMode::kTwoPointFiveHop));
}
BENCHMARK(BM_DistributedProtocol)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
