// Ablation — what does each pruning rule of the dynamic broadcast buy?
//
// The SD-CDS broadcast has two pruning ingredients (paper §3): the
// piggybacked upstream coverage set (C(v) − C(u) − {u}) and the relay
// exclusion (− N(r)). This bench measures the mean forward-node count
// with each combination, from 'none' (every head covers its full
// coverage set) to 'both' (the paper's algorithm). The row computation
// lives in exp::run_pruning_ablation (unit-tested).
//
// Flags: --seed=<u64>, --reps=<int>.
#include <cstdio>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "exp/ablations.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 62));
  const auto reps = flags.get_count("reps", 50);

  std::puts("manetcast :: ablation — SD-CDS pruning rules");
  std::puts("(mean forward-node count per broadcast; 2.5-hop coverage)\n");

  const auto rows = exp::run_pruning_ablation(
      {20, 40, 60, 80, 100}, {6.0, 18.0}, reps, seed);

  TextTable table({"n", "d", "none", "piggyback", "relay", "both"});
  for (const auto& r : rows) {
    if (!r.all_delivered) {
      std::fprintf(stderr, "delivery failure at n=%zu d=%g!\n", r.nodes,
                   r.degree);
      return 1;
    }
    table.row({std::to_string(r.nodes), TextTable::num(r.degree, 0),
               TextTable::num(r.forward_none, 2),
               TextTable::num(r.forward_piggyback, 2),
               TextTable::num(r.forward_relay, 2),
               TextTable::num(r.forward_both, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: none >= piggyback/relay >= both; delivery stays "
            "100% in all variants.");
  return 0;
}
