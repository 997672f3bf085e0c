// Empirical check of the paper's O(n) communication-complexity claim:
// run the *distributed* backbone construction (HELLO, clustering,
// CH_HOP1/CH_HOP2, GATEWAY) plus one distributed SD data broadcast, and
// report totals and per-node messages as n grows. Message-optimality
// shows as a flat per-node column. Row computation lives in
// exp::run_msg_complexity (unit-tested).
//
// Flags: --seed=<u64>, --reps=<int>.
#include <cstdio>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "exp/ablations.hpp"

using namespace manet;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 63));
  const auto reps = flags.get_count("reps", 25);

  std::puts("manetcast :: distributed construction message complexity");
  std::puts("(mean counts per topology; per-node totals should stay flat "
            "— the O(n) / message-optimality claim; 'data' = messages of "
            "one SD broadcast)\n");

  const auto rows = exp::run_msg_complexity(
      {20, 40, 60, 80, 100}, {6.0, 18.0}, reps, seed);

  TextTable table({"n", "d", "hello", "roles", "hop1", "hop2", "gateway",
                   "total", "msgs/node", "rounds", "data", "delivered",
                   "resets"});
  bool delivery_linear = true;
  for (const auto& r : rows) {
    table.row({std::to_string(r.nodes), TextTable::num(r.degree, 0),
               TextTable::num(r.hello, 1), TextTable::num(r.roles, 1),
               TextTable::num(r.ch_hop1, 1), TextTable::num(r.ch_hop2, 1),
               TextTable::num(r.gateway, 1),
               TextTable::num(r.construction_total, 1),
               TextTable::num(r.per_node, 2), TextTable::num(r.rounds, 1),
               TextTable::num(r.data, 1), TextTable::num(r.deliveries, 1),
               TextTable::num(r.inbox_resets, 1)});
    // Pointer-based delivery: every populated inbox was filled by at
    // least one delivered message and is reset exactly once, so resets
    // can never exceed deliveries. A per-(node, round) clearing or
    // copying regression breaks this immediately (resets would scale
    // with n * rounds instead of with the message volume).
    delivery_linear = delivery_linear && r.inbox_resets <= r.deliveries;
  }
  std::fputs(table.render().c_str(), stdout);
  if (!delivery_linear) {
    std::fputs("\nFAIL: inbox resets exceed deliveries — delivery cost is "
               "no longer O(messages)\n",
               stdout);
    return 1;
  }
  std::puts("\ndelivery-cost check: inbox resets <= deliveries on every "
            "row (O(messages) delivery)");
  return 0;
}
