// Distributed protocol trace — watch the paper's §3 construction happen
// message by message on the Figure 3 network (or a random one).
//
// Prints every transmission of the synchronous-round simulation: HELLO,
// CLUSTER_HEAD / NON_CLUSTER_HEAD, CH_HOP1, CH_HOP2 and the TTL-scoped
// GATEWAY flood, then the resulting clusters and backbone.
//
// Run:  ./distributed_trace            (paper Figure 3 network)
//       ./distributed_trace --random --nodes=20 --degree=6 --seed=3
//       ./distributed_trace --trace-out=trace.json   (Chrome-trace
//       export of the whole exchange — open in Perfetto; one track per
//       node, one millisecond per round)
#include <cstdio>
#include <sstream>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "geom/unit_disk.hpp"
#include "net/protocol.hpp"
#include "obs/session.hpp"

using namespace manet;

namespace {

graph::Graph paper_network() {
  return graph::make_graph(10, {
      {0, 4}, {0, 5}, {0, 6}, {1, 5}, {1, 7}, {2, 6}, {2, 7}, {2, 8},
      {2, 9}, {3, 8}, {3, 9}, {4, 8},
  });
}

std::string set_to_string(const NodeSet& s) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < s.size(); ++i) os << (i ? "," : "") << s[i];
  os << '}';
  return os.str();
}

std::string describe(const net::Message& m) {
  std::ostringstream os;
  if (std::holds_alternative<net::HelloMsg>(m.body)) {
    os << "HELLO";
  } else if (std::holds_alternative<net::ClusterHeadMsg>(m.body)) {
    os << "CLUSTER_HEAD";
  } else if (const auto* nch = std::get_if<net::NonClusterHeadMsg>(&m.body)) {
    os << "NON_CLUSTER_HEAD(head=" << nch->head << ")";
  } else if (const auto* h1 = std::get_if<net::ChHop1Msg>(&m.body)) {
    os << "CH_HOP1" << set_to_string(h1->heads);
  } else if (const auto* h2 = std::get_if<net::ChHop2Msg>(&m.body)) {
    os << "CH_HOP2{";
    for (std::size_t i = 0; i < h2->entries.size(); ++i)
      os << (i ? "," : "") << h2->entries[i].head << "["
         << h2->entries[i].via << "]";
    os << '}';
  } else if (const auto* gw = std::get_if<net::GatewayMsg>(&m.body)) {
    os << "GATEWAY(origin=" << gw->origin
       << ", selected=" << set_to_string(gw->selected)
       << ", ttl=" << static_cast<int>(gw->ttl) << ")";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto mode = flags.get("mode", "2.5") == "3"
                        ? core::CoverageMode::kThreeHop
                        : core::CoverageMode::kTwoPointFiveHop;

  graph::Graph g;
  if (flags.get_bool("random")) {
    const auto n = flags.get_count("nodes", 20);
    const double d = flags.get_double("degree", 6.0);
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 3)));
    geom::UnitDiskConfig cfg;
    cfg.nodes = n;
    cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
    const auto net = geom::generate_connected_unit_disk(cfg, rng);
    if (!net) {
      std::puts("could not generate a connected topology");
      return 1;
    }
    g = net->graph;
    std::printf("random topology: %zu nodes, %zu links\n\n", g.order(),
                g.edge_count());
  } else {
    g = paper_network();
    std::puts("paper Figure 3 network (0-indexed: our node k = paper k+1)\n");
  }

  net::Simulator sim(g, [mode, n = g.order()](NodeId v) {
    return std::make_unique<net::BackboneNode>(v, mode, n);
  });
  sim.set_observer([](std::uint32_t round, const net::Message& m) {
    std::printf("  [round %2u] node %2u -> %s\n", round, m.from,
                describe(m).c_str());
  });
  const std::string trace_path = flags.get("trace-out", "");
  obs::Session session;
  if (!trace_path.empty()) sim.set_obs(&session);
  const auto rounds = sim.run();

  std::printf("\nquiescent after %u rounds, %zu messages total\n", rounds,
              sim.counts().total());
  NodeSet heads, backbone;
  for (NodeId v = 0; v < g.order(); ++v) {
    const auto& node = dynamic_cast<const net::BackboneNode&>(sim.process(v));
    if (node.is_head()) heads.push_back(v);
    if (node.in_backbone()) backbone.push_back(v);
  }
  std::printf("clusterheads: %s\n", set_to_string(heads).c_str());
  for (NodeId h : heads) {
    const auto& node = dynamic_cast<const net::BackboneNode&>(sim.process(h));
    std::printf("  head %u: coverage C2=%s C3=%s, gateways %s\n", h,
                set_to_string(node.coverage().two_hop).c_str(),
                set_to_string(node.coverage().three_hop).c_str(),
                set_to_string(node.selection()).c_str());
  }
  std::printf("backbone (SI-CDS): %s\n", set_to_string(backbone).c_str());
  if (!trace_path.empty()) {
    session.trace.write_chrome_trace_file(trace_path, &session.journal);
    std::printf("chrome trace written to %s (open in Perfetto)\n",
                trace_path.c_str());
  }
  return 0;
}
