// Integration tests: the message-driven distributed protocol must produce
// exactly the centralized pipeline's results, with O(n) messages.
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "paper_fixtures.hpp"

namespace manet::net {
namespace {

using core::CoverageMode;

TEST(NetProtocolTest, Figure3ClusteringEmerges) {
  const auto g = testing::paper_figure3_network();
  const auto run =
      run_distributed_backbone(g, CoverageMode::kTwoPointFiveHop);
  EXPECT_EQ(run.backbone.clustering.heads, (NodeSet{0, 1, 2, 3}));
  EXPECT_EQ(run.backbone.clustering.head_of[7], 1u);
  EXPECT_EQ(run.backbone.clustering.head_of[8], 2u);
}

TEST(NetProtocolTest, Figure3BackboneEmerges) {
  const auto g = testing::paper_figure3_network();
  const auto run =
      run_distributed_backbone(g, CoverageMode::kTwoPointFiveHop);
  // GATEWAY dissemination ends with the paper's backbone: nodes 1..9
  // (ours 0..8).
  EXPECT_EQ(run.flagged, (NodeSet{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(NetProtocolTest, Figure3MessageBreakdown) {
  const auto g = testing::paper_figure3_network();
  const auto run =
      run_distributed_backbone(g, CoverageMode::kTwoPointFiveHop);
  // One HELLO and one role announcement per node; one CH_HOP1 and one
  // CH_HOP2 per non-head.
  EXPECT_EQ(run.counts.hello, 10u);
  EXPECT_EQ(run.counts.cluster_head + run.counts.non_cluster_head, 10u);
  EXPECT_EQ(run.counts.cluster_head, 4u);
  EXPECT_EQ(run.counts.ch_hop1, 6u);
  EXPECT_EQ(run.counts.ch_hop2, 6u);
  // Each of the 4 heads announces gateways; selected nodes forward once
  // per origin with TTL left.
  EXPECT_GE(run.counts.gateway, 4u);
}

TEST(NetProtocolTest, SecondHopGatewayInformedViaTtlFlood) {
  // Head 0 and head 1 three hops apart (0-4-5-1): node 5 is a second-hop
  // gateway and can only learn its role from node 4's forwarded GATEWAY.
  const auto g = graph::make_graph(6, {{0, 4}, {4, 5}, {5, 1}});
  const auto run = run_distributed_backbone(g, CoverageMode::kThreeHop);
  EXPECT_TRUE(contains_sorted(run.flagged, 4));
  EXPECT_TRUE(contains_sorted(run.flagged, 5));
}

TEST(NetProtocolTest, IsolatedNodeIsItsOwnCluster) {
  const auto g = graph::GraphBuilder(1).build();
  const auto run = run_distributed_backbone(g, CoverageMode::kThreeHop);
  EXPECT_EQ(run.backbone.clustering.heads, (NodeSet{0}));
  EXPECT_EQ(run.flagged, (NodeSet{0}));
  EXPECT_EQ(run.counts.hello, 1u);
  EXPECT_EQ(run.counts.gateway, 0u);
}

TEST(NetProtocolTest, MonotoneChainTakesLinearRounds) {
  // The paper's worst case: a monotone-id chain clusters sequentially, so
  // rounds grow linearly with n.
  const auto g20 = graph::make_path(20);
  const auto g60 = graph::make_path(60);
  const auto r20 = run_distributed_backbone(g20, CoverageMode::kThreeHop);
  const auto r60 = run_distributed_backbone(g60, CoverageMode::kThreeHop);
  EXPECT_GT(r60.rounds, r20.rounds);
  EXPECT_GE(r60.rounds, 30u);  // ~n/2 sequential head decisions
}

// ---- Equivalence sweep: distributed == centralized ----------------------

struct NetParam {
  std::size_t nodes;
  double degree;
  std::uint64_t seed;
  CoverageMode mode;

  friend std::ostream& operator<<(std::ostream& os, const NetParam& p) {
    return os << testing::param_tag(p.nodes, p.degree, p.seed,
                                    core::to_string(p.mode));
  }
};

class DistributedEquivalence : public ::testing::TestWithParam<NetParam> {};

TEST_P(DistributedEquivalence, MatchesCentralizedPipeline) {
  const auto [n, d, seed, mode] = GetParam();
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto& g = net->graph;

  const auto run = run_distributed_backbone(g, mode);
  const auto reference = core::build_static_backbone(g, mode);

  // The nodes' state is the centralized backbone, field for field
  // (clustering with roles, tables, coverage, selections, gateway union,
  // CDS), and the GATEWAY floods flagged exactly its CDS.
  EXPECT_EQ(core::diff_backbones(core::BackboneRef(run.backbone),
                                 core::BackboneRef(reference)),
            "");
  EXPECT_EQ(run.flagged, reference.cds);

  // Message-optimality shape: a constant number of messages per node for
  // construction (HELLO + role + two table messages + gateway floods).
  EXPECT_LE(run.counts.total(), 8 * g.order());
}

INSTANTIATE_TEST_SUITE_P(
    RandomUnitDisk, DistributedEquivalence,
    ::testing::Values(
        NetParam{20, 6, 71, CoverageMode::kTwoPointFiveHop},
        NetParam{20, 6, 71, CoverageMode::kThreeHop},
        NetParam{40, 6, 72, CoverageMode::kTwoPointFiveHop},
        NetParam{40, 6, 72, CoverageMode::kThreeHop},
        NetParam{60, 18, 73, CoverageMode::kTwoPointFiveHop},
        NetParam{60, 18, 73, CoverageMode::kThreeHop},
        NetParam{80, 6, 74, CoverageMode::kTwoPointFiveHop},
        NetParam{80, 6, 74, CoverageMode::kThreeHop},
        NetParam{100, 18, 75, CoverageMode::kTwoPointFiveHop},
        NetParam{100, 18, 75, CoverageMode::kThreeHop},
        NetParam{100, 6, 76, CoverageMode::kTwoPointFiveHop},
        NetParam{100, 6, 76, CoverageMode::kThreeHop}));

TEST(SimulatorTest, LivelockGuardThrows) {
  // A process that transmits forever must trip the max_rounds guard.
  class Chatter final : public NodeProcess {
   public:
    void start(Mailbox& out) override { out.send(HelloMsg{}); }
    void on_round(std::uint32_t, Inbox, Mailbox& out) override {
      out.send(HelloMsg{});
    }
    bool done() const override { return false; }
  };
  const auto g = graph::make_path(2);
  Simulator sim(g, [](NodeId) { return std::make_unique<Chatter>(); });
  EXPECT_THROW(sim.run(50), std::runtime_error);
}

TEST(SimulatorTest, RejectsNullFactory) {
  const auto g = graph::make_path(2);
  EXPECT_THROW(Simulator(g, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace manet::net
