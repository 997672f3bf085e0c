// Unit + property tests for the SD-CDS dynamic broadcast (Theorem 2 and
// the paper's §3 illustration).
#include "core/dynamic_broadcast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "broadcast/si_cds.hpp"
#include "common/rng.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "incr/pipeline.hpp"
#include "paper_fixtures.hpp"
#include "proto/engine.hpp"

namespace manet::core {
namespace {

/// F(origin) riding on `t`, as a set.
NodeSet forward_set_of(const BroadcastResult& r, const Transmission& t) {
  const auto f = r.forward_set(t);
  return {f.begin(), f.end()};
}

class Figure3Dynamic : public ::testing::Test {
 protected:
  graph::Graph g_ = testing::paper_figure3_network();
  StaticBackbone bb_ =
      build_static_backbone(g_, CoverageMode::kTwoPointFiveHop);
};

TEST_F(Figure3Dynamic, PaperIllustrationSevenForwardNodes) {
  // Paper §3 illustration, source = clusterhead 1 (ours 0): "In total, 7
  // nodes (nodes 1, 2, 3, 4, 6, 7 and 9) will forward the packets."
  const auto r = dynamic_broadcast(g_, bb_, 0);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_EQ(r.forward_nodes, (NodeSet{0, 1, 2, 3, 5, 6, 8}));
  EXPECT_EQ(r.forward_count(), 7u);
}

TEST_F(Figure3Dynamic, SourceSelectionMatchesPaper) {
  // F(1) = {6,7} (ours {5,6}) rides on the source head's transmission.
  const auto r = dynamic_broadcast(g_, bb_, 0);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace[0].sender, 0u);
  EXPECT_EQ(r.trace[0].origin_head, 0u);
  EXPECT_EQ(forward_set_of(r, r.trace[0]), (NodeSet{5, 6}));
}

TEST_F(Figure3Dynamic, Head3SelectsOnlyNode9) {
  // Paper: clusterhead 3 (ours 2) prunes C(3) down to {4} and selects
  // only node 9 (ours 8): F(3) = {9}.
  const auto r = dynamic_broadcast(g_, bb_, 0);
  for (const auto& t : r.trace) {
    if (t.sender == 2u && t.origin_head == 2u) {
      EXPECT_EQ(forward_set_of(r, t), (NodeSet{8}));
    }
  }
}

TEST_F(Figure3Dynamic, DynamicBeatsStaticOnThePaperExample) {
  // Static backbone broadcast uses all 9 backbone nodes; dynamic uses 7.
  const auto st = build_static_backbone(g_, CoverageMode::kTwoPointFiveHop);
  const auto r = dynamic_broadcast(g_, bb_, 0);
  EXPECT_EQ(st.cds.size(), 9u);
  EXPECT_LT(r.forward_count(), st.cds.size());
}

TEST_F(Figure3Dynamic, NonHeadSourceHandsOffToItsHead) {
  // Source 9 (paper 10) is a member of cluster 2: its transmission plus
  // its head's processing must still flood the network.
  const auto r = dynamic_broadcast(g_, bb_, 9);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_TRUE(contains_sorted(r.forward_nodes, 9));
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace[0].sender, 9u);
  EXPECT_EQ(r.trace[0].origin_head, kInvalidNode);
}

TEST_F(Figure3Dynamic, EveryHeadForwardsExactlyOnce) {
  const auto r = dynamic_broadcast(g_, bb_, 0);
  for (NodeId h : bb_.clustering.heads) {
    int count = 0;
    for (const auto& t : r.trace)
      if (t.sender == h) ++count;
    EXPECT_EQ(count, 1) << "head " << h;
  }
}

TEST_F(Figure3Dynamic, PruningOffForwardsMore) {
  DynamicBroadcastOptions off;
  off.piggyback_pruning = false;
  off.relay_exclusion = false;
  const auto pruned = dynamic_broadcast(g_, bb_, 0);
  const auto unpruned = dynamic_broadcast(g_, bb_, 0, off);
  EXPECT_TRUE(unpruned.delivered_all);
  EXPECT_GE(unpruned.forward_count(), pruned.forward_count());
}

TEST_F(Figure3Dynamic, RejectsBadSource) {
  EXPECT_THROW(dynamic_broadcast(g_, bb_, 10), std::invalid_argument);
}

TEST(DynamicEdgeCases, SingletonNetwork) {
  const auto g = graph::GraphBuilder(1).build();
  const auto bb = build_static_backbone(g, CoverageMode::kThreeHop);
  const auto r = dynamic_broadcast(g, bb, 0);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_EQ(r.forward_nodes, (NodeSet{0}));
}

TEST(DynamicEdgeCases, TriangleOfFigure5) {
  // Figure 5: three mutually adjacent nodes. One cluster, head 0; a
  // broadcast from any node needs at most the source + head.
  const auto g = testing::paper_figure5_triangle();
  const auto bb = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  const auto from_head = dynamic_broadcast(g, bb, 0);
  EXPECT_TRUE(from_head.delivered_all);
  EXPECT_EQ(from_head.forward_count(), 1u);
  const auto from_member = dynamic_broadcast(g, bb, 2);
  EXPECT_TRUE(from_member.delivered_all);
  EXPECT_EQ(from_member.forward_count(), 2u);  // source + its head
}

TEST(DynamicEdgeCases, RejectsBackboneOfAnotherSize) {
  const auto g = graph::make_path(9);
  auto truncated = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  truncated.coverage.resize(1);
  EXPECT_THROW(dynamic_broadcast(g, truncated, 0), std::invalid_argument);

  const auto small = graph::make_path(5);
  auto mixed = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  mixed.tables =
      build_neighbor_tables(small, cluster::lowest_id_clustering(small),
                            CoverageMode::kTwoPointFiveHop);
  EXPECT_THROW(dynamic_broadcast(g, mixed, 0), std::invalid_argument);
}

TEST(DynamicEdgeCases, RejectsViewOfAnotherSize) {
  // The view entry checks only the clustering's size against the
  // adjacency's order.
  const auto g = graph::make_path(9);
  const auto small = build_static_backbone(graph::make_path(5),
                                           CoverageMode::kTwoPointFiveHop);
  EXPECT_THROW(dynamic_broadcast(g, BackboneRef(small), 0),
               std::invalid_argument);
  const auto fits = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  EXPECT_TRUE(dynamic_broadcast(g, BackboneRef(fits), 0).delivered_all);
}

TEST(DynamicEdgeCases, PathBroadcastReachesBothEnds) {
  const auto g = graph::make_path(9);
  const auto bb = build_static_backbone(g, CoverageMode::kTwoPointFiveHop);
  for (NodeId s = 0; s < 9; ++s) {
    const auto r = dynamic_broadcast(g, bb, s);
    EXPECT_TRUE(r.delivered_all) << "source " << s;
  }
}

// ---- Property sweep: delivery + dynamic <= static (Figure 8 shape) -----

struct DynParam {
  std::size_t nodes;
  double degree;
  std::uint64_t seed;
  CoverageMode mode;

  friend std::ostream& operator<<(std::ostream& os, const DynParam& p) {
    return os << testing::param_tag(p.nodes, p.degree, p.seed,
                                    core::to_string(p.mode));
  }
};

class DynamicSweep : public ::testing::TestWithParam<DynParam> {};

/// The trace rules of a broadcast that reached every head: each head
/// transmits once, as its own origin; a relay carries its origin head's
/// stored forward set, is named in it, and relays for that origin once;
/// the heads' forward sets fill forward_sets exactly; and the forward-node
/// set is the sorted distinct senders.
void expect_relay_invariants(const StaticBackbone& bb,
                             const BroadcastResult& r) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const cluster::Clustering& c = bb.clustering;
  std::vector<std::size_t> head_entry(c.head_of.size(), kNone);
  std::size_t head_forward_total = 0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const Transmission& t = r.trace[i];
    if (!c.is_head(t.sender)) continue;
    EXPECT_EQ(head_entry[t.sender], kNone) << "head " << t.sender;
    head_entry[t.sender] = i;
    EXPECT_EQ(t.origin_head, t.sender);
    head_forward_total += t.forward_size;
  }
  for (NodeId h : c.heads) EXPECT_NE(head_entry[h], kNone) << "head " << h;
  EXPECT_EQ(head_forward_total, r.forward_sets.size());

  std::set<std::pair<NodeId, NodeId>> pairs;  // (origin, sender)
  NodeSet senders;
  for (const Transmission& t : r.trace) {
    EXPECT_TRUE(pairs.insert({t.origin_head, t.sender}).second)
        << "origin " << t.origin_head << " sender " << t.sender;
    senders.push_back(t.sender);
    if (c.is_head(t.sender)) continue;
    if (t.origin_head == kInvalidNode) {  // the non-head source's handoff
      EXPECT_EQ(t.forward_size, 0u);
      continue;
    }
    ASSERT_LT(t.origin_head, head_entry.size());
    ASSERT_NE(head_entry[t.origin_head], kNone) << "origin " << t.origin_head;
    const Transmission& own = r.trace[head_entry[t.origin_head]];
    EXPECT_EQ(t.forward_begin, own.forward_begin) << "sender " << t.sender;
    EXPECT_EQ(t.forward_size, own.forward_size) << "sender " << t.sender;
    const auto f = r.forward_set(t);
    EXPECT_TRUE(std::binary_search(f.begin(), f.end(), t.sender))
        << "sender " << t.sender;
  }
  normalize(senders);
  EXPECT_EQ(r.forward_nodes, senders);
}

TEST_P(DynamicSweep, FullDeliveryFromEverySource) {
  const auto [n, d, seed, mode] = GetParam();
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto bb = build_static_backbone(net->graph, mode);
  for (NodeId s = 0; s < net->graph.order(); ++s) {
    const auto r = dynamic_broadcast(net->graph, bb, s);
    ASSERT_TRUE(r.delivered_all) << "source " << s;
    // All heads forward; forward count at least covers the heads.
    EXPECT_GE(r.forward_count(), bb.clustering.heads.size());
    SCOPED_TRACE(::testing::Message() << "source " << s);
    expect_relay_invariants(bb, r);
  }
}

TEST_P(DynamicSweep, PruningVariantsAllDeliver) {
  const auto [n, d, seed, mode] = GetParam();
  Rng rng(seed + 1000);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto bb = build_static_backbone(net->graph, mode);
  for (int variant = 0; variant < 4; ++variant) {
    DynamicBroadcastOptions opt;
    opt.piggyback_pruning = (variant & 1) != 0;
    opt.relay_exclusion = (variant & 2) != 0;
    const auto r = dynamic_broadcast(net->graph, bb, 0, opt);
    EXPECT_TRUE(r.delivered_all) << "variant " << variant;
  }
}

TEST_P(DynamicSweep, DynamicForwardSetWithinStaticBackbonePlusSource) {
  // Dynamic gateways are drawn per-broadcast, so the forward set is not
  // literally a subset of the static CDS, but its *size* must not exceed
  // the static broadcast's forward count (Figure 8's claim), modulo the
  // non-head source handoff (+1).
  const auto [n, d, seed, mode] = GetParam();
  Rng rng(seed + 2000);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng);
  ASSERT_TRUE(net.has_value());
  const auto c = cluster::lowest_id_clustering(net->graph);
  const auto st = build_static_backbone(net->graph, c, mode);
  Rng pick(seed);
  for (int i = 0; i < 5; ++i) {
    const auto s = static_cast<NodeId>(pick.index(net->graph.order()));
    const auto r = dynamic_broadcast(net->graph, st, s);
    EXPECT_LE(r.forward_count(), st.cds.size() + 1) << "source " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomUnitDisk, DynamicSweep,
    ::testing::Values(
        DynParam{20, 6, 51, CoverageMode::kTwoPointFiveHop},
        DynParam{20, 6, 51, CoverageMode::kThreeHop},
        DynParam{40, 6, 52, CoverageMode::kTwoPointFiveHop},
        DynParam{40, 6, 52, CoverageMode::kThreeHop},
        DynParam{60, 18, 53, CoverageMode::kTwoPointFiveHop},
        DynParam{60, 18, 53, CoverageMode::kThreeHop},
        DynParam{80, 6, 54, CoverageMode::kTwoPointFiveHop},
        DynParam{80, 6, 54, CoverageMode::kThreeHop},
        DynParam{100, 18, 55, CoverageMode::kTwoPointFiveHop},
        DynParam{100, 18, 55, CoverageMode::kThreeHop},
        DynParam{100, 6, 56, CoverageMode::kTwoPointFiveHop},
        DynParam{100, 6, 56, CoverageMode::kThreeHop}));

// ---- Live views: broadcasting straight from a maintained engine --------

void expect_same_sd(const BroadcastResult& got, const BroadcastResult& want) {
  EXPECT_EQ(got.forward_nodes, want.forward_nodes);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i].sender, want.trace[i].sender) << i;
    EXPECT_EQ(got.trace[i].origin_head, want.trace[i].origin_head) << i;
    EXPECT_EQ(forward_set_of(got, got.trace[i]),
              forward_set_of(want, want.trace[i]))
        << i;
  }
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.first_copy_hops, want.first_copy_hops);
  EXPECT_EQ(got.delivered_all, want.delivered_all);
}

void expect_same_si(const broadcast::BroadcastStats& got,
                    const broadcast::BroadcastStats& want) {
  EXPECT_EQ(got.forward_nodes, want.forward_nodes);
  EXPECT_EQ(got.transmissions, want.transmissions);
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.first_copy_hops, want.first_copy_hops);
  EXPECT_EQ(got.delivered_all, want.delivered_all);
}

TEST(LiveViewBroadcast, MatchesSnapshotOfBothEnginesUnderChurn) {
  // Both engines follow the same moves. At each checkpoint, SD-CDS and
  // SI-CDS over each engine's live adjacency and view equal the same
  // broadcasts over the pipeline's frozen Graph and materialized
  // StaticBackbone.
  constexpr double kSide = 100.0;
  constexpr std::size_t kTicks = 24;
  Rng rng(4242);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 320;
  cfg.range = geom::range_for_average_degree(8.0, cfg.nodes, kSide, kSide);
  const auto net = geom::generate_unit_disk(cfg, rng);
  incr::PipelineOptions popts;
  popts.threads = 1;
  popts.pipeline_depth = 1;
  incr::IncrementalPipeline pipeline(net.positions, cfg.range, kSide, kSide,
                                     popts);
  proto::EngineOptions eopts;
  eopts.threads = 1;
  proto::MaintenanceEngine engine(net.positions, cfg.range, kSide, kSide,
                                  eopts);
  std::vector<geom::Point> pos = net.positions;
  for (std::size_t tick = 1; tick <= kTicks; ++tick) {
    for (int k = 0; k < 12; ++k) {
      const auto v = static_cast<NodeId>(rng.index(pos.size()));
      pos[v] = {std::clamp(pos[v].x + rng.uniform(-6.0, 6.0), 0.0, kSide),
                std::clamp(pos[v].y + rng.uniform(-6.0, 6.0), 0.0, kSide)};
      pipeline.stage_move(v, pos[v]);
      engine.stage_move(v, pos[v]);
    }
    pipeline.tick();
    engine.tick();
    if (tick % 4 != 0) continue;
    SCOPED_TRACE(::testing::Message() << "tick " << tick);

    const graph::Graph g = pipeline.freeze_graph();
    const StaticBackbone snapshot = pipeline.backbone().materialize();
    const cluster::Clustering& c = snapshot.clustering;
    auto member = static_cast<NodeId>(rng.index(g.order()));
    while (c.is_head(member))
      member = static_cast<NodeId>((member + 1) % g.order());
    const NodeId head = c.head_of[member];
    for (const NodeId s : {head, member}) {
      SCOPED_TRACE(::testing::Message() << "source " << s);
      const auto want_sd = dynamic_broadcast(g, snapshot, s);
      const auto want_si = broadcast::si_cds_broadcast(g, snapshot.cds, s);
      expect_same_sd(
          dynamic_broadcast(pipeline.adjacency(), pipeline.view(), s),
          want_sd);
      expect_same_sd(
          dynamic_broadcast(engine.tracker().adjacency(), engine.view(), s),
          want_sd);
      expect_same_si(broadcast::si_cds_broadcast(pipeline.adjacency(),
                                                 pipeline.view().cds(), s),
                     want_si);
      expect_same_si(broadcast::si_cds_broadcast(engine.tracker().adjacency(),
                                                 engine.view().cds(), s),
                     want_si);
    }
  }
}

}  // namespace
}  // namespace manet::core
