// Golden-digest regression tests for every broadcast simulator.
//
// The protocol suites check delivery and forward-set sizes, which an
// equivalent rewrite and a subtly changed one both pass. These tests fold
// each result — forward-node set, every SD-CDS trace entry (sender,
// origin head, forward set), the per-node delivery flags and first-copy
// hop counts — into an FNV-1a digest over a fixed set of seeded unit-disk
// layouts and compare it with a pinned value. A simulator rewrite must
// reproduce its predecessor's results bit for bit to keep them green.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/dominant_pruning.hpp"
#include "broadcast/flooding.hpp"
#include "broadcast/forwarding_tree.hpp"
#include "broadcast/lossy.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/passive_clustering.hpp"
#include "broadcast/si_cds.hpp"
#include "broadcast/suppression.hpp"
#include "common/rng.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "net/protocol.hpp"

namespace manet {
namespace {

using core::state_hash_mix;
using core::state_hash_nodes;

constexpr std::uint64_t kDigestSeed = 14695981039346656037ULL;
constexpr std::array<core::CoverageMode, 2> kModes = {
    core::CoverageMode::kTwoPointFiveHop, core::CoverageMode::kThreeHop};

/// One seeded topology, with the clusterhead source and the member
/// source every protocol broadcasts from.
struct Layout {
  std::string name;
  graph::Graph g;
  std::array<NodeId, 2> sources{};
};

Layout random_layout(std::size_t n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(degree, n, cfg.width,
                                             cfg.height);
  Layout l;
  l.name = "n" + std::to_string(n) + "_d" +
           std::to_string(static_cast<int>(degree));
  l.g = geom::generate_unit_disk(cfg, rng).graph;
  return l;
}

/// Two halves of the square separated by a gap wider than the range, so
/// no broadcast can reach every node.
Layout disconnected_layout() {
  Rng rng(77);
  constexpr std::size_t kHalf = 150;
  const double range = geom::range_for_average_degree(10.0, 2 * kHalf,
                                                      100.0, 100.0);
  std::vector<geom::Point> pts;
  for (std::size_t i = 0; i < 2 * kHalf; ++i) {
    const double x0 = i < kHalf ? 0.0 : 50.0 + range;
    pts.push_back({rng.uniform(x0, x0 + 50.0 - range), rng.uniform(0, 100)});
  }
  Layout l;
  l.name = "split_n300";
  l.g = geom::unit_disk_graph(pts, range);
  return l;
}

/// The five layouts: n in {200, 2000} x degree in {6, 18}, plus one split
/// in two. Sources are a clusterhead near the middle of the head list and
/// the first non-head at or above n/2.
const std::vector<Layout>& layouts() {
  static const std::vector<Layout> all = [] {
    std::vector<Layout> out;
    out.push_back(random_layout(200, 6.0, 11));
    out.push_back(random_layout(200, 18.0, 12));
    out.push_back(random_layout(2000, 6.0, 13));
    out.push_back(random_layout(2000, 18.0, 14));
    out.push_back(disconnected_layout());
    for (Layout& l : out) {
      const auto c = cluster::lowest_id_clustering(l.g);
      l.sources[0] = c.heads[c.heads.size() / 2];
      NodeId member = static_cast<NodeId>(l.g.order() / 2);
      while (c.is_head(member)) ++member;
      l.sources[1] = member;
    }
    return out;
  }();
  return all;
}

std::uint64_t fold_flags(std::uint64_t h, const std::vector<char>& flags) {
  h = state_hash_mix(h, flags.size());
  for (const char f : flags)
    h = state_hash_mix(h, static_cast<std::uint8_t>(f));
  return h;
}

std::uint64_t fold_hops(std::uint64_t h,
                        const std::vector<std::uint32_t>& hops) {
  h = state_hash_mix(h, hops.size());
  for (const std::uint32_t x : hops) h = state_hash_mix(h, x);
  return h;
}

std::uint64_t fold(std::uint64_t h, const core::BroadcastResult& r) {
  h = state_hash_nodes(h, r.forward_nodes);
  h = state_hash_mix(h, r.trace.size());
  for (const core::Transmission& t : r.trace) {
    h = state_hash_mix(h, t.sender);
    h = state_hash_mix(h, t.origin_head);
    h = state_hash_nodes(h, r.forward_set(t));
  }
  h = fold_flags(h, r.received);
  h = fold_hops(h, r.first_copy_hops);
  return state_hash_mix(h, r.delivered_all ? 1 : 0);
}

std::uint64_t fold(std::uint64_t h, const broadcast::BroadcastStats& s) {
  h = state_hash_nodes(h, s.forward_nodes);
  h = state_hash_mix(h, s.transmissions);
  h = fold_flags(h, s.received);
  h = fold_hops(h, s.first_copy_hops);
  return state_hash_mix(h, s.delivered_all ? 1 : 0);
}

std::uint64_t fold(std::uint64_t h, const net::DistributedBroadcast& d) {
  h = state_hash_nodes(h, d.forward_nodes);
  h = fold_flags(h, d.received);
  h = state_hash_mix(h, d.data_messages);
  h = state_hash_mix(h, d.rounds);
  return state_hash_mix(h, d.delivered_all ? 1 : 0);
}

using Pinned = std::array<std::uint64_t, 5>;

/// Runs `digest(layout)` on every layout and compares it with the pinned
/// value at the same index.
template <class Digest>
void expect_golden(const Pinned& pinned, Digest&& digest) {
  const auto& all = layouts();
  ASSERT_EQ(all.size(), pinned.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(digest(all[i]), pinned[i]) << "layout " << all[i].name;
}

TEST(BroadcastGoldenTest, LayoutsMixConnectedAndSplitTopologies) {
  const auto& all = layouts();
  for (const Layout& l : all) {
    const auto c = cluster::lowest_id_clustering(l.g);
    EXPECT_TRUE(c.is_head(l.sources[0])) << l.name;
    EXPECT_FALSE(c.is_head(l.sources[1])) << l.name;
  }
  // The digests cover full delivery (both degree-18 layouts are
  // connected) and partial delivery (the split layout has two halves).
  EXPECT_TRUE(graph::is_connected(all[1].g));
  EXPECT_TRUE(graph::is_connected(all[3].g));
  EXPECT_EQ(graph::components(all.back().g).second, 2u);
}

TEST(BroadcastGoldenTest, DynamicBroadcastAllPruningOptions) {
  constexpr Pinned kPinned = {0x152d03db9a556ad5ULL, 0x90a27e9180df1a1dULL,
                              0xc37f7d868436409aULL, 0x89c03b80bdd3bff7ULL,
                              0xe1421bd8b643f2eaULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    for (const auto mode : kModes) {
      const auto bb = core::build_dynamic_backbone(l.g, mode);
      for (const bool piggyback : {true, false})
        for (const bool relay : {true, false})
          for (const NodeId source : l.sources)
            h = fold(h, core::dynamic_broadcast(l.g, bb, source,
                                                {piggyback, relay}));
    }
    return h;
  });
}

TEST(BroadcastGoldenTest, SiCdsBroadcast) {
  constexpr Pinned kPinned = {0xf8dcd8852d31e4f5ULL, 0x91d8ace64ecf4fabULL,
                              0x5c23835a85b5aabdULL, 0xcd6345512a478ad7ULL,
                              0x9915b78fdea42c1aULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    for (const auto mode : kModes) {
      const auto bb = core::build_static_backbone(l.g, mode);
      for (const NodeId source : l.sources)
        h = fold(h, broadcast::si_cds_broadcast(l.g, bb.cds, source));
    }
    return h;
  });
}

TEST(BroadcastGoldenTest, FloodingAndMpr) {
  constexpr Pinned kPinned = {0xc64764fa87e069a1ULL, 0xdb1ec7f55bbfdee5ULL,
                              0xb70949895d2be495ULL, 0x9dc450bef6774a05ULL,
                              0xa3071c746b1380adULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    const auto mpr = broadcast::compute_mpr_sets(l.g);
    for (const NodeId source : l.sources) {
      h = fold(h, broadcast::flood(l.g, source));
      h = fold(h, broadcast::mpr_broadcast(l.g, mpr, source));
    }
    return h;
  });
}

TEST(BroadcastGoldenTest, DominantPruning) {
  constexpr Pinned kPinned = {0x89c5faece7da26d5ULL, 0xdbb8855c8042a065ULL,
                              0x174fa3413c547402ULL, 0x68487a98a8937db7ULL,
                              0x9465a47a1d382b6fULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    for (const auto rule : {broadcast::PruningRule::kDominant,
                            broadcast::PruningRule::kPartialDominant})
      for (const NodeId source : l.sources)
        h = fold(h, broadcast::dominant_pruning_broadcast(l.g, source, rule));
    return h;
  });
}

TEST(BroadcastGoldenTest, PassiveClusteringAndForwardingTree) {
  constexpr Pinned kPinned = {0xd8fb71d3082dd115ULL, 0xc82b613969facec4ULL,
                              0xbb36d09b933b34b3ULL, 0x164aee2385016b48ULL,
                              0x9d23712cb05612f6ULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    // One session across both sources: the second broadcast runs on the
    // structure the first one formed.
    broadcast::PassiveClusteringSession session(l.g.order());
    for (const NodeId source : l.sources)
      h = fold(h, session.broadcast(l.g, source));
    const auto bb =
        core::build_static_backbone(l.g, core::CoverageMode::kThreeHop);
    for (const NodeId source : l.sources) {
      const auto tree = broadcast::build_forwarding_tree(
          l.g, bb.clustering, bb.tables, source);
      h = fold(h, broadcast::forwarding_tree_broadcast(l.g, tree, source));
    }
    return h;
  });
}

TEST(BroadcastGoldenTest, LossyAndSuppression) {
  constexpr Pinned kPinned = {0xa79e1e19a2bd2aa6ULL, 0x2d8527db8adef069ULL,
                              0x2b06e646389196faULL, 0xef41f1a39f0bf423ULL,
                              0xcfa10ea5e7f25a30ULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    const auto bb =
        core::build_static_backbone(l.g, core::CoverageMode::kTwoPointFiveHop);
    const auto mpr = broadcast::compute_mpr_sets(l.g);
    const broadcast::LossModel model{0.2};
    for (const NodeId source : l.sources) {
      Rng rng(source);
      h = fold(h, broadcast::flood_lossy(l.g, source, model, rng));
      h = fold(h, broadcast::si_cds_broadcast_lossy(l.g, bb.cds, source,
                                                    model, rng));
      h = fold(h,
               broadcast::mpr_broadcast_lossy(l.g, mpr, source, model, rng));
      for (const bool piggyback : {false, true})
        h = fold(h, broadcast::suppression_flood(l.g, source, {4, piggyback},
                                                 rng));
    }
    return h;
  });
}

TEST(BroadcastGoldenTest, DistributedSdCdsBroadcast) {
  constexpr Pinned kPinned = {0x9975ff47210211a6ULL, 0xc6e0311e361e3597ULL,
                              0xe0bec4d29308e36fULL, 0x186c855078039fadULL,
                              0x0b5c87af6a75deb0ULL};
  expect_golden(kPinned, [](const Layout& l) {
    std::uint64_t h = kDigestSeed;
    for (const NodeId source : l.sources)
      h = fold(h, net::run_distributed_broadcast(
                      l.g, core::CoverageMode::kTwoPointFiveHop, source));
    return h;
  });
}

}  // namespace
}  // namespace manet
