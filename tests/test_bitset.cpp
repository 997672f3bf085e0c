// Unit tests for NodeBitset — the dense-set kernel behind coverage
// construction, gateway selection and the greedy set cover.
#include "graph/bitset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace manet::graph {
namespace {

/// A bitset over [0, universe) holding `members`.
NodeBitset bits_of(std::size_t universe, const NodeSet& members) {
  NodeBitset bs(universe);
  for (const NodeId v : members) bs.set(v);
  return bs;
}

TEST(NodeBitsetTest, SetTestResetBasics) {
  NodeBitset bs(100);
  EXPECT_TRUE(bs.none());
  EXPECT_TRUE(bs.set(5));
  EXPECT_FALSE(bs.set(5));  // already present
  EXPECT_TRUE(bs.set(63));
  EXPECT_TRUE(bs.set(64));  // word boundary
  EXPECT_TRUE(bs.test(5));
  EXPECT_TRUE(bs.test(63));
  EXPECT_TRUE(bs.test(64));
  EXPECT_FALSE(bs.test(6));
  EXPECT_EQ(bs.count(), 3u);
  EXPECT_TRUE(bs.any());
  EXPECT_TRUE(bs.reset(63));
  EXPECT_FALSE(bs.reset(63));  // already absent
  EXPECT_FALSE(bs.test(63));
  EXPECT_EQ(bs.count(), 2u);
}

TEST(NodeBitsetTest, GrowsOnDemand) {
  NodeBitset bs;  // zero capacity
  EXPECT_FALSE(bs.test(1000));
  EXPECT_TRUE(bs.set(1000));
  EXPECT_TRUE(bs.test(1000));
  EXPECT_GE(bs.capacity(), 1001u);
  EXPECT_FALSE(bs.test(999));
  EXPECT_FALSE(bs.reset(100000));  // out of capacity: no-op
}

TEST(NodeBitsetTest, MaterializesSortedUnique) {
  NodeBitset bs(200);
  for (NodeId v : {130u, 2u, 64u, 2u, 199u, 0u}) bs.set(v);
  EXPECT_EQ(bs.to_node_set(), (NodeSet{0, 2, 64, 130, 199}));
}

TEST(NodeBitsetTest, ForEachVisitsAscending) {
  NodeBitset bs(300);
  const NodeSet expected{1, 63, 64, 65, 128, 256};
  for (NodeId v : expected) bs.set(v);
  NodeSet seen;
  bs.for_each([&](NodeId v) { seen.push_back(v); });
  EXPECT_EQ(seen, expected);
}

TEST(NodeBitsetTest, SetAlgebra) {
  NodeBitset a = bits_of(200, {1, 5, 70, 130});
  const NodeBitset b = bits_of(200, {5, 70, 131});
  EXPECT_EQ(a.intersection_count(b), 2u);

  NodeBitset u = a;
  u |= b;
  EXPECT_EQ(u.to_node_set(), (NodeSet{1, 5, 70, 130, 131}));

  NodeBitset i = a;
  i &= b;
  EXPECT_EQ(i.to_node_set(), (NodeSet{5, 70}));

  NodeBitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.to_node_set(), (NodeSet{1, 130}));
}

TEST(NodeBitsetTest, EqualityIgnoresCapacity) {
  NodeBitset small = bits_of(10, {1, 3});
  NodeBitset large = bits_of(1000, {1, 3});
  EXPECT_EQ(small, large);
  large.set(999);
  EXPECT_FALSE(small == large);
}

TEST(NodeBitsetTest, MixedWidthAlgebraMatchesReference) {
  // Randomized ops against std::set ground truth, with operand widths
  // straddling word boundaries in both directions.
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::set<NodeId> ra, rb;
    NodeBitset a, b;
    for (int k = 0; k < 60; ++k) {
      const auto va = static_cast<NodeId>(rng.below(trial % 2 ? 500 : 90));
      const auto vb = static_cast<NodeId>(rng.below(trial % 2 ? 90 : 500));
      ra.insert(va);
      a.set(va);
      rb.insert(vb);
      b.set(vb);
    }
    std::set<NodeId> rint;
    for (NodeId v : ra)
      if (rb.count(v)) rint.insert(v);
    EXPECT_EQ(a.intersection_count(b), rint.size());
    EXPECT_EQ(a.count(), ra.size());

    NodeBitset u = a;
    u |= b;
    std::set<NodeId> runion = ra;
    runion.insert(rb.begin(), rb.end());
    EXPECT_EQ(u.to_node_set(), NodeSet(runion.begin(), runion.end()));

    NodeBitset i = a;
    i &= b;
    EXPECT_EQ(i.to_node_set(), NodeSet(rint.begin(), rint.end()));
  }
}

}  // namespace
}  // namespace manet::graph
