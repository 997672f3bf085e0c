// Unit tests for the packed row table behind CH_HOP1/CH_HOP2: in-place
// rewrites, appends, compaction under churn, aliasing assigns, copies and
// content equality — each checked against a vector-of-vectors reference.
#include "core/row_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "core/neighbor_tables.hpp"
#include "paper_fixtures.hpp"

namespace manet::core {
namespace {

using Rows = std::vector<NodeSet>;

/// Every row of `t` equals the reference row, and the live-entry count
/// and the slack bound hold.
void expect_rows(const RowTable<NodeId>& t, const Rows& want) {
  ASSERT_EQ(t.size(), want.size());
  std::size_t entries = 0;
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_TRUE(testing::same_row(t[v], want[v])) << "row " << v;
    entries += want[v].size();
  }
  EXPECT_EQ(t.entries(), entries);
  EXPECT_LE(t.stored(), entries + std::max(entries, t.size()));
}

TEST(RowTableTest, EmptyTableAndEmptyRows) {
  const RowTable<NodeId> none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.entries(), 0u);
  EXPECT_EQ(none.stored(), 0u);

  RowTable<NodeId> t(4);
  expect_rows(t, Rows(4));
  t.assign(2, NodeSet{});  // empty over empty: a no-op rewrite
  expect_rows(t, Rows(4));
  t.assign(1, NodeSet{7, 9});
  t.assign(1, NodeSet{});  // shrink a row to nothing
  expect_rows(t, Rows(4));
}

TEST(RowTableTest, RewriteWithSameShorterAndLongerRows) {
  RowTable<NodeId> t(3);
  Rows want(3);
  const auto put = [&](std::size_t v, NodeSet row) {
    t.assign(v, row);
    want[v] = std::move(row);
    expect_rows(t, want);
  };
  put(0, {1, 2, 3});
  put(1, {4});
  put(2, {5, 6});
  const std::size_t stored = t.stored();
  put(0, {7, 8, 9});  // same length: in place
  EXPECT_EQ(t.stored(), stored);
  put(0, {10});  // shorter: in place
  EXPECT_EQ(t.stored(), stored);
  put(1, {11, 12, 13, 14});  // longer: appended
  EXPECT_EQ(t.stored(), stored + 4);
  put(2, {15, 16});
}

TEST(RowTableTest, CompactionUnderChurnKeepsEveryRow) {
  // Growing rows one entry at a time leaves each old copy behind as dead
  // slack, so compaction must run many times over the loop; every row's
  // content survives each pass.
  Rng rng(41);
  RowTable<NodeId> t(64);
  Rows want(64);
  std::size_t compactions = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::size_t v = rng.index(want.size());
    NodeSet row = want[v];
    if (row.size() < 12 && rng.chance(0.7))
      row.push_back(static_cast<NodeId>(rng.index(1000)));
    else if (!row.empty())
      row.pop_back();
    const std::size_t before = t.stored();
    t.assign(v, row);
    if (t.stored() < before) ++compactions;
    want[v] = std::move(row);
    if (step % 97 == 0) expect_rows(t, want);
  }
  expect_rows(t, want);
  EXPECT_GT(compactions, 10u);
}

TEST(RowTableTest, AssignFromSameTable) {
  // The source span points into the table's own array, which the assign
  // may reallocate (append), compact, or overwrite (in place).
  RowTable<NodeId> t(3);
  t.assign(0, NodeSet{1, 2, 3, 4, 5});
  t.assign(1, NodeSet{6});
  t.assign(1, t[0]);  // longer: appended, maybe into a fresh array
  expect_rows(t, Rows{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {}});
  t.assign(0, t[0].subspan(2));  // overlapping shift within the row
  expect_rows(t, Rows{{3, 4, 5}, {1, 2, 3, 4, 5}, {}});
  t.assign(2, t[1]);
  t.assign(1, t[2].first(1));
  expect_rows(t, Rows{{3, 4, 5}, {1}, {1, 2, 3, 4, 5}});

  // Every append from a row of the same table, through growth and
  // compaction alike.
  RowTable<NodeId> grow(2);
  Rows want(2);
  grow.assign(0, NodeSet{1});
  want[0] = {1};
  for (NodeId k = 2; k < 200; ++k) {
    const std::size_t src = k % 2 == 0 ? 0 : 1;
    const std::size_t dst = 1 - src;
    NodeSet row = want[src];
    row.push_back(k);
    grow.assign(dst, grow[src]);
    want[dst] = want[src];
    grow.assign(dst, row);  // longer than the copy: an append
    want[dst] = row;
    expect_rows(grow, want);
  }
}

TEST(RowTableTest, CopiesAreIndependent) {
  RowTable<NodeId> a(3);
  a.assign(0, NodeSet{1, 2});
  a.assign(2, NodeSet{3});
  RowTable<NodeId> b = a;
  b.assign(0, NodeSet{9, 9, 9});
  b.assign(1, NodeSet{4});
  expect_rows(a, Rows{{1, 2}, {}, {3}});
  expect_rows(b, Rows{{9, 9, 9}, {4}, {3}});
  a.assign(2, NodeSet{});
  expect_rows(b, Rows{{9, 9, 9}, {4}, {3}});
  RowTable<NodeId> moved = std::move(b);
  expect_rows(moved, Rows{{9, 9, 9}, {4}, {3}});
}

TEST(RowTableTest, EqualityComparesRowsNotLayout) {
  // Same rows reached by different assign histories: different offsets,
  // slack and capacity, equal tables.
  RowTable<NodeId> packed(3);
  packed.assign(0, NodeSet{1, 2});
  packed.assign(1, NodeSet{3});
  RowTable<NodeId> churned(3);
  churned.assign(1, NodeSet{5, 6, 7});
  churned.assign(0, NodeSet{8});
  churned.assign(0, NodeSet{1, 2});
  churned.assign(1, NodeSet{3});
  EXPECT_NE(packed.stored(), churned.stored());
  EXPECT_TRUE(packed == churned);

  churned.assign(2, NodeSet{4});
  EXPECT_FALSE(packed == churned);
  EXPECT_FALSE(packed == RowTable<NodeId>(4));  // row count differs
  EXPECT_TRUE(RowTable<NodeId>(2) == RowTable<NodeId>(2));
}

TEST(RowTableTest, HoldsHop2Entries) {
  RowTable<Hop2Entry> t(2);
  const std::vector<Hop2Entry> row{{3, 7}, {5, 7}, {5, 8}};
  t.assign(1, row);
  EXPECT_TRUE(t[0].empty());
  EXPECT_TRUE(testing::same_row(t[1], row));
  t.assign(0, t[1].last(2));
  EXPECT_TRUE(testing::same_row(t[0], std::vector<Hop2Entry>{{5, 7}, {5, 8}}));
  EXPECT_EQ(t.entries(), 5u);
}

}  // namespace
}  // namespace manet::core
