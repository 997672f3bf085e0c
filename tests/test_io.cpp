// Tests for topology/layout serialization and the umbrella header.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "geom/layout_io.hpp"
#include "geom/unit_disk.hpp"
#include "graph/io.hpp"
#include "manet.hpp"  // umbrella header must compile standalone
#include "paper_fixtures.hpp"

namespace manet::graph {
namespace {

TEST(EdgeListIoTest, RoundTripsTheFigure3Network) {
  const auto g = testing::paper_figure3_network();
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const auto back = read_edge_list(buffer);
  EXPECT_EQ(back.order(), g.order());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(EdgeListIoTest, RoundTripsRandomTopologies) {
  Rng rng(31);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(8.0, 60, 100, 100);
  for (int i = 0; i < 5; ++i) {
    const auto net = geom::generate_unit_disk(cfg, rng);
    std::stringstream buffer;
    write_edge_list(buffer, net.graph);
    EXPECT_EQ(read_edge_list(buffer).edges(), net.graph.edges());
  }
}

TEST(EdgeListIoTest, EmptyGraphAndNoEdges) {
  std::stringstream buffer;
  write_edge_list(buffer, GraphBuilder(3).build());
  const auto g = read_edge_list(buffer);
  EXPECT_EQ(g.order(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(EdgeListIoTest, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(read_edge_list(empty), std::invalid_argument);
  std::stringstream out_of_range("3\n0 7\n");
  EXPECT_THROW(read_edge_list(out_of_range), std::invalid_argument);
  std::stringstream self_loop("3\n1 1\n");
  EXPECT_THROW(read_edge_list(self_loop), std::invalid_argument);
  // A dangling endpoint after the last full pair is truncated input.
  for (const std::string& text : {std::string("3\n0 1\n2"),
                                  std::string("3\n0 1 2")}) {
    std::stringstream dangling(text);
    EXPECT_THROW(read_edge_list(dangling), std::invalid_argument) << text;
  }
  // Orders above kMaxEdgeListOrder are refused before anything is sized
  // by them: SIZE_MAX (also what "-1" reads as) wraps order + 1 to zero,
  // and orders just inside the NodeId range would ask for 32 GiB.
  for (const std::string& order :
       {std::string("18446744073709551615"), std::string("-1"),
        std::string("4611686018427387904"), std::string("4294967296"),
        std::string("4294967295"), std::string("4294967294"),
        std::to_string(kMaxEdgeListOrder + 1)}) {
    std::stringstream huge(order + "\n");
    EXPECT_THROW(read_edge_list(huge), std::invalid_argument) << order;
  }
}

TEST(DotExportTest, ContainsNodesEdgesAndHighlights) {
  const auto g = make_graph(3, {{0, 1}, {1, 2}});
  DotOptions opts;
  opts.label = "demo";
  opts.highlight = {1};
  const auto dot = to_dot(g, opts);
  EXPECT_NE(dot.find("graph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
  EXPECT_NE(dot.find("n1 [style=filled"), std::string::npos);
  EXPECT_EQ(dot.find("n0 [style=filled"), std::string::npos);
}

}  // namespace
}  // namespace manet::graph

namespace manet::geom {
namespace {

TEST(LayoutIoTest, RoundTripsPositions) {
  // A reloaded layout is the same layout: every coordinate comes back
  // bit for bit, so it induces the same unit-disk graph. The generated
  // input has coordinates that need all 17 significant digits.
  Rng rng(41);
  UnitDiskConfig cfg;
  cfg.nodes = 20000;
  cfg.range = range_for_average_degree(6.0, cfg.nodes, cfg.width, cfg.height);
  const auto net = generate_unit_disk(cfg, rng);
  const std::vector<Point> short_pts{{1.5, 2.25}, {0, 0}, {99.875, 42.0}};
  for (const auto* pts : {&short_pts, &net.positions}) {
    SCOPED_TRACE(pts->size());
    std::stringstream buffer;
    write_positions(buffer, *pts);
    const auto back = read_positions(buffer);
    ASSERT_EQ(back.size(), pts->size());
    for (std::size_t i = 0; i < pts->size(); ++i) {
      ASSERT_EQ(back[i].x, (*pts)[i].x) << "node " << i;
      ASSERT_EQ(back[i].y, (*pts)[i].y) << "node " << i;
    }
    EXPECT_EQ(unit_disk_graph(back, cfg.range).edges(),
              unit_disk_graph(*pts, cfg.range).edges());
  }
  // The stream's own precision is left as it was.
  std::stringstream buffer;
  buffer.precision(3);
  write_positions(buffer, short_pts);
  EXPECT_EQ(buffer.precision(), 3);
}

TEST(LayoutIoTest, RejectsTruncatedInput) {
  std::stringstream truncated("3\n1.0 2.0\n");
  EXPECT_THROW(read_positions(truncated), std::invalid_argument);
  std::stringstream empty;
  EXPECT_THROW(read_positions(empty), std::invalid_argument);
  // Counts the input cannot back (2^62, SIZE_MAX) are truncated input
  // too, not an allocation failure.
  for (const char* header : {"4611686018427387904", "18446744073709551615"}) {
    std::stringstream huge(std::string(header) + "\n1 2\n");
    EXPECT_THROW(read_positions(huge), std::invalid_argument) << header;
  }
}

}  // namespace
}  // namespace manet::geom
