// Shared fixtures encoding the paper's worked examples.
//
// Figure 3 network, 0-indexed (our node k = paper node k+1):
//   heads: 0,1,2,3 (paper 1,2,3,4); members 4,5,6 -> cluster 0,
//   7 -> cluster 1, 8,9 -> cluster 2.
// The paper walks this network through CH_HOP1/CH_HOP2, the 2.5-hop
// coverage sets, the GATEWAY selections, both cluster graphs (Figure 4)
// and the SI/SD broadcast from source 1 (our 0) — all of which the core
// tests assert verbatim.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::testing {

/// Readable tag for sweep parameters — shown by gtest instead of a raw
/// byte dump when a parameterized expectation fails.
inline std::string param_tag(std::size_t nodes, double degree,
                             std::uint64_t seed,
                             const char* variant = nullptr) {
  std::ostringstream os;
  os << "n=" << nodes << " d=" << degree << " seed=" << seed;
  if (variant != nullptr) os << " [" << variant << "]";
  return os.str();
}

/// gtest predicate: a packed table row (a span) holds exactly the
/// entries of `want` (a span or a container), in order.
template <typename Row, typename Want>
::testing::AssertionResult same_row(const Row& got, const Want& want) {
  if (std::ranges::equal(got, want)) return ::testing::AssertionSuccess();
  auto failure = ::testing::AssertionFailure();
  failure << "row has " << std::size(got) << " entries, expected "
          << std::size(want);
  const auto [g, w] = std::ranges::mismatch(got, want);
  if (g != std::end(got) && w != std::end(want))
    failure << "; first difference at index " << (g - std::begin(got));
  return failure;
}

/// The 10-node network of the paper's Figure 3.
inline graph::Graph paper_figure3_network() {
  return graph::make_graph(10, {
      {0, 4}, {0, 5}, {0, 6},          // head 0 with members 4,5,6
      {1, 5}, {1, 7},                  // head 1: borders 5, member 7
      {2, 6}, {2, 7}, {2, 8}, {2, 9},  // head 2: borders 6,7; members 8,9
      {3, 8}, {3, 9},                  // head 3: borders 8,9
      {4, 8},                          // the 5-9 link of the paper
  });
}

/// The 3-node triangle of Figure 5 (redundancy discussion).
inline graph::Graph paper_figure5_triangle() {
  return graph::make_graph(3, {{0, 1}, {0, 2}, {1, 2}});
}

}  // namespace manet::testing
