// Serialization for node layouts: one "x y" line per node, prefixed by
// the count, so generated unit-disk placements persist alongside their
// edge lists (graph/io.hpp).
#pragma once

#include <iosfwd>
#include <vector>

#include "geom/point.hpp"

namespace manet::geom {

/// Writes the count followed by one "x y" line per node, with enough
/// digits that read_positions returns the same doubles bit for bit.
void write_positions(std::ostream& out, const std::vector<Point>& positions);

/// Parses the write_positions format; throws std::invalid_argument on
/// truncated or malformed input.
std::vector<Point> read_positions(std::istream& in);

}  // namespace manet::geom
