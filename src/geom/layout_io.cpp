#include "geom/layout_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace manet::geom {

void write_positions(std::ostream& out,
                     const std::vector<Point>& positions) {
  // Enough digits that every coordinate reads back bit for bit, so a
  // reloaded layout induces the same unit-disk graph.
  const auto precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << positions.size() << '\n';
  for (const auto& p : positions) out << p.x << ' ' << p.y << '\n';
  out.precision(precision);
}

std::vector<Point> read_positions(std::istream& in) {
  std::size_t count = 0;
  if (!(in >> count))
    throw std::invalid_argument("positions: missing count header");
  // Grow as points arrive, not by the header: a count the input cannot
  // back must fail as truncated input, not as an allocation.
  std::vector<Point> out;
  for (std::size_t i = 0; i < count; ++i) {
    Point p;
    if (!(in >> p.x >> p.y))
      throw std::invalid_argument("positions: truncated input");
    out.push_back(p);
  }
  return out;
}

}  // namespace manet::geom
