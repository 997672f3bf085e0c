#include "graph/bitset.hpp"

#include <algorithm>

namespace manet::graph {

NodeBitset& NodeBitset::operator|=(const NodeBitset& other) {
  if (other.words_.size() > words_.size())
    words_.resize(other.words_.size(), 0);
  for (std::size_t w = 0; w < other.words_.size(); ++w)
    words_[w] |= other.words_[w];
  return *this;
}

NodeBitset& NodeBitset::operator&=(const NodeBitset& other) {
  const std::size_t common = std::min(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < common; ++w) words_[w] &= other.words_[w];
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(common),
            words_.end(), 0);
  return *this;
}

NodeBitset& NodeBitset::subtract(const NodeBitset& other) {
  const std::size_t common = std::min(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < common; ++w) words_[w] &= ~other.words_[w];
  return *this;
}

std::size_t NodeBitset::count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool NodeBitset::none() const {
  for (std::uint64_t w : words_)
    if (w != 0) return false;
  return true;
}

std::size_t NodeBitset::intersection_count(const NodeBitset& other) const {
  const std::size_t common = std::min(words_.size(), other.words_.size());
  std::size_t total = 0;
  for (std::size_t w = 0; w < common; ++w)
    total += static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
  return total;
}

NodeSet NodeBitset::to_node_set() const {
  NodeSet out;
  out.reserve(count());
  for_each([&out](NodeId v) { out.push_back(v); });
  return out;
}

bool operator==(const NodeBitset& a, const NodeBitset& b) {
  const std::size_t common = std::min(a.words_.size(), b.words_.size());
  for (std::size_t w = 0; w < common; ++w)
    if (a.words_[w] != b.words_[w]) return false;
  for (std::size_t w = common; w < a.words_.size(); ++w)
    if (a.words_[w] != 0) return false;
  for (std::size_t w = common; w < b.words_.size(); ++w)
    if (b.words_[w] != 0) return false;
  return true;
}

}  // namespace manet::graph
