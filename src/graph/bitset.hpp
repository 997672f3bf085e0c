// Dense node-id bitset — the hot-path complement to the sorted NodeSet.
//
// NodeSet (a sorted-unique vector) is the canonical set representation in
// public interfaces, but building one with insert_sorted in a loop is
// O(k^2). The kernels that assemble large sets (coverage construction,
// gateway selection, greedy set cover) instead collect membership in a
// NodeBitset — O(1) insert/test, word-parallel union/intersection — and
// materialize a sorted NodeSet exactly once at the end.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"

namespace manet::graph {

/// Dynamic fixed-width bitset over node ids [0, universe). The width is
/// set at construction (or by the widest id passed to set(), which grows
/// the word array on demand), so callers that know n should pass it up
/// front to avoid reallocation.
class NodeBitset {
 public:
  NodeBitset() = default;

  /// Bitset able to hold ids [0, universe) without growing.
  explicit NodeBitset(std::size_t universe)
      : words_((universe + kWordBits - 1) / kWordBits, 0) {}

  /// Number of ids the current storage can hold without growing.
  std::size_t capacity() const { return words_.size() * kWordBits; }

  /// Inserts `v`, growing storage if needed. Returns true if newly set.
  bool set(NodeId v) {
    const std::size_t word = v / kWordBits;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t mask = std::uint64_t{1} << (v % kWordBits);
    const bool fresh = (words_[word] & mask) == 0;
    words_[word] |= mask;
    return fresh;
  }

  /// Removes `v` (no-op when absent). Returns true if it was present.
  bool reset(NodeId v) {
    const std::size_t word = v / kWordBits;
    if (word >= words_.size()) return false;
    const std::uint64_t mask = std::uint64_t{1} << (v % kWordBits);
    const bool present = (words_[word] & mask) != 0;
    words_[word] &= ~mask;
    return present;
  }

  /// True if `v` is in the set.
  bool test(NodeId v) const {
    const std::size_t word = v / kWordBits;
    return word < words_.size() &&
           (words_[word] >> (v % kWordBits)) & std::uint64_t{1};
  }

  /// Clears all bits, keeping capacity.
  void clear() { words_.assign(words_.size(), 0); }

  /// Word-parallel union: *this |= other.
  NodeBitset& operator|=(const NodeBitset& other);

  /// Word-parallel intersection: *this &= other.
  NodeBitset& operator&=(const NodeBitset& other);

  /// Word-parallel difference: *this &= ~other.
  NodeBitset& subtract(const NodeBitset& other);

  /// Number of set bits.
  std::size_t count() const;

  /// True if no bit is set.
  bool none() const;
  bool any() const { return !none(); }

  /// |*this & other| without materializing the intersection.
  std::size_t intersection_count(const NodeBitset& other) const;

  /// Calls `fn(NodeId)` for every set bit in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(static_cast<NodeId>(w * kWordBits + static_cast<std::size_t>(bit)));
        word &= word - 1;  // clear lowest set bit
      }
    }
  }

  /// Materializes the sorted-unique NodeSet in one pass.
  NodeSet to_node_set() const;

  friend bool operator==(const NodeBitset& a, const NodeBitset& b);

 private:
  static constexpr std::size_t kWordBits = 64;
  std::vector<std::uint64_t> words_;
};

}  // namespace manet::graph
