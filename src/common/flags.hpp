// Tiny --key=value command-line parser for the bench and example mains
// (bench/micro_core alone uses google-benchmark's own flags).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace manet {

/// Parses `--key=value` / `--flag` arguments; anything else is positional.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// String value or `fallback` when the key is absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Integer value or `fallback`; throws std::invalid_argument naming
  /// the flag on non-ints and on values outside std::int64_t.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// A count or id: get_int that also throws std::invalid_argument
  /// naming the flag on a negative value.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;

  /// Real value or `fallback`; throws std::invalid_argument naming the
  /// flag on non-numbers and on values outside double's range.
  double get_double(const std::string& key, double fallback) const;

  /// True for a bare `--key`, `--key=true` or `--key=1`, false for
  /// `--key=false` or `--key=0`, `fallback` when the key is absent;
  /// throws std::invalid_argument naming the flag on any other value.
  bool get_bool(const std::string& key, bool fallback = false) const;

  bool has(const std::string& key) const;

  const std::string& positional(std::size_t i) const;
  std::size_t positional_count() const { return positional_.size(); }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace manet
