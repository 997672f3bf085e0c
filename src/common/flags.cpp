#include "common/flags.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace manet {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::string Flags::get(const std::string& key,
                       const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  try {
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos == it->second.size()) return v;
  } catch (const std::logic_error&) {  // std::stoll's invalid/out_of_range
  }
  throw std::invalid_argument("--" + key + " expects an integer, got '" +
                              it->second + "'");
}

std::size_t Flags::get_count(const std::string& key,
                             std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::int64_t v = get_int(key, 0);
  if (v < 0)
    throw std::invalid_argument("--" + key + " expects a count >= 0, got '" +
                                get(key, "") + "'");
  return static_cast<std::size_t>(v);
}

double Flags::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  try {
    const double v = std::stod(it->second, &pos);
    if (pos == it->second.size()) return v;
  } catch (const std::logic_error&) {  // std::stod's invalid/out_of_range
  }
  throw std::invalid_argument("--" + key + " expects a number, got '" +
                              it->second + "'");
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("--" + key + " expects true/false or 1/0, got '" +
                              it->second + "'");
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

const std::string& Flags::positional(std::size_t i) const {
  MANET_REQUIRE(i < positional_.size(), "positional index out of range");
  return positional_[i];
}

}  // namespace manet
