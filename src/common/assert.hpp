// Contract-checking macros.
//
// MANET_REQUIRE validates preconditions on public API boundaries and is
// always on; it throws std::invalid_argument so tests can assert on misuse.
// MANET_ASSERT checks internal invariants; it throws std::logic_error and
// is on in every build.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace manet::detail {

[[noreturn]] inline void throw_require(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "requirement failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_assert(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

}  // namespace manet::detail

#define MANET_REQUIRE(expr, msg)                                        \
  do {                                                                  \
    if (!(expr))                                                        \
      ::manet::detail::throw_require(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

#define MANET_ASSERT(expr, msg)                                        \
  do {                                                                 \
    if (!(expr))                                                       \
      ::manet::detail::throw_assert(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
