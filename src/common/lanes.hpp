// The upper bound on concurrent execution lanes.
#pragma once

#include <cstddef>

namespace manet {

/// Most lanes (threads, the caller's included) one incr::WorkerPool or
/// one parallel stats::replicate batch may run. The repo never asks for
/// more than 8, so a larger count is a bad flag value (`--threads=-1`
/// casts to SIZE_MAX) and is rejected before any thread starts.
inline constexpr std::size_t kMaxLanes = 256;

}  // namespace manet
