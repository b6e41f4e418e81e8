// The O(N) range scan the spatial NeighborIndex replaced, kept as a test
// oracle: every other node whose exact distance at t is within range.
// tests/scale_test.cpp checks ChannelModel::neighbors_of, in_range and
// sample against it.  Its own namespace; never linked into rica_core.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "sim/time.hpp"

namespace rica::oracle {

/// The exact range decision: a and b are distinct and within `range_m` at t.
inline bool in_range(mobility::MobilityManager& mobility, std::uint32_t a,
                     std::uint32_t b, sim::Time t, double range_m) {
  return a != b && mobility.node_distance(a, b, t) <= range_m;
}

/// All nodes within `range_m` of `node` at time t, ascending by id.
inline std::vector<std::uint32_t> neighbors_of(
    mobility::MobilityManager& mobility, std::uint32_t node, sim::Time t,
    double range_m) {
  std::vector<std::uint32_t> out;
  const auto n = static_cast<std::uint32_t>(mobility.size());
  for (std::uint32_t other = 0; other < n; ++other) {
    if (in_range(mobility, node, other, t, range_m)) out.push_back(other);
  }
  return out;
}

}  // namespace rica::oracle
