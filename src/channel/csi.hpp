// CSI classes and the ABICM throughput/hop-distance mapping (paper §II-A).
//
// The paper abstracts the adaptive coder/modulator (ABICM [5]) into four
// channel-state classes with effective throughputs 250/150/75/50 kbps.  The
// CSI-based "hop distance" of a link is the transmission-delay ratio versus
// a class-A link: 1, 1.67, 3.33 and 5 respectively.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace rica::channel {

/// Channel-state class after adaptive coding/modulation.
enum class CsiClass : std::uint8_t {
  A = 0,  ///< 250 kbps
  B = 1,  ///< 150 kbps
  C = 2,  ///< 75 kbps
  D = 3,  ///< 50 kbps
};

inline constexpr std::array<double, 4> kClassThroughputBps = {
    250'000.0, 150'000.0, 75'000.0, 50'000.0};

/// Effective link throughput for a class, bits/second.
[[nodiscard]] constexpr double throughput_bps(CsiClass c) {
  return kClassThroughputBps[static_cast<std::size_t>(c)];
}

/// CSI-based hop distances: the transmission-delay ratio of each class
/// relative to class A (250/250=1, 250/150=1.67, 250/75=3.33, 250/50=5).
/// Held as a table so that hot loops (link-state SPF relaxes ~15k edges per
/// run) read a constant instead of dividing.  IEEE division is correctly
/// rounded, so 5.0 / 3.0 is the same double as 250000.0 / 150000.0.
inline constexpr std::array<double, 4> kHopDistance = {1.0, 5.0 / 3.0,
                                                       10.0 / 3.0, 5.0};
static_assert(
    [] {
      for (std::size_t c = 0; c < kHopDistance.size(); ++c) {
        const double quotient = kClassThroughputBps[0] / kClassThroughputBps[c];
        if (kHopDistance[c] != quotient) return false;
      }
      return true;
    }(),
    "each hop distance is the class-A throughput over the class's");

[[nodiscard]] constexpr double csi_hop_distance(CsiClass c) {
  return kHopDistance[static_cast<std::size_t>(c)];
}

/// The links one terminal senses: (neighbour id, class) pairs, ascending by
/// neighbour id.
using LinkRow = std::vector<std::pair<std::uint32_t, CsiClass>>;

/// Single-letter class name for logs and tables.
[[nodiscard]] constexpr std::string_view to_string(CsiClass c) {
  constexpr std::array<std::string_view, 4> names = {"A", "B", "C", "D"};
  return names[static_cast<std::size_t>(c)];
}

}  // namespace rica::channel
