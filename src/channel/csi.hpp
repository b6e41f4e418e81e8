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

/// CSI-based hop distance: transmission-delay ratio relative to class A
/// (250/250=1, 250/150=1.67, 250/75=3.33, 250/50=5).
[[nodiscard]] constexpr double csi_hop_distance(CsiClass c) {
  return kClassThroughputBps[0] / throughput_bps(c);
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
