// Explore the paper's channel model directly: CSI class population by
// distance ring, and the class time series of a single fading link.  Useful
// for understanding *why* channel-adaptive routing pays off before diving
// into protocol behaviour.
//
// Flags: --preset NAME    population/field for the static sample (default:
//                         a dense 300-node variant of the paper field)
//        --mobility SPEC  model driving the moving pair (default waypoint)
//        --speed MPS      pair speed for the time series (default 10)
//        --seed K         seed of the static sample (default 1)
#include <algorithm>
#include <array>
#include <exception>
#include <iostream>
#include <string>

#include "channel/channel_model.hpp"
#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "mobility/mobility_model.hpp"

int main(int argc, char** argv) {
  using namespace rica;
  try {
    const harness::Flags flags(argc, argv);
    flags.require_known({"preset", "mobility", "speed", "seed"});

    // Part 1: class population by distance, from a large static sample.
    // With --preset the sample uses that scenario's field and population
    // (minimum 100 nodes so the rings stay well filled).
    sim::RngManager rng(flags.get("seed", static_cast<std::uint64_t>(1)));
    std::size_t sample_nodes = 300;
    mobility::MobilityConfig wp;
    wp.field = mobility::Field{1000.0, 1000.0};
    if (flags.has("preset")) {
      const auto preset = harness::preset_config(
          flags.get("preset", std::string{"paper"}));
      sample_nodes = std::max<std::size_t>(100, preset.num_nodes);
      wp.field = mobility::Field{preset.field_m, preset.field_m};
    }
    wp.max_speed_mps = 0.0;
    mobility::MobilityManager mobility(sample_nodes, wp, rng);
    channel::ChannelModel model(channel::ChannelConfig{}, mobility, rng);

    constexpr int kRings = 5;
    std::array<std::array<int, 4>, kRings> hist{};
    std::array<int, kRings> totals{};
    for (std::uint32_t a = 0; a < sample_nodes; ++a) {
      for (std::uint32_t b = a + 1; b < sample_nodes; ++b) {
        const double d = mobility.node_distance(a, b, sim::Time::zero());
        if (d > 250.0) continue;
        const auto s = model.sample(a, b, sim::Time::zero());
        const int ring = std::min(kRings - 1, static_cast<int>(d / 50.0));
        ++hist[ring][static_cast<int>(s->csi)];
        ++totals[ring];
      }
    }
    std::cout << "CSI class population by link distance (static sample, "
              << sample_nodes << " nodes)\n";
    harness::Table table({"distance_m", "A_%", "B_%", "C_%", "D_%", "links"});
    for (int r = 0; r < kRings; ++r) {
      if (totals[r] == 0) continue;
      std::vector<std::string> row{std::to_string(r * 50) + "-" +
                                   std::to_string((r + 1) * 50)};
      for (int c = 0; c < 4; ++c) {
        row.push_back(harness::fmt(100.0 * hist[r][c] / totals[r], 1));
      }
      row.push_back(std::to_string(totals[r]));
      table.add_row(std::move(row));
    }
    table.print(std::cout);

    // Part 2: one moving pair's class over time, under a selectable model.
    const double speed = flags.get("speed", 10.0);
    const std::string spec = flags.get("mobility", std::string{"waypoint"});
    mobility::MobilityConfig wp2 = mobility::parse_mobility_spec(spec);
    wp2.field = mobility::Field{200.0, 200.0};  // stays in range
    wp2.max_speed_mps = speed;
    wp2.pause = sim::Time::zero();
    sim::RngManager rng2(7);
    mobility::MobilityManager pair(2, wp2, rng2);
    channel::ChannelModel link(channel::ChannelConfig{}, pair, rng2);

    std::cout << "\nOne link's CSI class, 200 ms samples, " << spec
              << " mobility, pair speed ~" << speed << " m/s each:\n";
    for (int row = 0; row < 4; ++row) {
      for (int i = 0; i < 60; ++i) {
        const auto t = sim::milliseconds(200 * (row * 60 + i));
        const auto s = link.sample(0, 1, t);
        std::cout << (s ? channel::to_string(s->csi) : "-");
      }
      std::cout << '\n';
    }
    std::cout << "\n(each character = 200 ms; A=250, B=150, C=75, D=50 kbps;"
                 "\n '-' = out of range)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
