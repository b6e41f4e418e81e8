// Head-to-head comparison of all five protocols on one scenario setting
// (same preset, mobility model, speed and load).  Each protocol's trials
// draw their own seeds (trial_seed hashes the protocol), as the paper's
// figure cells do.  This is the condensed form of the paper's §III
// comparison.  The five protocols run side by side on every core
// (harness::run_cells).
//
// Flags: --preset NAME --mobility SPEC --pause S --mean-speed KMH
//        --rate PKTS --sim-time S --trials N --seed K
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "mobility/mobility_model.hpp"

int main(int argc, char** argv) {
  using namespace rica;
  try {
    const harness::Flags flags(argc, argv);
    flags.require_known({"preset", "mobility", "pause", "mean-speed", "rate",
                         "sim-time", "trials", "seed"});
    harness::ScenarioConfig cfg =
        harness::preset_config(flags.get("preset", "paper"));
    cfg.mobility = flags.get("mobility", cfg.mobility);
    (void)mobility::parse_mobility_spec(cfg.mobility);  // fail fast on typos
    cfg.pause_s = flags.get("pause", cfg.pause_s);
    cfg.mean_speed_kmh = flags.get("mean-speed", 36.0);
    cfg.pkts_per_s = flags.get("rate", 10.0);
    cfg.sim_s = flags.get("sim-time", 100.0);
    cfg.seed = flags.get("seed", static_cast<std::uint64_t>(1));
    const int trials = flags.get("trials", 3);
    if (trials < 1) {
      throw std::invalid_argument("--trials must be >= 1, got " +
                                  std::to_string(trials));
    }

    std::cout << "Five-protocol face-off: " << cfg.num_nodes << " nodes, "
              << cfg.mobility << " mobility, " << cfg.mean_speed_kmh
              << " km/h mean, " << cfg.pkts_per_s << " pkt/s x "
              << cfg.num_pairs << " flows, " << cfg.sim_s << " s x " << trials
              << " trials\n\n";

    harness::Table table({"protocol", "delivery_%", "delay_ms",
                          "overhead_kbps", "link_tput_kbps", "hops"});
    std::vector<harness::ScenarioConfig> cells;
    for (const auto proto : harness::kAllProtocols) {
      cfg.protocol = proto;
      cells.push_back(cfg);
    }
    std::cerr << "running the five protocols...\n";
    for (const auto& cell : harness::run_cells(cells, trials, /*threads=*/0)) {
      const auto& r = cell.result;
      table.add_row({std::string(harness::to_string(cell.protocol)),
                     harness::fmt(r.delivery_pct, 1),
                     harness::fmt(r.avg_delay_ms, 1),
                     harness::fmt(r.overhead_kbps, 1),
                     harness::fmt(r.avg_link_tput_kbps, 1),
                     harness::fmt(r.avg_hops, 2)});
    }
    table.print(std::cout);
    std::cout << "\nReading guide (paper, §III): RICA should lead delivery\n"
                 "and delay; link state should lead link throughput but pay\n"
                 "for it with overhead and, when nodes move, delivery.\n"
                 "Try --mobility walk|gauss-markov|group|manhattan to see\n"
                 "how the ranking shifts with the motion pattern.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
