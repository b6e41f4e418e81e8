// Figure 6: aggregate network throughput (kbps, 4-second buckets) over
// simulation time, for 20 pkt/s (a) and 60 pkt/s (b) per pair.
// The paper does not state the mobility for this figure; we use the mid
// speed 36 km/h (DESIGN.md §8b records this assumption).
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

namespace {

void run_panel(const rica::harness::BenchScale& scale, double load,
               double speed, const std::string& title) {
  using namespace rica::harness;
  std::vector<std::string> header{"time_s"};
  std::vector<std::vector<double>> series;
  for (const auto proto : kAllProtocols) {
    ScenarioConfig cfg = preset_config(scale.preset);
    cfg.protocol = proto;
    cfg.mean_speed_kmh = speed;
    cfg.pkts_per_s = load;
    cfg.sim_s = scale.sim_s;
    cfg.seed = scale.seed;
    std::cerr << "[fig6] " << to_string(proto) << " @ " << load
              << " pkt/s...\n";
    const auto r = run_trials(cfg, scale.trials);
    header.emplace_back(to_string(proto));
    series.push_back(r.tput_kbps_series);
  }
  std::size_t len = 0;
  for (const auto& s : series) len = std::max(len, s.size());

  Table table(std::move(header));
  for (std::size_t i = 0; i < len; ++i) {
    std::vector<std::string> row{fmt(4.0 * static_cast<double>(i + 1), 0)};
    for (const auto& s : series) {
      row.push_back(i < s.size() ? fmt(s[i], 1) : "-");
    }
    table.add_row(std::move(row));
  }
  std::cout << title << '\n';
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rica::harness;
  try {
    const Flags flags(argc, argv);
    const BenchScale scale = bench_scale(flags, /*def_trials=*/3,
                                         /*def_sim_s=*/100.0);
    const double speed = flags.get("mean-speed", 36.0);
    run_panel(scale, 20.0, speed,
              "Figure 6(a): aggregate throughput (kbps per 4 s), 20 pkt/s");
    run_panel(scale, 60.0, speed,
              "Figure 6(b): aggregate throughput (kbps per 4 s), 60 pkt/s");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
