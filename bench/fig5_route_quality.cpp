// Figure 5: route quality of all protocols at 72 km/h mean speed:
//   (a) average link throughput (kbps) of the links delivered packets used,
//   (b) average number of hops of the delivered packets' routes.
// The paper states 72 km/h; the load is unstated — we use 10 pkt/s
// (DESIGN.md §8b records this assumption).  The cells are the figs 2-4
// grid's cells at that point (same trial seeds and warmup), each printed as
// mean+-half of its 95% Student-t interval over trials.
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  using namespace rica::harness;
  try {
    const Flags flags(argc, argv);
    const BenchScale scale = bench_scale(flags, /*def_trials=*/3,
                                         /*def_sim_s=*/100.0);
    const double speed = flags.get("mean-speed", 72.0);
    const double load = flags.get("rate", 10.0);

    const auto grid = run_speed_sweep({speed}, {load}, scale);
    Table table({"protocol", "avg_link_throughput_kbps", "avg_hops"});
    for (const auto& p : grid) {
      table.add_row(
          {std::string(to_string(p.protocol)),
           format_interval(
               p, [](const ScenarioResult& r) { return r.avg_link_tput_kbps; },
               1),
           format_interval(
               p, [](const ScenarioResult& r) { return r.avg_hops; }, 2)});
    }
    std::cout << "Figure 5: route quality at " << fmt(speed, 0)
              << " km/h mean speed, " << fmt(load, 0) << " pkt/s\n";
    table.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
