// Figure 7 (extension, not in the paper): protocol x mobility-model
// comparison at the paper preset.  The paper evaluates RICA only under
// random-waypoint motion, but its channel model is driven by distance moved,
// so protocol rankings can shift with the motion pattern; this bench runs
// all five protocols under all five mobility models at one speed/load point
// and tabulates delivery, delay, and overhead per model.
//
// Flags: common scale flags (see bench_scale, including --warmup), plus
//   --speed KMH   mean speed of the comparison point (default 36)
//   --rate PKTS   offered load per flow (default 10)
//   --models CSV  mobility specs to compare (default: all five synthetic
//                 models; note `trace:file=PATH` specs contain no comma, so
//                 they compose with this list)
//   --trace FILE  shorthand appending `trace:file=FILE` to the model list,
//                 putting a replayed real-world trace next to the synthetic
//                 models in the same table
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/event_engine.hpp"

namespace {

using namespace rica;

/// One sub-figure: 7(a), 7(b), ... in table order.
struct Fig7Metric {
  std::string title;  ///< human title fragment for the printed figure
  int precision;
  double (*get)(const harness::ScenarioResult&);
};

const Fig7Metric kMetrics[] = {
    {"packet delivery (%)", 1,
     [](const harness::ScenarioResult& r) { return r.delivery_pct; }},
    {"end-to-end delay (ms)", 1,
     [](const harness::ScenarioResult& r) { return r.avg_delay_ms; }},
    {"control overhead (kbps)", 1,
     [](const harness::ScenarioResult& r) { return r.overhead_kbps; }},
    {"kernel events executed (millions, all trials)", 2,
     [](const harness::ScenarioResult& r) {
       return r.stat("kernel.events_executed") * 1e-6;
     }},
    {"peak pending events (worst trial)", 0,
     [](const harness::ScenarioResult& r) {
       return r.stat("kernel.peak_pending");
     }},
    {"event closures spilled past the " +
         std::to_string(sim::EventEngine::kInlineBytes) +
         " B inline buffer (heap_fallbacks, all trials)",
     0,
     [](const harness::ScenarioResult& r) {
       return r.stat("kernel.heap_fallbacks");
     }},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rica;
  try {
    const harness::Flags flags(argc, argv);
    flags.require_known({"trials", "sim-time", "seed", "paper-scale",
                         "threads", "preset", "mobility", "traffic", "pause",
                         "warmup", "speed", "rate", "models", "trace"});
    const harness::BenchScale scale =
        harness::bench_scale(flags, /*def_trials=*/3, /*def_sim_s=*/100.0);
    const double speed = flags.get("speed", 36.0);
    const double rate = flags.get("rate", 10.0);

    // Honor the shared --mobility flag when given explicitly: a single-model
    // "figure" is a one-row table, not a silent all-model sweep.
    auto models = flags.get_strings(
        "models", flags.has("mobility")
                      ? std::vector<std::string>{scale.mobility}
                      : mobility::known_mobility_models());
    if (flags.has("trace")) {
      models.push_back("trace:file=" + flags.get("trace", std::string{}));
    }

    const auto grid = run_speed_sweep({speed}, {rate}, models, scale);
    const std::string point = " at " + harness::fmt(speed, 0) + " km/h, " +
                              harness::fmt(rate, 0) + " pkt/s (" +
                              scale.preset + " preset)";
    for (std::size_t m = 0; m < std::size(kMetrics); ++m) {
      const std::string label(1, static_cast<char>('a' + m));
      harness::print_axis_figure(
          std::cout, grid, models, "mobility",
          "Figure 7(" + label + "): " + kMetrics[m].title +
              " by mobility model" + point,
          [](const harness::SweepPoint& cell) { return cell.mobility; },
          kMetrics[m].get, kMetrics[m].precision);
    }
    std::cout << "Reading guide: waypoint is the paper's setting; group\n"
                 "motion keeps flows inside a neighborhood (route lifetimes\n"
                 "stretch), while Gauss-Markov and Manhattan sustain motion\n"
                 "without pauses, stressing route repair hardest.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
