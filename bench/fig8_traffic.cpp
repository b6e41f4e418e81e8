// Figure 8 (extension, not in the paper): protocol x traffic-model
// comparison at the paper preset.  The paper evaluates RICA under exactly
// one workload — Poisson arrivals on random terminal pairs — but on-demand
// discovery is driven by *when* flows want routes: constant-rate streams
// (arXiv:1109.6502), bursty correlated demand (arXiv:1608.08725), and
// closed-loop request/response each stress it differently.  This bench runs
// all five protocols under the selected traffic specs at one speed/load
// point and tabulates delivery, delay (mean and p95), overhead, and Jain's
// fairness index over per-flow delivered throughput.
//
// Flags: common scale flags (see bench_scale, including --warmup), plus
//   --speed KMH     mean speed of the comparison point (default 36)
//   --rate PKTS     offered load per flow (default 10)
//   --models CSV    traffic specs to compare (default: all five models;
//                   note specs with commas in their params cannot be
//                   spelled in this list — use repeated runs instead)
//   --pattern NAME  shorthand appending pattern=NAME to every spec that
//                   does not already choose one (random, sink, hotspot,
//                   ring), so one flag turns the whole table convergecast
//   --json FILE     also record the grid as a compact JSON object (the
//                   bench-smoke CI artifact and BENCH_scale.json rows)
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "traffic/traffic_model.hpp"

namespace {

using namespace rica;

// (print_axis_figure in harness/sweep.hpp renders each sub-figure; the
// table below is the single source of truth for what gets rendered.)

/// One row of the figure: the same table drives the printed sub-figures
/// (8(a), 8(b), ...) and the --json recording, so the two can never
/// desynchronize.
struct Fig8Metric {
  const char* json_name;
  const char* title;  ///< human title fragment for the printed figure
  int precision;
  double (*get)(const harness::ScenarioResult&);
};

constexpr Fig8Metric kMetrics[] = {
    {"delivery_pct", "packet delivery (%)", 1,
     [](const harness::ScenarioResult& r) { return r.delivery_pct; }},
    {"delay_ms", "end-to-end delay (ms)", 1,
     [](const harness::ScenarioResult& r) { return r.avg_delay_ms; }},
    {"delay_p95_ms", "p95 end-to-end delay (ms)", 1,
     [](const harness::ScenarioResult& r) { return r.delay_p95_ms; }},
    {"overhead_kbps", "control overhead (kbps)", 1,
     [](const harness::ScenarioResult& r) { return r.overhead_kbps; }},
    {"jain_fairness", "Jain fairness of per-flow throughput", 3,
     [](const harness::ScenarioResult& r) { return r.jain_fairness; }},
};

/// The grid cell for (traffic spec, protocol), or nullptr.
const harness::SweepPoint* cell_for(
    const std::vector<harness::SweepPoint>& grid, const std::string& model,
    harness::ProtocolKind proto) {
  for (const auto& cell : grid) {
    if (cell.traffic == model && cell.protocol == proto) return &cell;
  }
  return nullptr;
}

/// Compact JSON of the grid: metric -> traffic spec -> protocol -> value.
void write_json(const std::string& path,
                const std::vector<harness::SweepPoint>& grid,
                const std::vector<std::string>& models) {
  std::ofstream os(path);
  os << "{\n";
  const auto num_metrics = std::size(kMetrics);
  for (std::size_t m = 0; m < num_metrics; ++m) {
    os << "  \"" << kMetrics[m].json_name << "\": {\n";
    for (std::size_t i = 0; i < models.size(); ++i) {
      os << "    \"" << models[i] << "\": {";
      bool first = true;
      for (const auto proto : harness::kAllProtocols) {
        if (const auto* cell = cell_for(grid, models[i], proto)) {
          os << (first ? "" : ", ") << '"' << harness::to_string(proto)
             << "\": " << harness::fmt(kMetrics[m].get(cell->result), 3);
          first = false;
        }
      }
      os << (i + 1 < models.size() ? "},\n" : "}\n");
    }
    os << (m + 1 < num_metrics ? "  },\n" : "  }\n");
  }
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rica;
  try {
    const harness::Flags flags(argc, argv);
    flags.require_known({"trials", "sim-time", "seed", "paper-scale",
                         "threads", "preset", "mobility", "traffic", "pause",
                         "warmup", "speed", "rate", "models", "pattern",
                         "json"});
    const harness::BenchScale scale =
        harness::bench_scale(flags, /*def_trials=*/3, /*def_sim_s=*/100.0);
    const double speed = flags.get("speed", 36.0);
    const double rate = flags.get("rate", 10.0);

    // Honor the shared --traffic flag when given explicitly: a single-model
    // "figure" is a one-row table, not a silent all-model sweep.
    auto models = flags.get_strings(
        "models", flags.has("traffic")
                      ? std::vector<std::string>{scale.traffic}
                      : traffic::known_traffic_models());
    if (flags.has("pattern")) {
      const std::string pattern = flags.get("pattern", std::string{});
      for (auto& model : models) {
        if (model.find("pattern=") != std::string::npos) continue;
        model += (model.find(':') == std::string::npos ? ":" : ",");
        model += "pattern=" + pattern;
      }
    }

    const auto grid =
        run_speed_sweep({speed}, {rate}, {scale.mobility}, models, scale);
    const std::string point = " at " + harness::fmt(speed, 0) + " km/h, " +
                              harness::fmt(rate, 0) + " pkt/s (" +
                              scale.preset + " preset, " + scale.mobility +
                              " mobility)";
    for (std::size_t m = 0; m < std::size(kMetrics); ++m) {
      const std::string label(1, static_cast<char>('a' + m));
      harness::print_axis_figure(
          std::cout, grid, models, "traffic",
          "Figure 8(" + label + "): " + kMetrics[m].title +
              " by traffic model" + point,
          [](const harness::SweepPoint& cell) { return cell.traffic; },
          kMetrics[m].get, kMetrics[m].precision);
    }
    if (flags.has("json")) {
      const auto path = flags.get("json", std::string{});
      write_json(path, grid, models);
      std::cerr << "[fig8] wrote " << path << '\n';
    }
    std::cout << "Reading guide: poisson is the paper's setting; cbr holds\n"
                 "the gap constant (queues never see a burst), onoff and\n"
                 "pareto concentrate the same offered load into bursts that\n"
                 "hit cold routes, and reqresp closes the loop — its load\n"
                 "adapts to what the network delivers, and both endpoints\n"
                 "originate data.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
