// Figures 2-6 of the paper from one binary.
//
// Figures 2, 3 and 4 plot three metrics of one experiment: {5 protocols} x
// {mean speeds 0..72 km/h} x {10, 20 pkt/s}.  That grid runs once and feeds
// every table, fig 5 included: fig 5 is the grid's 72 km/h, 10 pkt/s column
// (the paper states the speed but not the load; DESIGN.md §8b).  Cells print
// as mean+-half of their 95% Student-t interval over trials, except fig
// 4(c)/(d), whose counter lives only in the folded result.
//
// Figure 6 plots aggregate throughput over time at 20 and 60 pkt/s.  The
// paper does not state its mobility; we use the mid speed 36 km/h (DESIGN.md
// §8b).  Its cells measure the whole run, so the series starts at t = 0.
//
// Flags: bench_scale's flags (--trials --sim-time --seed --paper-scale
//        --threads --preset --mobility --traffic --pause --warmup) plus
//        --speeds 0,14.4,...  Any other flag is rejected.
#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

namespace {

using namespace rica::harness;
using Metric = std::function<double(const ScenarioResult&)>;

constexpr double kFig5Speed = 72.0;
constexpr double kFig5Load = 10.0;
constexpr double kFig6Speed = 36.0;

std::string title(const char* panel, const char* what, double load) {
  return std::string("Figure ") + panel + ": " + what + ", " + fmt(load, 0) +
         " pkt/s";
}

/// One speed-axis figure per grid load: `panels[i]` labels load 10 or 20.
void print_by_load(const std::vector<SweepPoint>& grid,
                   const std::array<const char*, 2>& panels, const char* what,
                   const Metric& metric, bool with_ci = true) {
  print_figure(std::cout, grid, 10.0, title(panels[0], what, 10.0), metric, 1,
               with_ci);
  print_figure(std::cout, grid, 20.0, title(panels[1], what, 20.0), metric, 1,
               with_ci);
}

void print_fig5(const std::vector<SweepPoint>& grid) {
  Table table({"protocol", "avg_link_throughput_kbps", "avg_hops"});
  for (const auto& p : grid) {
    if (p.mean_speed_kmh != kFig5Speed || p.pkts_per_s != kFig5Load) continue;
    table.add_row(
        {std::string(to_string(p.protocol)),
         format_interval(
             p, [](const ScenarioResult& r) { return r.avg_link_tput_kbps; },
             1),
         format_interval(
             p, [](const ScenarioResult& r) { return r.avg_hops; }, 2)});
  }
  std::cout << "Figure 5: route quality at 72 km/h mean speed, 10 pkt/s\n";
  table.print(std::cout);
  std::cout << '\n';
}

/// One fig 6 panel: rows = 4 s buckets, columns = protocols.
void print_fig6(const std::vector<SweepPoint>& grid, const char* panel,
                double load) {
  std::vector<std::string> header{"time_s"};
  std::vector<const std::vector<double>*> series;
  std::size_t len = 0;
  for (const auto& p : grid) {
    if (p.pkts_per_s != load) continue;
    header.emplace_back(to_string(p.protocol));
    series.push_back(&p.result.tput_kbps_series);
    len = std::max(len, p.result.tput_kbps_series.size());
  }
  Table table(std::move(header));
  for (std::size_t i = 0; i < len; ++i) {
    std::vector<std::string> row{fmt(4.0 * static_cast<double>(i + 1), 0)};
    for (const auto* s : series) {
      row.push_back(i < s->size() ? fmt((*s)[i], 1) : "-");
    }
    table.add_row(std::move(row));
  }
  std::cout << title(panel, "aggregate throughput (kbps per 4 s)", load)
            << '\n';
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    flags.require_known({"trials", "sim-time", "seed", "paper-scale",
                         "threads", "preset", "mobility", "traffic", "pause",
                         "warmup", "speeds"});
    const BenchScale scale = bench_scale(flags, /*def_trials=*/3,
                                         /*def_sim_s=*/100.0);
    const auto speeds = flags.get_list("speeds", paper_speeds());

    const auto grid = run_speed_sweep(speeds, {10.0, 20.0}, scale);
    print_by_load(grid, {"2(a)", "2(b)"}, "average end-to-end delay (ms)",
                  [](const ScenarioResult& r) { return r.avg_delay_ms; });
    print_by_load(grid, {"3(a)", "3(b)"}, "successful packet delivery (%)",
                  [](const ScenarioResult& r) { return r.delivery_pct; });
    print_by_load(grid, {"4(a)", "4(b)"}, "routing overhead (kbps)",
                  [](const ScenarioResult& r) { return r.overhead_kbps; });
    // Exact encoded control bytes on the air (net/wire.hpp).  The registry
    // counter sums across trials and lives only in the folded result, so
    // these panels print the per-trial mean without an interval.
    const double trials = static_cast<double>(scale.trials);
    print_by_load(
        grid, {"4(c)", "4(d)"}, "control bytes-on-air (kB/trial)",
        [trials](const ScenarioResult& r) {
          const auto it = r.stats.find("net.control_bytes_on_air");
          return it == r.stats.end() ? 0.0 : it->second.value / trials / 1000.0;
        },
        /*with_ci=*/false);
    if (std::find(speeds.begin(), speeds.end(), kFig5Speed) != speeds.end()) {
      print_fig5(grid);
    } else {
      std::cerr << "[paper_figs] --speeds has no 72 km/h point; skipping "
                   "figure 5\n";
    }

    BenchScale whole_run = scale;
    whole_run.warmup_s = 0.0;
    const auto fig6 = run_speed_sweep({kFig6Speed}, {20.0, 60.0}, whole_run);
    print_fig6(fig6, "6(a)", 20.0);
    print_fig6(fig6, "6(b)", 60.0);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
