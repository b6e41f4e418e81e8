#include "harness/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <ostream>
#include <thread>

#include "harness/table.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"
#include "traffic/traffic_model.hpp"

namespace rica::harness {

std::vector<double> paper_speeds() {
  return {0.0, 14.4, 28.8, 43.2, 57.6, 72.0};
}

namespace {
/// Two-sided 95% Student-t quantile t(0.975, df).  Tabulated up to 30
/// degrees of freedom; past that the Cornish-Fisher expansion around the
/// normal quantile is within 1e-4 of the exact value.
double t_quantile_975(std::size_t df) {
  static constexpr std::array<double, 30> kTable = {
      12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
      2.2622,  2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
      2.1098,  2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
      2.0595,  2.0555, 2.0518, 2.0484, 2.0452, 2.0423};
  if (df <= kTable.size()) return kTable[df - 1];
  constexpr double z = 1.959964;
  const double v = static_cast<double>(df);
  return z + (z * z * z + z) / (4.0 * v) +
         (5.0 * std::pow(z, 5) + 16.0 * z * z * z + 3.0 * z) / (96.0 * v * v);
}
}  // namespace

Interval t_interval(const std::vector<double>& samples) {
  Interval ci;
  if (samples.empty()) return ci;
  const double n = static_cast<double>(samples.size());
  for (const double x : samples) ci.mean += x / n;
  if (samples.size() < 2) return ci;
  double ss = 0.0;
  for (const double x : samples) ss += (x - ci.mean) * (x - ci.mean);
  const double stddev = std::sqrt(ss / (n - 1.0));
  ci.half = t_quantile_975(samples.size() - 1) * stddev / std::sqrt(n);
  return ci;
}

Interval SweepPoint::interval(
    const std::function<double(const ScenarioResult&)>& metric) const {
  std::vector<double> xs;
  xs.reserve(trials.size());
  for (const auto& t : trials) xs.push_back(metric(t));
  return t_interval(xs);
}

std::vector<SweepPoint> run_speed_sweep(const std::vector<double>& speeds_kmh,
                                        const std::vector<double>& loads,
                                        const BenchScale& scale) {
  return run_speed_sweep(speeds_kmh, loads, {scale.mobility}, scale);
}

std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities, const BenchScale& scale) {
  return run_speed_sweep(speeds_kmh, loads, mobilities, {scale.traffic},
                         scale);
}

std::vector<SweepPoint> run_cells(const std::vector<ScenarioConfig>& cells,
                                  int trials, int threads, bool verbose) {
  // Each cell owns a fixed output slot, so worker scheduling never reorders
  // (or otherwise perturbs) the results.
  std::vector<SweepPoint> points;
  points.reserve(cells.size());
  for (const auto& cfg : cells) {
    points.push_back(SweepPoint{cfg.protocol, cfg.mobility, cfg.traffic,
                                cfg.mean_speed_kmh, cfg.pkts_per_s, {}, {}});
  }

  std::atomic<std::size_t> next{0};
  std::mutex log_mu;
  std::mutex error_mu;
  std::exception_ptr first_error;

  const auto run_cell = [&](const ScenarioConfig& cfg, SweepPoint& cell) {
    if (verbose) {
      const std::scoped_lock lock(log_mu);
      std::fprintf(stderr, "[sweep] %-9s %-12s %-12s speed=%5.1f km/h"
                           " load=%4.1f pkt/s (%d trials x %.0f s)\n",
                   std::string(to_string(cell.protocol)).c_str(),
                   cell.mobility.c_str(), cell.traffic.c_str(),
                   cell.mean_speed_kmh, cell.pkts_per_s, trials, cfg.sim_s);
    }
    auto runs = run_trial_set(cfg, trials);
    cell.result = average(runs);
    cell.trials.reserve(runs.size());
    for (auto& r : runs) {
      // Keep the scalars only; the bulky parts are folded into `result`.
      r.tput_kbps_series = {};
      r.flow_summaries = {};
      r.stats = {};
      r.histograms = {};
      cell.trials.push_back(std::move(r));
    }
    if (verbose) {
      // Kernel observability per cell: total events fired across the cell's
      // trials, the worst trial's pending-event and pool high-water marks,
      // the closures that spilled past the inline buffer, and the
      // open-addressing table occupancy — the knobs that tell whether the
      // event core and the flat memory layout, not the protocols, are the
      // bottleneck at this grid point.
      const ScenarioResult& r = cell.result;
      const std::scoped_lock lock(log_mu);
      std::fprintf(stderr,
                   "[sweep]   done %-9s %-12s %-12s speed=%5.1f: events=%.0f"
                   " peak_pending=%.0f heap_fb=%.0f pool_hw=%.0f"
                   " table_load=%.2f\n"
                   "[sweep]        drops=%llu (overflow=%llu expired=%llu"
                   " no_route=%llu link_break=%llu loop_cap=%llu)\n",
                   std::string(to_string(cell.protocol)).c_str(),
                   cell.mobility.c_str(), cell.traffic.c_str(),
                   cell.mean_speed_kmh,
                   r.stat("kernel.events_executed"),
                   r.stat("kernel.peak_pending"),
                   r.stat("kernel.heap_fallbacks"),
                   r.stat("stack.pool_high_water"),
                   r.stat("stack.table_load"),
                   static_cast<unsigned long long>(r.dropped),
                   static_cast<unsigned long long>(r.drops[0]),
                   static_cast<unsigned long long>(r.drops[1]),
                   static_cast<unsigned long long>(r.drops[2]),
                   static_cast<unsigned long long>(r.drops[3]),
                   static_cast<unsigned long long>(r.drops[4]));
    }
  };

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cells.size()) return;
      const std::size_t slot = cells.size() - 1 - i;
      try {
        run_cell(cells[slot], points[slot]);
      } catch (...) {
        const std::scoped_lock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t num_workers = std::min(
      cells.size(), static_cast<std::size_t>(threads > 0 ? threads : hw));
  if (num_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return points;
}

std::vector<ScenarioConfig> sweep_cells(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities,
    const std::vector<std::string>& traffics, const BenchScale& scale) {
  // Resolve the preset and model specs up front so a bad name fails before
  // any work starts.  Trace specs go further: the file is loaded (and
  // validated against the preset's field) here, so an unreadable or
  // malformed trace aborts before minutes of synthetic-model cells run —
  // and the parse lands in the shared cache before worker threads race,
  // so the whole sweep reuses this one load.
  const ScenarioConfig base = preset_config(scale.preset);
  for (const auto& mobility : mobilities) {
    const auto mob = mobility::parse_mobility_spec(mobility);
    if (mob.model == mobility::ModelKind::kTrace) {
      (void)mobility::load_trace_shared(
          mob.trace_file, mobility::Field{base.field_m, base.field_m});
    }
  }
  for (const auto& traffic : traffics) {
    (void)traffic::parse_traffic_spec(traffic);
  }

  // Lay out the grid in the canonical (traffic, mobility, load, speed,
  // protocol) order.  run_cells claims from the back: load and speed then
  // run descending and LinkState, the last protocol, leads each group, so
  // the heaviest cells start first and cheap static ones fill the tail.
  std::vector<ScenarioConfig> cells;
  cells.reserve(traffics.size() * mobilities.size() * speeds_kmh.size() *
                loads.size() * kAllProtocols.size());
  for (const auto& traffic : traffics) {
    for (const auto& mobility : mobilities) {
      for (const double load : loads) {
        for (const double speed : speeds_kmh) {
          for (const ProtocolKind proto : kAllProtocols) {
            ScenarioConfig& cfg = cells.emplace_back(base);
            cfg.protocol = proto;
            cfg.mobility = mobility;
            cfg.traffic = traffic;
            cfg.mean_speed_kmh = speed;
            cfg.pkts_per_s = load;
            cfg.pause_s = scale.pause_s;
            cfg.sim_s = scale.sim_s;
            cfg.warmup_s = scale.warmup_s;
            cfg.seed = scale.seed;
          }
        }
      }
    }
  }
  return cells;
}

std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities,
    const std::vector<std::string>& traffics, const BenchScale& scale) {
  return run_cells(sweep_cells(speeds_kmh, loads, mobilities, traffics, scale),
                   scale.trials, scale.threads, scale.verbose);
}

void print_figure(std::ostream& os, const std::vector<SweepPoint>& grid,
                  double load, const std::string& title,
                  const std::function<double(const ScenarioResult&)>& metric,
                  int precision, bool with_ci) {
  os << title << '\n';
  std::vector<std::string> header{"speed_kmh"};
  for (const auto proto : kAllProtocols) {
    header.emplace_back(to_string(proto));
  }
  Table table(std::move(header));

  std::vector<double> speeds;
  for (const auto& p : grid) {
    if (p.pkts_per_s != load) continue;
    if (speeds.empty() || speeds.back() != p.mean_speed_kmh) {
      if (std::find(speeds.begin(), speeds.end(), p.mean_speed_kmh) ==
          speeds.end()) {
        speeds.push_back(p.mean_speed_kmh);
      }
    }
  }
  for (const double speed : speeds) {
    std::vector<std::string> row{fmt(speed, 1)};
    for (const auto proto : kAllProtocols) {
      for (const auto& p : grid) {
        if (p.protocol == proto && p.mean_speed_kmh == speed &&
            p.pkts_per_s == load) {
          row.push_back(with_ci ? format_interval(p, metric, precision)
                                : fmt(metric(p.result), precision));
          break;
        }
      }
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << '\n';
}

std::string format_interval(
    const SweepPoint& p,
    const std::function<double(const ScenarioResult&)>& metric,
    int precision) {
  if (p.trials.size() < 2) return fmt(metric(p.result), precision);
  const Interval ci = p.interval(metric);
  return fmt(ci.mean, precision) + "+-" + fmt(ci.half, precision);
}

void print_axis_figure(
    std::ostream& os, const std::vector<SweepPoint>& grid,
    const std::vector<std::string>& keys, const std::string& axis_label,
    const std::string& title,
    const std::function<std::string(const SweepPoint&)>& key_of,
    const std::function<double(const ScenarioResult&)>& metric,
    int precision) {
  os << title << '\n';
  std::vector<std::string> header{axis_label};
  for (const auto proto : kAllProtocols) {
    header.emplace_back(to_string(proto));
  }
  Table table(std::move(header));
  for (const auto& key : keys) {
    std::vector<std::string> row{key};
    for (const auto proto : kAllProtocols) {
      std::string cell;  // stays blank when the grid has no such point
      for (const auto& p : grid) {
        if (key_of(p) == key && p.protocol == proto) {
          cell = fmt(metric(p.result), precision);
          break;
        }
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << '\n';
}

}  // namespace rica::harness
