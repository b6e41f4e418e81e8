// Speed/load sweeps shared by the figure-reproduction benches.
//
// Figures 2, 3 and 4 of the paper plot three metrics of the same experiment
// grid: {5 protocols} x {mean speeds 0..72 km/h} x {10, 20 pkt/s}.  The
// sweep runner executes that grid once (multi-trial averaged), and
// bench/paper_figs prints every figure's table from it.
//
// Every grid cell is an independent Network owning its full stack, so one
// worker pool (run_cells; 0 threads = one per core) executes any list of
// cells: the sweep grids, the claims gate's mechanism variants, the
// examples' protocol line-ups.  Per-cell seeds are hashed from the cell
// coordinates (see trial_seed) and results land in pre-assigned slots, so
// the output is bit-identical to a serial run for a fixed seed regardless
// of thread count or scheduling.
//
// Each cell also keeps its per-trial metrics, so the tables print a
// Student-t confidence interval next to every mean and a comparison between
// two cells can tell an ordering from a tie (the multi-trial comparison
// method of arXiv:1410.4700; DESIGN.md §3).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"

namespace rica::harness {

/// A two-sided 95% Student-t confidence interval for a mean over trials.
struct Interval {
  double mean = 0.0;
  double half = 0.0;  ///< half-width; 0 with fewer than two samples

  [[nodiscard]] double lo() const { return mean - half; }
  [[nodiscard]] double hi() const { return mean + half; }
  /// True when this interval lies wholly below `other` (no overlap).
  [[nodiscard]] bool below(const Interval& other) const {
    return hi() < other.lo();
  }
};

/// The 95% Student-t interval of the mean of `samples`.
[[nodiscard]] Interval t_interval(const std::vector<double>& samples);

/// One cell's results: traffic model x mobility model x protocol x speed x
/// load (a run_cells cell may also differ in settings it does not record,
/// such as `ScenarioConfig::rica`).
struct SweepPoint {
  ProtocolKind protocol;
  std::string mobility;  ///< model spec, e.g. "waypoint", "gauss-markov"
  std::string traffic;   ///< traffic spec, e.g. "poisson", "cbr:jitter=0.2"
  double mean_speed_kmh = 0.0;
  double pkts_per_s = 0.0;
  ScenarioResult result;  ///< the trials folded by average(), = run_trials
  /// Each trial's scalar metrics, in trial order.  Registry stats,
  /// histograms, series and per-flow tables live only in `result`.
  std::vector<ScenarioResult> trials;

  /// The 95% Student-t interval of `metric` over the cell's trials.
  [[nodiscard]] Interval interval(
      const std::function<double(const ScenarioResult&)>& metric) const;
};

/// Runs `trials` trials of every config in `cells` on `threads` workers
/// (0 = one per core) and returns one SweepPoint per cell, in `cells`'
/// order.  A cell's trials run in trial order on one worker (run_trial_set),
/// so every result equals the serial one whatever the thread count.
/// Workers claim cells from the back of the list, so a caller that lists
/// its heaviest cells last starts them first.  The first exception a cell
/// throws is rethrown once every worker has stopped.  `verbose` prints a
/// progress note per cell to stderr.
[[nodiscard]] std::vector<SweepPoint> run_cells(
    const std::vector<ScenarioConfig>& cells, int trials, int threads,
    bool verbose = false);

/// The paper's x-axis: mean speeds 0..72 km/h (MAXSPEED 0..144).
[[nodiscard]] std::vector<double> paper_speeds();

/// Runs the full grid through run_cells on `scale.threads` workers over
/// `scale.preset`'s population under `scale.mobility`.  Progress notes go to stderr (unless
/// `scale.verbose` is off) so stdout stays a clean table stream.
[[nodiscard]] std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const BenchScale& scale);

/// The full grid with an explicit mobility axis: every model spec in
/// `mobilities` runs the whole {speed x load x protocol} grid (cells in
/// (mobility, load, speed, protocol) order).  Scheduling stays bit-identical
/// to a serial enumeration for a fixed seed regardless of thread count.
[[nodiscard]] std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities, const BenchScale& scale);

/// The configs of run_speed_sweep's grid, in its (traffic, mobility, load,
/// speed, protocol) order, with every spec checked (and trace files loaded)
/// up front.  A caller that adds cells of its own to one run_cells call
/// starts from this.
[[nodiscard]] std::vector<ScenarioConfig> sweep_cells(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities,
    const std::vector<std::string>& traffics, const BenchScale& scale);

/// The full grid with explicit mobility *and* traffic axes: every traffic
/// spec in `traffics` runs the whole {mobility x load x speed x protocol}
/// grid (cells in (traffic, mobility, load, speed, protocol) order).  The
/// parallel == serial bit-identity holds across both axes.
[[nodiscard]] std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities,
    const std::vector<std::string>& traffics, const BenchScale& scale);

/// Prints one "figure": rows = speed, columns = protocols, cells =
/// `metric` formatted with `precision` digits as "mean+-half" of its 95%
/// interval over trials (just the mean of `result` with one trial, or when
/// `with_ci` is off because `metric` reads what only `result` keeps).
/// Expects a single-mobility grid (a multi-model grid would collapse onto
/// the first model's cells); fig7 prints the mobility axis itself.
void print_figure(std::ostream& os, const std::vector<SweepPoint>& grid,
                  double load, const std::string& title,
                  const std::function<double(const ScenarioResult&)>& metric,
                  int precision = 1, bool with_ci = true);

/// "mean+-half" of `metric`'s interval over `p`'s trials, or the mean of
/// `p.result` alone when there are fewer than two trials.
[[nodiscard]] std::string format_interval(
    const SweepPoint& p,
    const std::function<double(const ScenarioResult&)>& metric,
    int precision);

/// Prints one model-axis "figure": rows = `keys` in order, columns =
/// protocols, cells = `metric(result)` of the first grid cell whose
/// `key_of` field matches the row (blank when no cell matches, so a
/// partial grid shows a hole instead of silently shifting the row).
/// Serves both fig7 (key_of = mobility spec) and fig8 (traffic spec).
/// key_of returns by value so callables that compute their key are safe.
void print_axis_figure(
    std::ostream& os, const std::vector<SweepPoint>& grid,
    const std::vector<std::string>& keys, const std::string& axis_label,
    const std::string& title,
    const std::function<std::string(const SweepPoint&)>& key_of,
    const std::function<double(const ScenarioResult&)>& metric,
    int precision = 1);

}  // namespace rica::harness
