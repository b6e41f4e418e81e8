// Typed metrics registry: the one home of a run's non-paper statistics.
//
// Each run owns one Registry (inside stats::MetricsCollector).  A layer
// adds a statistic with one registration — an owned counter, gauge or
// histogram, or a function read at snapshot time — and every consumer
// iterates the registry instead of naming stats: the run summary
// (MetricsSummary::stats / histograms), the multi-trial fold, the series
// CSV and the Perfetto counter tracks.  Each scalar carries its fold kind:
//
//   * kCounter — additive work (events executed, diagnostics, drops); trial
//     aggregation sums.
//   * kGauge   — level / high-water readings (pending events, pool
//     occupancy, table load); trial aggregation takes the maximum.
//
// Epoch rule: reset() zeroes every owned counter and histogram (a warmup
// reset calls it); gauges and function-backed entries keep reading their
// owners.  Values are doubles so one snapshot type covers integer counters
// and fractional gauges; integer counters in the simulated ranges
// (< 2^53) are exact.  snapshot() is sorted by name, so serialized output
// is stable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace rica::obs {

enum class StatKind : std::uint8_t {
  kCounter = 0,  ///< additive across trials
  kGauge = 1,    ///< max across trials
};

/// One named value captured by Registry::snapshot().
struct Sample {
  std::string name;
  StatKind kind = StatKind::kCounter;
  double value = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// An owned monotonic counter.
class Counter {
 public:
  void add(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// An owned level gauge: holds the last value set.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Registry {
 public:
  /// Returns the owned counter under `name`, registering it on first use;
  /// the address is stable for the registry's lifetime, so every holder of
  /// the name shares one counter.  A name held by another kind of entry is
  /// replaced.
  Counter& counter(const std::string& name);
  /// Returns the owned gauge under `name`, registering it on first use.
  Gauge& gauge(const std::string& name);

  /// Registers a counter whose value is read at snapshot time — for
  /// statistics an existing object already tracks (e.g. the Simulator's
  /// events_executed).  Replaces any entry under `name`.
  void counter_fn(const std::string& name, std::function<double()> fn);
  /// Registers a gauge read at snapshot time.
  void gauge_fn(const std::string& name, std::function<double()> fn);

  /// Returns the owned log-bucketed histogram under `name`, registering it
  /// on first use; stable address.  Histograms live in their own namespace
  /// (a name may be both a scalar and a histogram) and are snapshotted
  /// separately — trial aggregation merges them exactly (see
  /// LogHistogram::merge), so cross-trial percentiles come from the pooled
  /// distribution rather than a mean of per-trial points.
  LogHistogram& histogram(const std::string& name);

  /// Zeroes every owned counter and histogram (the epoch rule above).
  void reset();

  /// Copies every registered histogram (sorted by name — std::map order).
  [[nodiscard]] std::map<std::string, LogHistogram> histogram_snapshot()
      const;

  /// Reads every registered entry; result is sorted by name.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Reads one entry by name; 0.0 when absent.
  [[nodiscard]] double read(const std::string& name) const;

 private:
  struct Entry {
    StatKind kind = StatKind::kCounter;
    // Exactly one of the three is active per entry.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::function<double()> fn;

    [[nodiscard]] double value() const;
  };
  std::map<std::string, Entry> entries_;  // sorted: stable snapshots
  // unique_ptr keeps histogram addresses stable across registrations.
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

/// Folds a trial's samples into an accumulated map according to each
/// sample's kind (sum counters, max gauges).  Used by the multi-trial
/// harness; the map overload takes a MetricsSummary::stats snapshot.
void fold_samples(std::map<std::string, Sample>& into,
                  const std::vector<Sample>& trial);
void fold_samples(std::map<std::string, Sample>& into,
                  const std::map<std::string, Sample>& trial);

}  // namespace rica::obs
