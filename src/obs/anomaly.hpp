// Anomaly watchdogs: windowed health monitors that turn "the run degraded
// at t=380s" from a postmortem into an artifact.
//
// An AnomalyMonitor schedules a real simulation event every 1 s window
// (like obs::Sampler it moves events_executed but only *reads* network
// state, so the metrics stream hash — and every golden fingerprint — is
// untouched) and evaluates four monitors, three on registry stats:
//
//   * drop_spike       — `net.dropped` within the window >= drop_rate_per_s
//   * discovery_storm  — `routing.discovery_failed` within the window >=
//                        threshold
//   * stalled_flows    — a flow holds undelivered packets and saw no
//                        delivery for stall_s (a caller-supplied count)
//   * queue_backlog    — `stack.buffered_packets` >= threshold
//
// Each trigger bumps a registry counter (anomaly.drop_spike, ...); the
// counters read as "windows in violation", so a sustained stall is visible
// as a count, not a single blip.  The *first* trigger also dumps the flight
// recorder (when one is attached) with the monitor's name as the dump
// trigger — capturing the onset, which is the window a postmortem wants.
// Thresholds, sources, and sim-time ticks are all deterministic, so
// triggers (and dump bytes) are identical across reruns.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rica::obs {

class FlightRecorder;

/// Watchdog thresholds; a non-positive threshold disables its monitor.
struct AnomalyConfig {
  double drop_rate_per_s = 50.0;    ///< drop_spike: drops/s within a window
  std::uint64_t discovery_failures = 8;  ///< discovery_storm: per window
  double stall_s = 5.0;             ///< stalled_flows: silence bound
  std::uint64_t queue_backlog = 256;  ///< queue_backlog: buffered packets
};

class AnomalyMonitor {
 public:
  /// Flows holding undelivered packets whose last delivery precedes the
  /// given cutoff time.
  using StalledFlowsFn = std::function<std::uint64_t(sim::Time cutoff)>;

  /// Reads its sources from `registry` and registers its counters there.
  AnomalyMonitor(const AnomalyConfig& cfg, Registry& registry,
                 StalledFlowsFn stalled_flows);
  AnomalyMonitor(const AnomalyMonitor&) = delete;
  AnomalyMonitor& operator=(const AnomalyMonitor&) = delete;

  /// Attaches the flight recorder the first trigger dumps; `dump_path`
  /// empty disables dumping (counters still fire).
  void set_recorder(const FlightRecorder* recorder, std::string dump_path) {
    recorder_ = recorder;
    dump_path_ = std::move(dump_path);
  }

  /// Arms the periodic evaluation event (call before the run; ticks every
  /// 1 s until `end`).
  void start(sim::Simulator& sim, sim::Time end);

  /// True once the first trigger has dumped the flight recorder.
  [[nodiscard]] bool dumped() const { return dumped_; }

 private:
  void arm(sim::Simulator& sim);
  void tick(sim::Simulator& sim);
  void fire(std::string_view monitor, Counter& counter, sim::Time now);

  AnomalyConfig cfg_;
  const Registry& registry_;
  StalledFlowsFn count_stalled_;
  Counter& drop_spike_;
  Counter& discovery_storm_;
  Counter& stalled_flows_;
  Counter& queue_backlog_;
  Counter& dumps_;
  const FlightRecorder* recorder_ = nullptr;
  std::string dump_path_;
  sim::Time end_{};
  std::uint64_t last_drops_ = 0;
  std::uint64_t last_discovery_failures_ = 0;
  bool dumped_ = false;
};

}  // namespace rica::obs
