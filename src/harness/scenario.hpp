// Experiment harness: builds a full network + traffic for one of the five
// protocols, runs it, and returns the paper's §III metrics.  Multi-trial
// sweeps average over independent seeds exactly as the paper averages over
// 25 simulation runs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rica.hpp"
#include "mobility/mobility_model.hpp"
#include "obs/anomaly.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica::net {
class Network;
}  // namespace rica::net

namespace rica::harness {

/// The five protocols of the paper's comparison.
enum class ProtocolKind { kRica, kBgca, kAbr, kAodv, kLinkState };

inline constexpr std::array<ProtocolKind, 5> kAllProtocols = {
    ProtocolKind::kAodv, ProtocolKind::kRica, ProtocolKind::kBgca,
    ProtocolKind::kAbr, ProtocolKind::kLinkState};

[[nodiscard]] std::string_view to_string(ProtocolKind kind);

/// Parses "RICA", "aodv", "link-state", ... (case-insensitive).
[[nodiscard]] ProtocolKind protocol_from_string(std::string_view name);

/// One experiment instance.  Defaults are the paper's §III-A parameters
/// except `sim_s`, which the bench flags raise to 500 s at paper scale.
struct ScenarioConfig {
  ProtocolKind protocol = ProtocolKind::kRica;
  std::size_t num_nodes = 50;
  double field_m = 1000.0;
  double radio_range_m = 250.0;
  double mean_speed_kmh = 36.0;  ///< speeds ~ U(0, 2*mean); paper's x-axis
  double pause_s = 3.0;
  /// Mobility model spec "model[:k=v,...]" (see mobility::parse_mobility_spec);
  /// field size, speed, and pause always come from the scenario fields above.
  std::string mobility = "waypoint";
  std::size_t num_pairs = 10;
  double pkts_per_s = 10.0;
  std::uint16_t packet_bytes = 512;
  /// Traffic model spec "model[:k=v,...]" (see traffic::parse_traffic_spec);
  /// per-flow rate and payload size always come from the fields above, so
  /// the spec composes with the paper's load axis.  The default reproduces
  /// the pre-subsystem workload bit for bit.
  std::string traffic = "poisson";
  double sim_s = 100.0;
  /// Measurement warmup, seconds: metrics reset once at t = warmup_s (a
  /// single epoch-reset event, so the event stream is identical to a
  /// warmup-free run) and rates are reported over (warmup_s, sim_s].  0
  /// measures the whole run, bit-identical to the pre-warmup harness.
  double warmup_s = 0.0;
  std::uint64_t seed = 1;
  /// RICA settings used when protocol == kRica (the claims gate runs
  /// variants of them).
  core::RicaConfig rica{};
  // -- observability (all off by default) -----------------------------------
  // None of these fields joins trial_seed hashing or perturbs the event
  // stream feeding the metrics hash, so an instrumented run replays the
  // exact seeds — and golden hashes — of an uninstrumented one.  (A run
  // with sampling enabled does execute extra sampler events, moving
  // kernel.events_executed; the stream hash never sees them.)
  std::string trace_out;    ///< JSONL structured-trace path ("" = off)
  std::string trace_filter = "all";  ///< packet|route|kernel|span|all list
  std::string perfetto_out;  ///< Chrome trace_event JSON path ("" = off)
  std::string series_out;    ///< time-series CSV path ("" = off)
  double sample_dt_s = 0.0;  ///< registry sampling period; 0 = 1 s default
  /// Always-on flight recorder: ring capacity in records, 0 = off.  The
  /// recorder sees every record family (spans included) and costs a struct
  /// copy per record — cheap enough to leave on in long runs.
  std::size_t flight_recorder = 0;
  /// Flight-recorder dump path.  Written by the first anomaly trigger when
  /// watchdogs are on, otherwise once at run end (trigger "exit").
  /// Requires flight_recorder > 0.
  std::string flight_dump;
  /// Arms the anomaly watchdogs (see obs::AnomalyConfig); trigger counters
  /// land in the registry under "anomaly.*" whether or not a flight
  /// recorder is attached.
  bool watchdogs = false;
  obs::AnomalyConfig anomaly{};
};

/// A named workload preset: the paper's baseline plus the larger/denser
/// populations the spatial neighbor index makes affordable.  Field side is
/// chosen so the preset's advertised area holds (e.g. 2 km² -> ~1414 m).
struct ScenarioPreset {
  std::string_view name;
  std::string_view summary;
  std::size_t num_nodes;
  double field_m;
  std::size_t num_pairs;
  /// Default measurement warmup for the preset, seconds: long enough for
  /// the mobility transient (random-waypoint's speed decay scales with the
  /// field crossing time) and route discovery to settle.  bench_scale caps
  /// it at 20% of the simulated time so short smoke runs keep a window.
  double warmup_s;
};

/// All built-in presets: paper, dense-urban, sparse-rural, metro,
/// large-scale.
[[nodiscard]] const std::vector<ScenarioPreset>& scenario_presets();

/// The named preset; throws std::invalid_argument (listing the known
/// presets) for unknown names.
[[nodiscard]] const ScenarioPreset& find_preset(std::string_view name);

/// A ScenarioConfig with the named preset's population applied over the
/// paper's defaults.  Throws std::invalid_argument for unknown names.
/// The preset's default warmup is *not* applied here — the bench flags
/// decide the measurement window (see bench_scale) — so direct
/// run_scenario users keep whole-run measurement unless they opt in.
[[nodiscard]] ScenarioConfig preset_config(std::string_view name);

/// The mobility configuration a scenario realizes: the spec string parsed,
/// with field, speed bound (2 x mean, the paper's U(0, 2*mean) draw), and
/// pause taken from the scenario fields.  The single source of truth shared
/// by the network builder, trace recording (quickstart --record-trace), and
/// tests — so a realization recorded outside a run is guaranteed to match
/// the trajectories the run itself realizes for the same seed.
[[nodiscard]] mobility::MobilityConfig scenario_mobility_config(
    const ScenarioConfig& cfg);

/// Validates a scenario before any expensive construction: population
/// bounds (0 < num_nodes <= 2^24, mirroring the Network's node-id packing
/// limit), every time field (sim, warmup, sample period, pause) within
/// sim::Time's range, the measurement window (0 <= warmup < sim time), the
/// offered load (0 < pkts_per_s <= 1e9), the trace filter, and the
/// flight-recorder and sampling pairings.  Throws std::invalid_argument
/// naming the offending value; run_scenario calls this first, so every
/// entry point fails identically before a network is built.
void validate_scenario(const ScenarioConfig& cfg);

/// Installs `cfg.protocol` on every terminal of `network`.  BGCA gets the
/// flow rate pkts_per_s x packet_bytes x 8; link-state terminals also get
/// the paper's accurate t = 0 topology (§III-A), each row as its terminal
/// senses it then.
void install_protocols(net::Network& network, const ScenarioConfig& cfg);

/// A run's outcome: the §III metrics.
using ScenarioResult = stats::MetricsSummary;

/// Runs a single trial.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& cfg);

/// Per-metric mean over trials, including the element-wise mean of the
/// throughput time series.
[[nodiscard]] ScenarioResult average(const std::vector<ScenarioResult>& runs);

/// Deterministic per-trial seed: a SplitMix64 hash of the experiment cell
/// (base seed, protocol, speed, load, population) and the trial number.
/// Unlike the old seed, seed+1, ... scheme, nearby base seeds and adjacent
/// grid cells never share RNG streams, so cells stay independent no matter
/// how a (possibly parallel) sweep enumerates them.
[[nodiscard]] std::uint64_t trial_seed(const ScenarioConfig& cfg, int trial);

/// Runs `trials` independent hashed seeds (see trial_seed), in trial order.
[[nodiscard]] std::vector<ScenarioResult> run_trial_set(ScenarioConfig cfg,
                                                        int trials);

/// Runs `trials` independent hashed seeds (see trial_seed) and averages.
[[nodiscard]] ScenarioResult run_trials(ScenarioConfig cfg, int trials);

}  // namespace rica::harness
