// Pluggable traffic/workload subsystem: the selectable arrival models, the
// flow-pattern axis that decides which terminal pairs carry the load, and
// the two generators that drive them.
//
// The paper evaluates RICA under exactly one workload — Poisson arrivals on
// random distinct terminal pairs (§III-A) — but the workload shape
// materially changes on-demand routing results: constant-bit-rate flows
// (the CBR/UDP-over-AODV study, arXiv:1109.6502) and bursty correlated
// demand (route-request aggregation, arXiv:1608.08725) stress discovery in
// ways Poisson traffic never does.  Models are selected by a spec string
// `model[:key=value,...]` mirroring the mobility subsystem's grammar.
//
// Two generators serve the five models.  OpenLoopTraffic (below) runs the
// four open-loop arrival laws — poisson, cbr, onoff, pareto — which differ
// only in how a flow's next inter-arrival gap is drawn.  ReqRespTraffic
// (reqresp.hpp) is the closed loop, whose next send waits on delivery.
//
// Determinism contracts (the golden suite depends on both):
//  1. Every random draw comes from the one RandomStream handed to the
//     generator (the RngManager's "traffic" stream) in event-execution
//     order, so fixed-seed runs are bit-reproducible across event-queue
//     backends and parallel sweeps equal serial ones.
//  2. The `poisson` model with the default `random` pattern reproduces the
//     pre-subsystem generator draw for draw: paper-parameter golden stream
//     hashes are unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace rica::net {
class Network;
}

namespace rica::traffic {

/// The highest flow (or in-burst) packet rate, pkt/s: its mean gap is one
/// 1 ns clock tick.
inline constexpr double kMaxPktsPerS = 1e9;

/// One unidirectional application flow.
struct Flow {
  std::uint32_t id = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double pkts_per_s = 10.0;
};

/// The selectable arrival models.
enum class TrafficKind {
  kPoisson,  ///< the paper's model: exponential inter-arrival gaps
  kCbr,      ///< constant rate, optional uniform jitter (arXiv:1109.6502)
  kOnOff,    ///< exponential ON/OFF bursts at a burst rate
  kPareto,   ///< heavy-tailed (Pareto) ON/OFF periods: self-similar demand
  kReqResp,  ///< closed-loop request -> response with think time
};

/// How flow endpoints are drawn from the population.
enum class FlowPattern {
  kRandom,   ///< the paper's setting: distinct random (src, dst) pairs
  kSink,     ///< many-to-one convergecast onto a single sink terminal
  kHotspot,  ///< k hotspot destinations shared round-robin by the sources
  kRing,     ///< a ring: each sampled terminal sends to the next one
};

[[nodiscard]] std::string_view to_string(TrafficKind kind);
[[nodiscard]] std::string_view to_string(FlowPattern pattern);

/// Parses "poisson", "cbr", "onoff", "pareto", "reqresp" (plus common
/// aliases, case-insensitive).  Throws std::invalid_argument listing the
/// known models for anything else.
[[nodiscard]] TrafficKind traffic_kind_from_string(std::string_view name);

/// Parses "random", "sink", "hotspot", "ring" (plus aliases).  Throws
/// std::invalid_argument listing the known patterns for anything else.
[[nodiscard]] FlowPattern flow_pattern_from_string(std::string_view name);

/// The model spec names, in presentation order (for sweeps and usage text).
[[nodiscard]] const std::vector<std::string>& known_traffic_models();

/// The pattern names, in presentation order.
[[nodiscard]] const std::vector<std::string>& known_flow_patterns();

/// Configuration shared by every model, plus the per-model tunables.  Only
/// the fields of the selected `model` are read; the rest stay inert.  The
/// per-flow packet rate and payload size always come from the scenario
/// (`ScenarioConfig::pkts_per_s` / `packet_bytes`), so traffic specs compose
/// with the paper's load axis instead of overriding it.
struct TrafficConfig {
  TrafficKind model = TrafficKind::kPoisson;
  FlowPattern pattern = FlowPattern::kRandom;

  // Hotspot pattern: number of shared destination terminals.
  std::size_t hotspots = 3;

  // CBR ("cbr"): jitter fraction in [0, 1) — each gap is drawn uniformly
  // from [(1-j)/rate, (1+j)/rate]; 0 keeps the gap exactly 1/rate.  Flows
  // always start at a uniform random phase so they never tick in lockstep.
  double cbr_jitter = 0.0;

  // ON/OFF ("onoff") and Pareto ("pareto"): mean ON and OFF durations,
  // seconds.  The burst rate during ON is scaled to (on+off)/on times the
  // flow rate, so the time-averaged offered load stays the scenario's
  // pkts_per_s and traffic models compare apples-to-apples.
  double on_mean_s = 1.0;
  double off_mean_s = 1.0;

  // Pareto only: tail index of the ON/OFF period distribution; must exceed
  // 1 so the mean exists.  Smaller values mean heavier tails.
  double pareto_shape = 1.5;

  // Request/response ("reqresp"): exponential mean think time between a
  // received response and the next request, the response deadline after
  // which the source gives up and re-enters think, and the request payload
  // (responses use the scenario's packet_bytes).
  double think_mean_s = 1.0;
  double timeout_s = 2.0;
  std::uint16_t request_bytes = 64;
};

/// Parses a command-line traffic spec "model[:key=value,...]" onto `base`.
/// `pattern=` and `hotspots=` are accepted for every model; the remaining
/// keys are model-scoped ("cbr:jitter=0.2", "onoff:on=0.5,off=2",
/// "pareto:on=1,off=1,shape=1.4", "reqresp:think=0.5,timeout=2,req=64").
/// Unknown models, patterns, or keys and out-of-range values throw
/// std::invalid_argument with the valid choices.
[[nodiscard]] TrafficConfig parse_traffic_spec(std::string_view spec,
                                               TrafficConfig base = {});

/// Draws `num_pairs` flows with distinct endpoints from `num_nodes`
/// terminals (the paper's "10 terminal pairs").  Throws
/// std::invalid_argument when the population cannot supply 2*num_pairs
/// distinct terminals.
[[nodiscard]] std::vector<Flow> random_flows(std::size_t num_pairs,
                                             std::size_t num_nodes,
                                             double pkts_per_s,
                                             sim::RandomStream& rng);

/// Draws `num_pairs` flows under `cfg.pattern`.  Endpoint requirements are
/// validated up front (each pattern needs a different number of distinct
/// terminals); violations throw std::invalid_argument with the arithmetic.
/// The `random` pattern reproduces random_flows() draw for draw.
[[nodiscard]] std::vector<Flow> make_flows(const TrafficConfig& cfg,
                                           std::size_t num_pairs,
                                           std::size_t num_nodes,
                                           double pkts_per_s,
                                           sim::RandomStream& rng);

/// Workload generator for a whole network: owns the flows, per-flow
/// sequence numbers, and one pending timer per flow.  Concrete generators
/// decide when each flow's next packet leaves.
class TrafficModel {
 public:
  TrafficModel(net::Network& network, std::vector<Flow> flows,
               std::uint16_t packet_bytes, sim::Time stop,
               sim::RandomStream rng);
  virtual ~TrafficModel() = default;
  TrafficModel(const TrafficModel&) = delete;
  TrafficModel& operator=(const TrafficModel&) = delete;

  /// Arms the first arrival of every flow (in flow-id order, so the draw
  /// sequence is independent of event-queue internals).
  virtual void start() = 0;

 protected:
  /// Originates one packet of flow `flow_idx` from `src` toward `dst`.
  /// Sequence numbers are shared across both directions of the flow, so a
  /// reqresp response continues the request's per-flow sequence space.
  void emit(std::size_t flow_idx, net::NodeId src, net::NodeId dst,
            std::uint16_t bytes);

  net::Network& network_;
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<sim::Timer> timers_;  ///< one pending arrival/deadline per flow
  std::uint16_t packet_bytes_;
  sim::Time stop_;
  sim::RandomStream rng_;
};

/// The open-loop models (`cfg.model` poisson, cbr, onoff or pareto): each
/// flow is an autonomous arrival process of scenario-size packets, and the
/// models differ only in next_gap_s().
///  - poisson: exponential gaps at the flow rate (the paper's workload).
///  - cbr: a constant gap 1/rate with optional uniform jitter.  Each flow
///    starts at a uniform random phase inside its first gap so flows never
///    tick in lockstep (which would synchronize MAC contention).
///  - onoff: exponential ON and OFF periods, Poisson arrivals inside a
///    burst.  A burst arriving on a cold route floods discovery, then the
///    route idles out during OFF.
///  - pareto: Pareto ON and OFF periods (tail index `pareto_shape`) and a
///    constant spacing inside a burst: the classic self-similar workload.
/// The burst models send at rate * (on + off) / on during ON, so every
/// model offers the scenario's time-averaged load.
class OpenLoopTraffic final : public TrafficModel {
 public:
  /// Throws std::invalid_argument, naming the value, when `cfg.model` is
  /// reqresp or a flow's rate (or, for onoff and pareto, its burst rate)
  /// is outside (0, kMaxPktsPerS]: such a gap is zero, negative or NaN and
  /// would stall the run.
  OpenLoopTraffic(net::Network& network, std::vector<Flow> flows,
                  std::uint16_t packet_bytes, sim::Time stop,
                  sim::RandomStream rng, const TrafficConfig& cfg);

  void start() override;

 private:
  /// Per-flow state: cbr's first gap is its phase offset, and the burst
  /// models carry the unused rest of the current ON period.
  struct FlowPhase {
    bool started = false;
    double on_left_s = 0.0;  ///< remaining time in the current ON period
  };

  /// Gap to this flow's next arrival, seconds.  Draws from rng_ happen in
  /// event-execution order, which is what keeps runs bit-reproducible.
  [[nodiscard]] double next_gap_s(std::size_t flow_idx);
  /// An ON or OFF period with mean `mean_s`: exponential for onoff, Pareto
  /// for pareto.
  [[nodiscard]] double period_s(double mean_s);
  /// The in-burst rate that keeps a burst model's time-averaged load at
  /// `rate`.
  [[nodiscard]] double burst_rate(double rate) const {
    return rate * (cfg_.on_mean_s + cfg_.off_mean_s) / cfg_.on_mean_s;
  }
  void schedule_next(std::size_t flow_idx);

  TrafficConfig cfg_;
  std::vector<FlowPhase> phase_;
};

/// Builds the model selected by `cfg.model`.  `rng` should be the
/// RngManager's "traffic" stream so switching models never perturbs other
/// components' random sequences.
[[nodiscard]] std::unique_ptr<TrafficModel> make_traffic_model(
    const TrafficConfig& cfg, net::Network& network, std::vector<Flow> flows,
    std::uint16_t packet_bytes, sim::Time stop, sim::RandomStream rng);

}  // namespace rica::traffic
