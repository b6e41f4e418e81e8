#include "harness/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/rica.hpp"
#include "mobility/mobility_model.hpp"
#include "net/network.hpp"
#include "obs/anomaly.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/linkstate/linkstate.hpp"
#include "sim/random.hpp"
#include "traffic/traffic_model.hpp"

namespace rica::harness {

std::string_view to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kRica:
      return "RICA";
    case ProtocolKind::kBgca:
      return "BGCA";
    case ProtocolKind::kAbr:
      return "ABR";
    case ProtocolKind::kAodv:
      return "AODV";
    case ProtocolKind::kLinkState:
      return "LinkState";
  }
  return "?";
}

ProtocolKind protocol_from_string(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "rica") return ProtocolKind::kRica;
  if (lower == "bgca") return ProtocolKind::kBgca;
  if (lower == "abr") return ProtocolKind::kAbr;
  if (lower == "aodv") return ProtocolKind::kAodv;
  if (lower == "linkstate" || lower == "link-state" || lower == "ls") {
    return ProtocolKind::kLinkState;
  }
  throw std::invalid_argument("unknown protocol: " + std::string(name));
}

const std::vector<ScenarioPreset>& scenario_presets() {
  // Areas: paper/dense-urban 1 km², sparse-rural 2 km², metro 3 km²,
  // large-scale 200 km² (a city at the paper's density: ~50 nodes/km²).
  // Traffic pairs scale with population (the paper's 10 pairs per 50 nodes).
  // Warmup defaults scale with the field crossing time (the random-waypoint
  // speed transient decays over a few crossings at the mean speed).
  static const std::vector<ScenarioPreset> presets = {
      {"paper", "the paper's §III-A setting: 50 nodes / 1 km²", 50, 1000.0,
       10, 20.0},
      {"dense-urban", "200 nodes / 1 km²: contention-heavy city block", 200,
       1000.0, 40, 20.0},
      {"sparse-rural", "25 nodes / 2 km²: partition-prone countryside", 25,
       1414.2, 5, 30.0},
      {"metro", "500 nodes / 3 km²: stress the scale-out path", 500, 1732.1,
       100, 30.0},
      {"large-scale", "10000 nodes / 200 km²: city-scale", 10000, 14142.1,
       2000, 30.0},
  };
  return presets;
}

const ScenarioPreset& find_preset(std::string_view name) {
  for (const auto& preset : scenario_presets()) {
    if (preset.name == name) return preset;
  }
  std::string known;
  for (const auto& preset : scenario_presets()) {
    known += known.empty() ? "" : ", ";
    known += preset.name;
  }
  throw std::invalid_argument("unknown preset: " + std::string(name) +
                              " (known: " + known + ")");
}

ScenarioConfig preset_config(std::string_view name) {
  const ScenarioPreset& preset = find_preset(name);
  ScenarioConfig cfg;
  cfg.num_nodes = preset.num_nodes;
  cfg.field_m = preset.field_m;
  cfg.num_pairs = preset.num_pairs;
  return cfg;
}

mobility::MobilityConfig scenario_mobility_config(const ScenarioConfig& cfg) {
  mobility::MobilityConfig mob = mobility::parse_mobility_spec(cfg.mobility);
  mob.field = mobility::Field{cfg.field_m, cfg.field_m};
  mob.max_speed_mps = 2.0 * cfg.mean_speed_kmh / 3.6;
  mob.pause = sim::seconds_f(cfg.pause_s);
  return mob;
}

namespace {

net::NetworkConfig to_network_config(const ScenarioConfig& cfg) {
  net::NetworkConfig net;
  net.num_nodes = cfg.num_nodes;
  net.mobility = scenario_mobility_config(cfg);
  net.channel.range_m = cfg.radio_range_m;
  net.seed = cfg.seed;
  return net;
}

/// The paper installs an accurate topology snapshot into every terminal at
/// t = 0 for the link-state runs: each terminal's row as it senses it then.
routing::LinkStateProtocol::Topology snapshot_topology(net::Network& network) {
  routing::LinkStateProtocol::Topology topo(network.size());
  for (std::uint32_t a = 0; a < network.size(); ++a) {
    topo[a] = network.channel().links_of(a, sim::Time::zero());
  }
  return topo;
}

}  // namespace

void install_protocols(net::Network& network, const ScenarioConfig& cfg) {
  for (net::NodeId id = 0; id < network.size(); ++id) {
    auto& node = network.node(id);
    switch (cfg.protocol) {
      case ProtocolKind::kRica:
        node.set_protocol(
            std::make_unique<core::RicaProtocol>(node, cfg.rica));
        break;
      case ProtocolKind::kAodv:
        node.set_protocol(std::make_unique<routing::AodvProtocol>(node));
        break;
      case ProtocolKind::kBgca: {
        routing::BgcaConfig bgca;
        bgca.flow_rate_bps = cfg.pkts_per_s * cfg.packet_bytes * 8.0;
        node.set_protocol(
            std::make_unique<routing::BgcaProtocol>(node, bgca));
        break;
      }
      case ProtocolKind::kAbr:
        node.set_protocol(std::make_unique<routing::AbrProtocol>(node));
        break;
      case ProtocolKind::kLinkState: {
        routing::LinkStateConfig ls;
        ls.num_nodes = cfg.num_nodes;
        node.set_protocol(
            std::make_unique<routing::LinkStateProtocol>(node, ls));
        break;
      }
    }
  }
  if (cfg.protocol == ProtocolKind::kLinkState) {
    const auto topo = snapshot_topology(network);
    for (net::NodeId id = 0; id < network.size(); ++id) {
      auto& proto = static_cast<routing::LinkStateProtocol&>(
          network.node(id).protocol());
      proto.install_topology(topo);
    }
  }
}

namespace {

/// Connected components of the t=0 range graph, so traffic pairs are
/// routable at simulation start (the paper's near-perfect zero-mobility
/// delivery implies its pairs were connected; partitioned pairs would
/// depress every protocol identically and mask the comparison).
std::vector<std::uint32_t> components_at_t0(net::Network& network) {
  const auto n = static_cast<std::uint32_t>(network.size());
  std::vector<std::uint32_t> comp(n, n);
  std::uint32_t next_comp = 0;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (comp[start] != n) continue;
    comp[start] = next_comp;
    stack.push_back(start);
    while (!stack.empty()) {
      const auto u = stack.back();
      stack.pop_back();
      for (const auto v : network.channel().neighbors_of(u, sim::Time::zero())) {
        if (comp[v] == n) {
          comp[v] = next_comp;
          stack.push_back(v);
        }
      }
    }
    ++next_comp;
  }
  return comp;
}

std::vector<traffic::Flow> connected_flows(net::Network& network,
                                           const ScenarioConfig& cfg,
                                           const traffic::TrafficConfig& tcfg) {
  auto flow_rng = network.rng().stream("flows");
  const auto comp = components_at_t0(network);
  // Resample until every pair is connected at t=0 (bounded; falls back to
  // the last draw for pathological layouts).
  std::vector<traffic::Flow> flows;
  for (int attempt = 0; attempt < 64; ++attempt) {
    flows = traffic::make_flows(tcfg, cfg.num_pairs, cfg.num_nodes,
                                cfg.pkts_per_s, flow_rng);
    const bool ok = std::all_of(flows.begin(), flows.end(),
                                [&comp](const traffic::Flow& f) {
                                  return comp[f.src] == comp[f.dst];
                                });
    if (ok) break;
  }
  return flows;
}

// std::to_string(double) pads six decimals; error messages want "1000 m",
// not "1000.000000 m".
std::string fmt_m(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Every time field becomes int64 nanoseconds (sim::seconds_f), so it must
// be finite, non-negative and below 2^63 ns (~9.2e9 s).  The negated test
// also rejects NaN, which fails every comparison.
void check_time_field(const char* name, double s) {
  if (!(s >= 0.0) || !sim::checked_seconds_f(s)) {
    throw std::invalid_argument(
        std::string(name) + " = " + fmt_m(s) +
        " s is not a finite, non-negative time below 2^63 ns (~9.22e9 s)");
  }
}

/// The JSONL trace's filter; kNone when no trace is written.
obs::TraceFilter trace_filter_of(const ScenarioConfig& cfg) {
  return cfg.trace_out.empty() ? obs::TraceFilter::kNone
                               : obs::parse_trace_filter(cfg.trace_filter);
}

/// True when an output takes registry samples.
bool samples_registry(const ScenarioConfig& cfg, obs::TraceFilter filter) {
  return !cfg.series_out.empty() || !cfg.perfetto_out.empty() ||
         obs::has(filter, obs::TraceFilter::kKernel);
}

}  // namespace

void validate_scenario(const ScenarioConfig& cfg) {
  if (cfg.num_nodes == 0) {
    throw std::invalid_argument("num_nodes must be > 0");
  }
  if (cfg.num_nodes > net::kMaxNodes) {
    throw std::invalid_argument(
        "num_nodes = " + std::to_string(cfg.num_nodes) +
        " exceeds the 2^24 node-id limit (routing history keys pack the "
        "origin id into 24 bits)");
  }
  check_time_field("sim_s", cfg.sim_s);
  check_time_field("warmup_s", cfg.warmup_s);
  check_time_field("sample_dt_s", cfg.sample_dt_s);
  check_time_field("pause_s", cfg.pause_s);
  // A flow's mean gap is 1/pkts_per_s: a non-positive or NaN rate never
  // ends a gap, and past kMaxPktsPerS the gap is below the 1 ns tick.
  if (!(cfg.pkts_per_s > 0.0 && cfg.pkts_per_s <= traffic::kMaxPktsPerS)) {
    throw std::invalid_argument("pkts_per_s = " + fmt_m(cfg.pkts_per_s) +
                                " is outside (0, " +
                                fmt_m(traffic::kMaxPktsPerS) + "] pkt/s");
  }
  if (cfg.warmup_s > 0.0 && cfg.warmup_s >= cfg.sim_s) {
    throw std::invalid_argument(
        "warmup (" + fmt_m(cfg.warmup_s) +
        " s) must leave a measurement window before sim end (" +
        fmt_m(cfg.sim_s) + " s)");
  }
  if (!cfg.flight_dump.empty() && cfg.flight_recorder == 0) {
    throw std::invalid_argument(
        "flight_dump requires flight_recorder > 0 (nothing records without "
        "a ring)");
  }
  const obs::TraceFilter filter = trace_filter_of(cfg);
  if (cfg.sample_dt_s > 0.0 && !samples_registry(cfg, filter)) {
    throw std::invalid_argument(
        "sample_dt_s = " + fmt_m(cfg.sample_dt_s) +
        " s needs a sampled output: series_out, perfetto_out, or a trace "
        "whose filter includes kernel");
  }
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  // Validate population/warmup bounds and parse the traffic spec
  // before any expensive construction, so a typo fails with a named value,
  // not mid-build.
  validate_scenario(cfg);
  const traffic::TrafficConfig tcfg = traffic::parse_traffic_spec(cfg.traffic);
  net::Network network(to_network_config(cfg));
  install_protocols(network, cfg);

  // Observability attachments — all optional.  With none requested the
  // tracer keeps its null sink, every emission guard stays false, and the
  // run is bit-identical to a pre-observability one.  The sinks are
  // detached before this function returns (see below), so their lifetimes
  // never have to outlast the network.
  obs::Tracer& tracer = network.metrics().tracer();
  const obs::TraceFilter filter = trace_filter_of(cfg);
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  std::unique_ptr<obs::PerfettoWriter> perfetto;
  std::unique_ptr<obs::Sampler> sampler;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::SpanBook> span_book;
  std::unique_ptr<obs::AnomalyMonitor> watchdog;
  if (!cfg.trace_out.empty()) {
    trace_sink = std::make_unique<obs::JsonlTraceSink>(cfg.trace_out);
    tracer.attach(trace_sink.get(), filter);
  }
  if (cfg.flight_recorder > 0) {
    // The recorder retains every record family — a postmortem window wants
    // the whole story, not the JSONL sink's filter.
    recorder = std::make_unique<obs::FlightRecorder>(cfg.flight_recorder);
    tracer.attach_recorder(recorder.get(), obs::TraceFilter::kAll);
  }
  if (recorder != nullptr ||
      (trace_sink != nullptr && obs::has(filter, obs::TraceFilter::kSpan))) {
    span_book = std::make_unique<obs::SpanBook>(tracer);
    tracer.set_span_book(span_book.get());
  }
  if (cfg.watchdogs) {
    // A flow is stalled when it holds in-flight packets but has not
    // delivered since `cutoff`; flows that never delivered count from the
    // epoch start.
    auto stalled_flows = [&network](sim::Time cutoff) {
      std::uint64_t stalled = 0;
      const sim::Time epoch = network.metrics().epoch_start();
      for (const auto& f : network.metrics().flow_stats()) {
        if (f.generated <= f.delivered + f.dropped) continue;
        const sim::Time last =
            f.last_delivery > epoch ? f.last_delivery : epoch;
        if (last < cutoff) ++stalled;
      }
      return stalled;
    };
    watchdog = std::make_unique<obs::AnomalyMonitor>(
        cfg.anomaly, network.registry(), std::move(stalled_flows));
    watchdog->set_recorder(recorder.get(), cfg.flight_dump);
    watchdog->start(network.simulator(), sim::seconds_f(cfg.sim_s));
  }
  if (!cfg.perfetto_out.empty()) {
    perfetto = std::make_unique<obs::PerfettoWriter>(cfg.perfetto_out);
    tracer.set_perfetto(perfetto.get());
  }
  if (samples_registry(cfg, filter)) {
    sampler = std::make_unique<obs::Sampler>(
        network.registry(), cfg.series_out, perfetto.get(), &tracer);
    const double dt_s = cfg.sample_dt_s > 0.0 ? cfg.sample_dt_s : 1.0;
    sampler->start(network.simulator(), sim::seconds_f(dt_s),
                   sim::seconds_f(cfg.sim_s));
  }
  if (cfg.warmup_s > 0.0) {
    // One epoch-reset event ends the transient; it never reorders the rest
    // of the run, so a warmed-up run executes the exact event stream of a
    // cold one plus this event.  It fires one nanosecond *after* w: being
    // scheduled before network/traffic start it holds the lowest tie-break
    // sequence at its timestamp, so at w it would zero *before* same-tick
    // events and count them in the window — at w+1ns (timestamps are whole
    // nanoseconds) everything at t <= w is pre-warmup and the measured
    // window is exactly (w, sim_s], matching a cold run's post-w deltas.
    // The epoch start is stamped with the nominal w for rate normalization.
    const sim::Time w = sim::seconds_f(cfg.warmup_s);
    network.simulator().at(w + sim::Time{1}, [&network, w] {
      network.metrics().reset_epoch(w);
    });
  }

  auto flows = connected_flows(network, cfg, tcfg);
  const auto generator = traffic::make_traffic_model(
      tcfg, network, std::move(flows), cfg.packet_bytes,
      sim::seconds_f(cfg.sim_s), network.rng().stream("traffic"));
  network.start();
  generator->start();
  network.simulator().run_until(sim::seconds_f(cfg.sim_s));
  // Flush still-open spans (detail "in_flight") before any dump so the
  // flight recorder's ring — and a trailing exit dump — carry them.
  if (span_book != nullptr) span_book->finish(sim::seconds_f(cfg.sim_s));
  if (recorder != nullptr && !cfg.flight_dump.empty() &&
      (watchdog == nullptr || !watchdog->dumped())) {
    recorder->dump(cfg.flight_dump, "exit", sim::seconds_f(cfg.sim_s));
  }
  auto summary = network.metrics().finalize(sim::seconds_f(cfg.sim_s));

  // Detach before the sinks (declared after the network) are destroyed, so
  // nothing emitted during teardown can reach a dead sink.
  tracer.attach(nullptr, obs::TraceFilter::kNone);
  tracer.attach_recorder(nullptr, obs::TraceFilter::kNone);
  tracer.set_span_book(nullptr);
  tracer.set_perfetto(nullptr);
  return summary;
}

ScenarioResult average(const std::vector<ScenarioResult>& runs) {
  ScenarioResult avg;
  if (runs.empty()) return avg;
  const double n = static_cast<double>(runs.size());
  std::size_t series_len = 0;
  for (const auto& r : runs) {
    avg.generated += r.generated;
    avg.delivered += r.delivered;
    avg.delivery_pct += r.delivery_pct / n;
    avg.avg_delay_ms += r.avg_delay_ms / n;
    avg.overhead_kbps += r.overhead_kbps / n;
    avg.avg_link_tput_kbps += r.avg_link_tput_kbps / n;
    avg.avg_hops += r.avg_hops / n;
    avg.control_transmissions += r.control_transmissions;
    avg.control_collisions += r.control_collisions;
    avg.delay_p50_ms += r.delay_p50_ms / n;
    avg.delay_p95_ms += r.delay_p95_ms / n;
    avg.delay_p99_ms += r.delay_p99_ms / n;
    avg.jain_fairness += r.jain_fairness / n;
    for (std::size_t i = 0; i < stats::kNumDropReasons; ++i) {
      avg.drops[i] += r.drops[i];
    }
    avg.dropped += r.dropped;
    // Registry samples fold by their own kind — counters sum, gauges keep
    // the max — so every registered statistic (kernel work, diagnostics,
    // anomaly counts) aggregates with no edit here.
    obs::fold_samples(avg.stats, r.stats);
    // Histograms pool exactly: merge() is an element-wise count add,
    // associative and order-independent, so the aggregate distribution is
    // the distribution of the pooled samples.
    for (const auto& [name, h] : r.histograms) {
      auto [it, inserted] = avg.histograms.try_emplace(name, h);
      if (!inserted) it->second.merge(h);
    }
    // Trial hashes fold in trial order: the aggregate is itself a golden
    // fingerprint of the whole multi-trial cell.
    avg.stream_hash = stats::fnv1a(avg.stream_hash == 0
                                       ? stats::kFnvOffsetBasis
                                       : avg.stream_hash,
                                   r.stream_hash);
    avg.measure_start = std::max(avg.measure_start, r.measure_start);
    series_len = std::max(series_len, r.tput_kbps_series.size());
  }
  avg.tput_kbps_series.assign(series_len, 0.0);
  for (const auto& r : runs) {
    for (std::size_t i = 0; i < r.tput_kbps_series.size(); ++i) {
      avg.tput_kbps_series[i] += r.tput_kbps_series[i] / n;
    }
  }
  // Per-flow tables merge element-wise by flow id: every trial draws the
  // same flow ids (0..num_pairs-1), so rows align by id even though the
  // endpoints differ per seed.  Counts accumulate; rates/percentiles take
  // the per-trial mean like their scalar counterparts.
  std::map<std::uint32_t, stats::FlowSummary> merged;
  for (const auto& r : runs) {
    for (const auto& fs : r.flow_summaries) {
      auto& m = merged[fs.flow];
      m.flow = fs.flow;
      m.generated += fs.generated;
      m.delivered += fs.delivered;
      m.dropped += fs.dropped;
      m.tput_kbps += fs.tput_kbps / n;
      m.delay_p50_ms += fs.delay_p50_ms / n;
      m.delay_p95_ms += fs.delay_p95_ms / n;
      m.delay_p99_ms += fs.delay_p99_ms / n;
    }
  }
  avg.flow_summaries.reserve(merged.size());
  for (const auto& [id, fs] : merged) avg.flow_summaries.push_back(fs);
  // Exact pooled run-level percentiles: re-read from the merged delay
  // histogram, replacing the mean-of-per-trial-percentiles accumulated
  // above (kept as the fallback for hand-built summaries that carry no
  // histograms).  A mean of percentiles is not a percentile of the pool —
  // one slow trial's p95 should shift the pooled p95 by its sample share,
  // not by 1/n of its value.
  const auto pooled = avg.histograms.find("delay_ns");
  if (pooled != avg.histograms.end() && pooled->second.count() > 0) {
    avg.delay_p50_ms = pooled->second.percentile(50.0) / 1e6;
    avg.delay_p95_ms = pooled->second.percentile(95.0) / 1e6;
    avg.delay_p99_ms = pooled->second.percentile(99.0) / 1e6;
  }
  return avg;
}

std::uint64_t trial_seed(const ScenarioConfig& cfg, int trial) {
  const auto mix = [](std::uint64_t h, std::uint64_t v) {
    return sim::splitmix64(h ^ v);
  };
  std::uint64_t h = sim::splitmix64(cfg.seed);
  h = mix(h, static_cast<std::uint64_t>(cfg.protocol));
  h = mix(h, std::bit_cast<std::uint64_t>(cfg.mean_speed_kmh));
  h = mix(h, std::bit_cast<std::uint64_t>(cfg.pkts_per_s));
  h = mix(h, static_cast<std::uint64_t>(cfg.num_nodes));
  h = mix(h, std::bit_cast<std::uint64_t>(cfg.field_m));
  // The mobility model joins the cell hash only when it departs from the
  // paper's waypoint default, so every pre-subsystem waypoint result stays
  // bit-identical while the new mobility axis still gets independent seeds.
  // The *parsed* config is hashed, not the spec string, so aliases ("rwp",
  // "walk:leg=10") seed identically to their canonical forms.
  const auto mob = mobility::parse_mobility_spec(cfg.mobility);
  switch (mob.model) {
    case mobility::ModelKind::kRandomWaypoint:
      break;  // no mix: the pre-subsystem grid keeps its seeds
    case mobility::ModelKind::kRandomWalk:
      h = mix(h, static_cast<std::uint64_t>(mob.model));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.walk_leg_mean_s));
      break;
    case mobility::ModelKind::kGaussMarkov:
      h = mix(h, static_cast<std::uint64_t>(mob.model));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.gm_alpha));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.gm_step_s));
      break;
    case mobility::ModelKind::kGroup:
      h = mix(h, static_cast<std::uint64_t>(mob.model));
      h = mix(h, static_cast<std::uint64_t>(mob.group_size));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.group_radius_m));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.group_speed_frac));
      break;
    case mobility::ModelKind::kManhattan:
      h = mix(h, static_cast<std::uint64_t>(mob.model));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.manhattan_spacing_m));
      h = mix(h, std::bit_cast<std::uint64_t>(mob.manhattan_turn_prob));
      break;
    case mobility::ModelKind::kTrace:
      h = mix(h, static_cast<std::uint64_t>(mob.model));
      for (const char c : mob.trace_file) {
        h = mix(h, static_cast<std::uint64_t>(c));
      }
      break;
  }
  // The traffic model joins the cell hash the same way: only when it
  // departs from the paper's poisson-on-random-pairs default, so every
  // pre-subsystem result keeps its seeds while the traffic axis still gets
  // independent streams per model/pattern.  A domain tag separates the
  // traffic contribution from the mobility one, so e.g. a walk cell and a
  // cbr cell can never collide by mixing the same enum values.
  const auto tr = traffic::parse_traffic_spec(cfg.traffic);
  if (tr.model != traffic::TrafficKind::kPoisson ||
      tr.pattern != traffic::FlowPattern::kRandom) {
    h = mix(h, 0x7af1cULL);
    h = mix(h, static_cast<std::uint64_t>(tr.model));
    h = mix(h, static_cast<std::uint64_t>(tr.pattern));
    switch (tr.model) {
      case traffic::TrafficKind::kPoisson:
        break;
      case traffic::TrafficKind::kCbr:
        h = mix(h, std::bit_cast<std::uint64_t>(tr.cbr_jitter));
        break;
      case traffic::TrafficKind::kOnOff:
        h = mix(h, std::bit_cast<std::uint64_t>(tr.on_mean_s));
        h = mix(h, std::bit_cast<std::uint64_t>(tr.off_mean_s));
        break;
      case traffic::TrafficKind::kPareto:
        h = mix(h, std::bit_cast<std::uint64_t>(tr.on_mean_s));
        h = mix(h, std::bit_cast<std::uint64_t>(tr.off_mean_s));
        h = mix(h, std::bit_cast<std::uint64_t>(tr.pareto_shape));
        break;
      case traffic::TrafficKind::kReqResp:
        h = mix(h, std::bit_cast<std::uint64_t>(tr.think_mean_s));
        h = mix(h, std::bit_cast<std::uint64_t>(tr.timeout_s));
        h = mix(h, static_cast<std::uint64_t>(tr.request_bytes));
        break;
    }
    if (tr.pattern == traffic::FlowPattern::kHotspot) {
      h = mix(h, static_cast<std::uint64_t>(tr.hotspots));
    }
  }
  h = mix(h, static_cast<std::uint64_t>(trial));
  return h;
}

std::vector<ScenarioResult> run_trial_set(ScenarioConfig cfg, int trials) {
  const ScenarioConfig base = cfg;
  std::vector<ScenarioResult> runs;
  runs.reserve(static_cast<std::size_t>(std::max(trials, 0)));
  for (int t = 0; t < trials; ++t) {
    cfg.seed = trial_seed(base, t);
    runs.push_back(run_scenario(cfg));
  }
  return runs;
}

ScenarioResult run_trials(ScenarioConfig cfg, int trials) {
  return average(run_trial_set(std::move(cfg), trials));
}

}  // namespace rica::harness
