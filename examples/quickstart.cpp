// Quickstart: run one RICA scenario at the paper's parameters and print the
// §III metrics.  Try `--protocol aodv --mean-speed 72` to compare, or
// `--mobility manhattan --warmup 20` to change the motion and skip the
// transient.  `--traffic` swaps the workload: `--traffic onoff:on=0.5,off=2`
// sends the same offered load in bursts, `--traffic reqresp` closes the
// loop (requests earn responses), and every model takes
// `pattern=random|sink|hotspot|ring` to reshape who talks to whom — e.g.
// `--traffic cbr:pattern=sink` is a constant-rate convergecast.
// `--record-trace FILE` records this scenario's exact mobility realization
// as a BonnMotion trace (`--trace-dt` sets the sample interval); replay it
// with `--mobility trace:file=FILE`.
//
// Observability: `--trace-out run.jsonl` streams structured packet/route/
// kernel lifecycle records (narrow with `--trace-filter packet,route`);
// `--span-trace` adds causal span records — one root per packet whose
// child durations (route_wait/queue/backoff/airtime/retry) sum exactly to
// its end-to-end delay; reconstruct chains with scripts/trace_query.py.
// `--perfetto-out run.json` writes a Chrome trace_event profile — open
// chrome://tracing (or https://ui.perfetto.dev) and load the file to see
// per-link data transmissions, per-node control traffic, and one counter
// track per registry stat on a shared timeline; `--series-out run.csv
// --sample-dt 0.5` samples every registry stat (queue depth, deliveries,
// control bytes, ...) every 0.5 s as `t_s,stat,value` rows.
// `--flight-recorder[=N]` keeps the last N trace records (default 65536)
// in a ring cheap enough to leave on; `--flight-dump FILE` writes them as
// JSONL at exit — or at the first anomaly when `--watchdogs` arms the
// drop-spike / discovery-storm / stalled-flow / queue-backlog monitors.
// All sim-time stamped: rerunning the same seed reproduces every output
// byte for byte.  An unknown flag is an error, not a silent no-op.
#include <cstdio>
#include <exception>
#include <string>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "mobility/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/random.hpp"

int main(int argc, char** argv) {
  using namespace rica;
  try {
    const harness::Flags flags(argc, argv);
    flags.require_known(
        {"preset", "protocol", "mean-speed", "rate", "sim-time", "warmup",
         "mobility", "traffic", "seed", "trace-out", "trace-filter",
         "span-trace", "perfetto-out", "series-out", "sample-dt",
         "flight-recorder", "flight-dump", "watchdogs", "record-trace",
         "trace-dt", "verbose"});
    harness::ScenarioConfig cfg;
    if (flags.has("preset")) {
      cfg = harness::preset_config(flags.get("preset", std::string{"paper"}));
    }
    cfg.protocol =
        harness::protocol_from_string(flags.get("protocol", "rica"));
    cfg.mean_speed_kmh = flags.get("mean-speed", 36.0);
    cfg.pkts_per_s = flags.get("rate", 10.0);
    cfg.sim_s = flags.get("sim-time", 60.0);
    cfg.warmup_s = flags.get("warmup", 0.0);
    cfg.mobility = flags.get("mobility", cfg.mobility);
    cfg.traffic = flags.get("traffic", cfg.traffic);
    cfg.seed = flags.get("seed", static_cast<std::uint64_t>(1));
    cfg.trace_out = flags.get("trace-out", std::string{});
    cfg.trace_filter = flags.get("trace-filter", cfg.trace_filter);
    if (flags.has("span-trace") &&
        cfg.trace_filter.find("span") == std::string::npos) {
      cfg.trace_filter += ",span";
    }
    cfg.perfetto_out = flags.get("perfetto-out", std::string{});
    cfg.series_out = flags.get("series-out", std::string{});
    cfg.sample_dt_s = flags.get("sample-dt", 0.0);
    if (flags.has("flight-recorder")) {
      // Bare `--flight-recorder` parses as "1": treat it as "use the
      // default ring"; an explicit `=N` sets the capacity.
      const auto n = flags.get("flight-recorder", std::uint64_t{1});
      cfg.flight_recorder =
          n <= 1 ? obs::FlightRecorder::kDefaultCapacity
                 : static_cast<std::size_t>(n);
    }
    cfg.flight_dump = flags.get("flight-dump", std::string{});
    cfg.watchdogs = flags.has("watchdogs");

    std::printf("protocol=%s  nodes=%zu  field=%.0fm  mean speed=%.1f km/h\n",
                std::string(harness::to_string(cfg.protocol)).c_str(),
                cfg.num_nodes, cfg.field_m, cfg.mean_speed_kmh);
    std::printf("flows=%zu x %.0f pkt/s x %u B, sim time=%.0f s, seed=%llu\n",
                cfg.num_pairs, cfg.pkts_per_s, cfg.packet_bytes, cfg.sim_s,
                static_cast<unsigned long long>(cfg.seed));
    std::printf("mobility=%s  traffic=%s  warmup=%.0f s\n\n",
                cfg.mobility.c_str(), cfg.traffic.c_str(), cfg.warmup_s);

    if (flags.has("record-trace")) {
      // Rebuild the run's mobility realization (same seed -> same named RNG
      // streams -> identical trajectories) and record it for replay.
      const auto path = flags.get("record-trace", std::string{});
      const auto mob = harness::scenario_mobility_config(cfg);
      const sim::RngManager rng(cfg.seed);
      const auto model = mobility::make_mobility_model(cfg.num_nodes, mob, rng);
      const auto dt = sim::seconds_f(flags.get("trace-dt", 1.0));
      mobility::write_bonnmotion_trace(*model, sim::seconds_f(cfg.sim_s), dt,
                                       path);
      std::printf("recorded mobility to %s; replay with"
                  " --mobility trace:file=%s\n\n",
                  path.c_str(), path.c_str());
    }

    const auto r = harness::run_scenario(cfg);

    std::printf("generated packets     : %llu\n",
                static_cast<unsigned long long>(r.generated));
    std::printf("delivered packets     : %llu (%.1f%%)\n",
                static_cast<unsigned long long>(r.delivered), r.delivery_pct);
    std::printf("avg end-to-end delay  : %.1f ms (p50 %.1f / p95 %.1f /"
                " p99 %.1f)\n",
                r.avg_delay_ms, r.delay_p50_ms, r.delay_p95_ms,
                r.delay_p99_ms);
    std::printf("flow fairness (Jain)  : %.3f over %zu flows\n",
                r.jain_fairness, r.flow_summaries.size());
    std::printf("routing overhead      : %.1f kbps\n", r.overhead_kbps);
    std::printf("avg link throughput   : %.1f kbps\n", r.avg_link_tput_kbps);
    std::printf("avg route length      : %.2f hops\n", r.avg_hops);
    std::printf("control transmissions : %llu (%llu collided receptions)\n",
                static_cast<unsigned long long>(r.control_transmissions),
                static_cast<unsigned long long>(r.control_collisions));
    std::printf("drops: total=%llu overflow=%llu expired=%llu no-route=%llu "
                "link-break=%llu loop-cap=%llu\n",
                static_cast<unsigned long long>(r.dropped),
                static_cast<unsigned long long>(r.drops[0]),
                static_cast<unsigned long long>(r.drops[1]),
                static_cast<unsigned long long>(r.drops[2]),
                static_cast<unsigned long long>(r.drops[3]),
                static_cast<unsigned long long>(r.drops[4]));
    if (!cfg.trace_out.empty()) {
      std::printf("structured trace      : %s\n", cfg.trace_out.c_str());
    }
    if (!cfg.perfetto_out.empty()) {
      std::printf("kernel profile        : %s (open in chrome://tracing or"
                  " ui.perfetto.dev)\n",
                  cfg.perfetto_out.c_str());
    }
    if (!cfg.series_out.empty()) {
      std::printf("time series           : %s\n", cfg.series_out.c_str());
    }
    if (cfg.watchdogs) {
      std::printf("watchdogs             : drop_spike=%.0f"
                  " discovery_storm=%.0f stalled=%.0f backlog=%.0f\n",
                  r.stat("anomaly.drop_spike"),
                  r.stat("anomaly.discovery_storm"),
                  r.stat("anomaly.stalled_flows"),
                  r.stat("anomaly.queue_backlog"));
    }
    if (!cfg.flight_dump.empty()) {
      std::printf("flight dump           : %s\n", cfg.flight_dump.c_str());
    }
    if (flags.has("verbose")) {
      std::printf("\nper-flow (gen/del/drop, tput kbps, p95 ms):\n");
      for (const auto& fs : r.flow_summaries) {
        std::printf("  flow %-3u %6llu /%6llu /%6llu  %8.1f  %8.1f\n",
                    fs.flow, static_cast<unsigned long long>(fs.generated),
                    static_cast<unsigned long long>(fs.delivered),
                    static_cast<unsigned long long>(fs.dropped), fs.tput_kbps,
                    fs.delay_p95_ms);
      }
      std::printf("\nregistry (c=counter, g=gauge):\n");
      for (const auto& [name, s] : r.stats) {
        std::printf("  %c %-26s %.2f\n",
                    s.kind == rica::obs::StatKind::kCounter ? 'c' : 'g',
                    name.c_str(), s.value);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
