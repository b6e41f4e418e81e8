// The paper's motivating scenario (§I): peer-to-peer file swapping among
// PDAs/notebooks that formed an ad hoc network.  Each "swap" is a flow of
// 512-byte chunks between two terminals; we run the swarm over RICA (or any
// protocol via --protocol) and report per-transfer outcomes.
//
// Flags: --protocol NAME --pairs N --rate PKTS --mean-speed KMH --sim-time S
//        --seed K
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "net/network.hpp"
#include "traffic/traffic_model.hpp"

using namespace rica;

int main(int argc, char** argv) {
  try {
    const harness::Flags flags(argc, argv);
    flags.require_known(
        {"protocol", "pairs", "rate", "mean-speed", "sim-time", "seed"});
    const auto kind =
        harness::protocol_from_string(flags.get("protocol", "rica"));
    const auto pairs = static_cast<std::size_t>(flags.get("pairs", 10));
    const double rate = flags.get("rate", 10.0);
    const double sim_s = flags.get("sim-time", 120.0);

    harness::ScenarioConfig scenario;
    scenario.protocol = kind;
    scenario.num_nodes = 50;
    scenario.pkts_per_s = rate;
    scenario.packet_bytes = 512;

    net::NetworkConfig cfg;
    cfg.num_nodes = scenario.num_nodes;
    cfg.mobility.max_speed_mps = 2.0 * flags.get("mean-speed", 18.0) / 3.6;
    cfg.seed = flags.get("seed", static_cast<std::uint64_t>(1));

    net::Network network(cfg);
    harness::install_protocols(network, scenario);

    auto rng = network.rng().stream("flows");
    auto flows = traffic::random_flows(pairs, cfg.num_nodes, rate, rng);
    traffic::OpenLoopTraffic traffic(network, flows, scenario.packet_bytes,
                                     sim::seconds_f(sim_s),
                                     network.rng().stream("traffic"),
                                     traffic::TrafficConfig{});
    network.start();
    traffic.start();

    std::cout << "File swarm over " << harness::to_string(kind) << ": "
              << pairs << " transfers, " << rate << " chunks/s each, "
              << sim_s << " s\n\n";
    network.simulator().run_until(sim::seconds_f(sim_s));

    harness::Table table({"transfer", "route", "chunks_sent",
                          "chunks_received", "loss_%", "avg_delay_ms"});
    const auto& per_flow = network.metrics().flow_stats();
    for (const auto& flow : flows) {
      if (flow.id >= per_flow.size() || !per_flow[flow.id].seen()) continue;
      const auto& st = per_flow[flow.id];
      const double loss =
          st.generated == 0
              ? 0.0
              : 100.0 * static_cast<double>(st.generated - st.delivered) /
                    static_cast<double>(st.generated);
      const double delay =
          st.delivered == 0
              ? 0.0
              : st.delay_sum_ms / static_cast<double>(st.delivered);
      table.add_row({"#" + std::to_string(flow.id),
                     std::to_string(flow.src) + " -> " +
                         std::to_string(flow.dst),
                     std::to_string(st.generated),
                     std::to_string(st.delivered), harness::fmt(loss, 1),
                     harness::fmt(delay, 1)});
    }
    table.print(std::cout);

    const auto summary =
        network.metrics().finalize(sim::seconds_f(sim_s));
    std::cout << "\nswarm total: " << summary.delivered << "/"
              << summary.generated << " chunks ("
              << harness::fmt(summary.delivery_pct, 1) << "%), avg delay "
              << harness::fmt(summary.avg_delay_ms, 1) << " ms, overhead "
              << harness::fmt(summary.overhead_kbps, 1) << " kbps\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
