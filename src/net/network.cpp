#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "net/packet.hpp"
#include "net/wire.hpp"

namespace rica::net {

namespace {
// Runs before any heavy member construction: cfg_ is the first member, so
// validating inside its initializer rejects oversized populations before
// mobility/channel state is allocated.
const NetworkConfig& validate(const NetworkConfig& cfg) {
  // The wire layout constants back airtime accounting; refuse to build any
  // network if they drifted from the live encoders.  The codecs are fixed
  // at compile time, so one check per process suffices (a throw leaves the
  // static unset, and the next network checks again).
  static const bool wire_ok = (wire::check_wire_invariants(), true);
  (void)wire_ok;
  if (cfg.num_nodes > kMaxNodes) {
    throw std::invalid_argument(
        "NetworkConfig.num_nodes = " + std::to_string(cfg.num_nodes) +
        " exceeds the 2^24 node-id limit (routing history keys pack the "
        "origin id into 24 bits)");
  }
  return cfg;
}
}  // namespace

Network::Network(const NetworkConfig& cfg)
    : cfg_(validate(cfg)),
      rng_(cfg.seed),
      mobility_(cfg.num_nodes, cfg.mobility, rng_),
      channel_(cfg.channel, mobility_, rng_),
      common_mac_(sim_, channel_, rng_, metrics_, cfg.common_mac),
      flood_log_(cfg.num_nodes) {
  nodes_.reserve(cfg.num_nodes);
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        static_cast<NodeId>(i), sim_, channel_, common_mac_, flood_log_,
        metrics_, data_pool_, cfg.link, rng_.stream("protocol", i)));
  }
  for (auto& node : nodes_) {
    node->set_peer_delivery([this](NodeId to, DataPacket pkt, NodeId from) {
      nodes_.at(to)->receive_data(std::move(pkt), from);
    });
  }

  // One registration per statistic; finalize() snapshots the registry into
  // MetricsSummary::stats.  Counters sum across trials; gauges keep the
  // per-trial maximum.  These read their owners for the whole run (a
  // warmup reset does not zero them).
  obs::Registry& reg = registry();
  reg.counter_fn("kernel.events_executed", [this] {
    return static_cast<double>(sim_.events_executed());
  });
  reg.counter_fn("kernel.heap_fallbacks", [this] {
    return static_cast<double>(sim_.heap_fallbacks());
  });
  reg.gauge_fn("kernel.pending", [this] {
    return static_cast<double>(sim_.pending_events());
  });
  reg.gauge_fn("kernel.peak_pending", [this] {
    return static_cast<double>(sim_.peak_pending_events());
  });
  reg.gauge_fn("stack.pool_high_water", [this] {
    return static_cast<double>(pool_high_water());
  });
  reg.gauge_fn("stack.pool_bytes", [this] {
    return static_cast<double>(pool_bytes());
  });
  reg.gauge_fn("stack.table_load", [this] { return table_load(); });
  reg.gauge_fn("stack.buffered_packets", [this] {
    return static_cast<double>(buffered_packets());
  });
  reg.gauge_fn("routing.flood_log_bytes", [this] {
    return static_cast<double>(flood_log_.bytes());
  });
  // Encoded data-frame header bytes charged on top of every data payload
  // (net/wire.hpp).
  reg.counter_fn("net.data_header_bytes", [this] {
    std::uint64_t bits = 0;
    for (const auto& n : nodes_) bits += n->data_header_bits();
    return static_cast<double>(bits) / 8.0;
  });
}

std::size_t Network::pool_high_water() const {
  return std::max(common_mac_.pool_high_water(), data_pool_.high_water());
}

std::size_t Network::pool_bytes() const {
  return common_mac_.pool_bytes() + data_pool_.bytes();
}

double Network::table_load() const {
  double lf = 0.0;
  for (const auto& n : nodes_) lf = std::max(lf, n->table_load());
  return lf;
}

std::uint64_t Network::buffered_packets() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n->buffered_count();
  return total;
}

void Network::start() {
  for (auto& node : nodes_) node->start();
}

void Network::set_delivery_observer(Node::DeliveryObserverFn fn) {
  for (auto& node : nodes_) node->set_delivery_observer(fn);
}

}  // namespace rica::net
