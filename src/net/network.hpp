// Assembles a complete simulated ad hoc network: simulator, mobility,
// channel, common-channel MAC, metrics, and one Node per terminal.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel_model.hpp"
#include "mac/common_channel.hpp"
#include "mac/link_transmitter.hpp"
#include "mobility/mobility_model.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "routing/flood_log.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica::net {

/// Everything needed to instantiate a network.
struct NetworkConfig {
  std::size_t num_nodes = 50;
  mobility::MobilityConfig mobility{};  ///< model + field/speed/pause/params
  channel::ChannelConfig channel{};
  mac::CommonChannelConfig common_mac{};
  mac::LinkConfig link{};
  std::uint64_t seed = 1;
};

// kMaxNodes (the 24-bit node-id ceiling this constructor enforces) lives in
// net/packet.hpp alongside the address types the wire codecs validate with.

/// Owns the full simulation stack.  Protocols are installed per node by the
/// harness (which knows which protocol family is under test); then start()
/// arms every node and the simulator can run.
class Network {
 public:
  explicit Network(const NetworkConfig& cfg);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }

  sim::Simulator& simulator() { return sim_; }
  mobility::MobilityManager& mobility() { return mobility_; }
  channel::ChannelModel& channel() { return channel_; }
  mac::CommonChannelMac& common_mac() { return common_mac_; }
  stats::MetricsCollector& metrics() { return metrics_; }
  [[nodiscard]] const sim::RngManager& rng() const { return rng_; }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

  /// Starts every node's protocol.  Call after installing protocols.
  void start();

  /// Peak live pooled entries: the larger high-water mark of the network's
  /// two pools, the common MAC's control queues and the data queues of
  /// every node's links (the stack.pool_high_water gauge).
  [[nodiscard]] std::size_t pool_high_water() const;

  /// Chunk bytes of the two pools together (the stack.pool_bytes gauge).
  [[nodiscard]] std::size_t pool_bytes() const;

  /// The pool every node's link queues draw from.
  [[nodiscard]] const mac::LinkTransmitter::DataPool& data_pool() const {
    return data_pool_;
  }

  /// Max open-addressing table occupancy across all nodes (routing tables,
  /// link tables) and the shared flood log's index.
  [[nodiscard]] double table_load() const;

  /// Data packets currently buffered across every node's link queues (the
  /// stack.buffered_packets gauge).
  [[nodiscard]] std::uint64_t buffered_packets() const;

  /// The run's metrics registry (owned by metrics()).  The network
  /// registers every kernel and stack statistic here at construction.
  /// Adding a statistic means one registration — the summary, trial
  /// folding, series CSV and Perfetto tracks all read the registry.
  [[nodiscard]] obs::Registry& registry() { return metrics_.registry(); }

  /// Installs one network-wide observer of final packet deliveries (the
  /// feedback path closed-loop traffic models ride on).  Called after
  /// metrics accounting; installing a new observer replaces the previous
  /// one.  The observer must outlive the simulation run.
  void set_delivery_observer(Node::DeliveryObserverFn fn);

 private:
  NetworkConfig cfg_;
  sim::Simulator sim_;
  sim::RngManager rng_;
  mobility::MobilityManager mobility_;
  channel::ChannelModel channel_;
  stats::MetricsCollector metrics_;
  mac::CommonChannelMac common_mac_;
  /// Every terminal's flood history; outlives the nodes (declared first).
  routing::FloodLog flood_log_;
  /// Every node's link queues draw from this pool; outlives the nodes.
  mac::LinkTransmitter::DataPool data_pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace rica::net
