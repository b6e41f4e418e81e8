// A mobile terminal: glues the routing protocol to the common-channel MAC
// and the per-link data plane, and implements the ProtocolHost services.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "channel/channel_model.hpp"
#include "mac/common_channel.hpp"
#include "mac/link_transmitter.hpp"
#include "net/packet.hpp"
#include "routing/protocol.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica::net {

/// One terminal of the ad hoc network.
class Node final : public routing::ProtocolHost {
 public:
  /// Hands a successfully received data packet to the peer node.
  using PeerDeliveryFn = std::function<void(NodeId to, DataPacket, NodeId from)>;
  /// Observes every packet delivered to its final destination (closed-loop
  /// traffic feedback; see Network::set_delivery_observer).
  using DeliveryObserverFn = std::function<void(const DataPacket&)>;

  Node(NodeId id, sim::Simulator& sim, channel::ChannelModel& channel,
       mac::CommonChannelMac& common_mac, routing::FloodLog& flood_log,
       stats::MetricsCollector& metrics, mac::LinkTransmitter::DataPool& pool,
       const mac::LinkConfig& link_cfg, sim::RandomStream rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Installs the routing protocol (must precede start()).
  void set_protocol(std::unique_ptr<routing::Protocol> protocol);
  [[nodiscard]] routing::Protocol& protocol() { return *protocol_; }

  /// Wires delivery of data packets into peer nodes (set by Network).
  void set_peer_delivery(PeerDeliveryFn fn) { peer_delivery_ = std::move(fn); }

  /// Observes final deliveries at this node (set by Network; at most one).
  void set_delivery_observer(DeliveryObserverFn fn) {
    delivery_observer_ = std::move(fn);
  }

  /// Starts the protocol (registers MAC handler, arms timers).
  void start();

  /// A locally generated application packet enters the stack.
  void originate(DataPacket pkt);

  /// A data packet arrived over a link from `from`.
  void receive_data(DataPacket pkt, NodeId from);

  /// Encoded data-frame header bits this node has put on the air.
  [[nodiscard]] std::uint64_t data_header_bits() const {
    return links_.data_header_bits();
  }

  /// Max open-addressing occupancy across this node's link table and the
  /// protocol's routing tables (observability).
  [[nodiscard]] double table_load() const {
    const double protocol = protocol_ ? protocol_->table_load() : 0.0;
    return protocol > links_.table_load() ? protocol : links_.table_load();
  }

  // -- ProtocolHost ----------------------------------------------------------
  [[nodiscard]] NodeId id() const override { return id_; }
  sim::Simulator& simulator() override { return sim_; }
  sim::RandomStream& protocol_rng() override { return rng_; }
  routing::FloodLog& flood_log() override { return flood_log_; }
  void send_control(ControlPacket pkt) override;
  std::optional<channel::CsiClass> link_csi(NodeId neighbor) override;
  const channel::LinkRow& link_row() override;
  [[nodiscard]] bool links_final() const override {
    return channel_.frozen();
  }
  void forward_data(DataPacket pkt, NodeId next_hop) override;
  void deliver_local(const DataPacket& pkt) override;
  void drop_data(const DataPacket& pkt, stats::DropReason reason) override;
  [[nodiscard]] std::size_t buffered_count() const override;
  void count(const std::string& name, std::uint64_t by = 1) override;
  void trace_route(std::string_view stage, NodeId src, NodeId dst,
                   std::uint32_t bid = 0, double metric = 0.0,
                   std::string_view detail = {}) override;

 private:
  /// Packet-lifecycle trace emission (no-op with no sink attached).
  void trace_packet(std::string_view stage, const DataPacket& pkt,
                    std::int64_t peer, std::string_view detail = {});

  NodeId id_;
  sim::Simulator& sim_;
  channel::ChannelModel& channel_;
  mac::CommonChannelMac& common_mac_;
  routing::FloodLog& flood_log_;
  stats::MetricsCollector& metrics_;
  sim::RandomStream rng_;
  mac::LinkTransmitter links_;
  std::unique_ptr<routing::Protocol> protocol_;
  PeerDeliveryFn peer_delivery_;
  DeliveryObserverFn delivery_observer_;
};

}  // namespace rica::net
