// A scripted ProtocolHost for protocol unit tests: records every outbound
// action, serves configurable link CSI, and exposes the simulator so tests
// can fire protocol timers deterministically.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel_model.hpp"
#include "mobility/mobility_model.hpp"
#include "routing/flood_log.hpp"
#include "routing/protocol.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace rica::test {

class MockHost : public routing::ProtocolHost {
 public:
  explicit MockHost(net::NodeId id) : id_(id), rng_(42), flood_log_(id + 1) {}

  // -- scripting -------------------------------------------------------------
  /// Sets the CSI class this host measures toward `neighbor`.
  void set_link(net::NodeId neighbor, channel::CsiClass cls) {
    links_[neighbor] = cls;
  }
  void clear_link(net::NodeId neighbor) { links_.erase(neighbor); }

  // -- recorded actions --------------------------------------------------------
  struct SentControl {
    net::ControlPacket pkt;
    sim::Time at;
  };
  struct ForwardedData {
    net::DataPacket pkt;
    net::NodeId next_hop;
    sim::Time at;
  };
  std::vector<SentControl> sent;
  std::vector<ForwardedData> forwarded;
  std::vector<net::DataPacket> delivered;
  std::vector<std::pair<net::DataPacket, stats::DropReason>> dropped;
  std::map<std::string, std::uint64_t> counters;
  std::size_t buffered = 0;  ///< reported by buffered_count()

  /// Last control packet of a given payload type, or nullptr.
  template <typename Msg>
  const Msg* last_sent(net::NodeId* to = nullptr) const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (const auto* msg = std::get_if<Msg>(&it->pkt.payload)) {
        if (to != nullptr) *to = it->pkt.to;
        return msg;
      }
    }
    return nullptr;
  }

  template <typename Msg>
  std::size_t sent_count() const {
    std::size_t n = 0;
    for (const auto& s : sent) {
      if (std::holds_alternative<Msg>(s.pkt.payload)) ++n;
    }
    return n;
  }

  // -- ProtocolHost ------------------------------------------------------------
  [[nodiscard]] net::NodeId id() const override { return id_; }
  sim::Simulator& simulator() override { return sim_; }
  sim::RandomStream& protocol_rng() override { return rng_; }
  routing::FloodLog& flood_log() override { return flood_log_; }
  void send_control(net::ControlPacket pkt) override {
    sent.push_back(SentControl{std::move(pkt), sim_.now()});
  }
  std::optional<channel::CsiClass> link_csi(net::NodeId neighbor) override {
    const auto it = links_.find(neighbor);
    if (it == links_.end()) return std::nullopt;
    return it->second;
  }
  const channel::LinkRow& link_row() override {
    row_.assign(links_.begin(), links_.end());
    return row_;
  }
  /// Scripted links can change at any time, unless a test declares them
  /// final.
  [[nodiscard]] bool links_final() const override { return links_final_; }
  void set_links_final(bool final_links) { links_final_ = final_links; }
  void forward_data(net::DataPacket pkt, net::NodeId next_hop) override {
    forwarded.push_back(ForwardedData{std::move(pkt), next_hop, sim_.now()});
  }
  void deliver_local(const net::DataPacket& pkt) override {
    delivered.push_back(pkt);
  }
  void drop_data(const net::DataPacket& pkt,
                 stats::DropReason reason) override {
    dropped.emplace_back(pkt, reason);
  }
  [[nodiscard]] std::size_t buffered_count() const override {
    return buffered;
  }
  void count(const std::string& name, std::uint64_t by = 1) override {
    counters[name] += by;
  }

  sim::Simulator& sim() { return sim_; }

 private:
  net::NodeId id_;
  sim::Simulator sim_;
  sim::RandomStream rng_;
  routing::FloodLog flood_log_;  ///< holds this host's history only
  std::map<net::NodeId, channel::CsiClass> links_;
  channel::LinkRow row_;  ///< link_row's result
  bool links_final_ = false;
};

/// A real channel over `n` static nodes packed into a 1 m field, so every
/// pair is in range.  Pairs with a ChannelHost to see which receptions
/// sample the channel (ChannelModel::live_pairs).
struct StaticChannel {
  explicit StaticChannel(std::size_t n)
      : rng(7), mobility(n, config(), rng), channel({}, mobility, rng) {}

  static mobility::MobilityConfig config() {
    mobility::MobilityConfig cfg;
    cfg.field = mobility::Field{1.0, 1.0};
    cfg.max_speed_mps = 0.0;
    return cfg;
  }

  sim::RngManager rng;
  mobility::MobilityManager mobility;
  channel::ChannelModel channel;
};

/// A MockHost whose link CSI and sensed links come from a real ChannelModel
/// instead of the scripted links.
class ChannelHost : public MockHost {
 public:
  ChannelHost(net::NodeId id, channel::ChannelModel& channel)
      : MockHost(id), channel_(channel) {}

  std::optional<channel::CsiClass> link_csi(net::NodeId neighbor) override {
    return channel_.csi(id(), neighbor, sim().now());
  }
  const channel::LinkRow& link_row() override {
    return channel_.links_of(id(), sim().now());
  }
  [[nodiscard]] bool links_final() const override {
    return channel_.frozen();
  }

 private:
  channel::ChannelModel& channel_;
};

/// Convenience: a 512-byte data packet for flow (src -> dst).
inline net::DataPacket make_data(net::NodeId src, net::NodeId dst,
                                 std::uint32_t seq = 0) {
  net::DataPacket pkt;
  pkt.flow = 0;
  pkt.src = src;
  pkt.dst = dst;
  pkt.seq = seq;
  pkt.size_bytes = 512;
  return pkt;
}

}  // namespace rica::test
