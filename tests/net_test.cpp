// net layer: packet formats and wire sizes, flow keys, Node <-> MAC glue,
// full Network assembly, and the data plane's one pool per network.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rica.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/protocol.hpp"

namespace rica::net {
namespace {

TEST(FlowKey, RoundTrips) {
  const FlowKey k = flow_key(17, 42);
  EXPECT_EQ(flow_src(k), 17u);
  EXPECT_EQ(flow_dst(k), 42u);
  EXPECT_NE(flow_key(17, 42), flow_key(42, 17));
}

TEST(ControlSizes, AllTypesHavePositiveSize) {
  EXPECT_GT(wire::encoded_control_size(RreqMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(RrepMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(CsiCheckMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(RupdMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(ReerMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(AbrBeaconMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(AodvRreqMsg{}), 0);
}

TEST(ControlSizes, BeaconIsSmallest) {
  // Beacons dominate ABR's idle overhead; they must be the cheapest packet
  // (they are also the smallest encodable frame, wire.hpp).
  const auto beacon = wire::encoded_control_size(AbrBeaconMsg{});
  EXPECT_EQ(beacon, wire::kMinControlBytes);
  EXPECT_LT(beacon, wire::encoded_control_size(RreqMsg{}));
  EXPECT_LT(beacon, wire::encoded_control_size(LsuMsg{}));
}

TEST(ControlSizes, LsuGrowsWithAdjacency) {
  LsuMsg small;
  small.links = share_row({{1, channel::CsiClass::A}});
  channel::LinkRow row;
  for (NodeId i = 0; i < 10; ++i) row.emplace_back(i, channel::CsiClass::B);
  LsuMsg big;
  big.links = share_row(std::move(row));
  EXPECT_LT(wire::encoded_control_size(small),
            wire::encoded_control_size(big));
}

TEST(ControlSizes, DenseLsuStaysExactWithinTheWireField) {
  // A 500-terminal row (the large-scale preset's worst case, far past the
  // old uint16 truncation hazard's comfort zone) must size exactly, not
  // wrap: 5 frame header + 10 fixed body + 5 * 500 = 2515 — and it must be
  // the encoder's real output, byte for byte.
  channel::LinkRow row;
  for (NodeId i = 0; i < 500; ++i) row.emplace_back(i, channel::CsiClass::D);
  LsuMsg dense;
  dense.links = share_row(std::move(row));
  EXPECT_EQ(wire::encoded_control_size(dense), 2515);
  std::vector<std::uint8_t> buf;
  EXPECT_EQ(wire::encode_control(make_control(kBroadcastId, dense), buf),
            2515u);
}

TEST(ControlSizes, OverflowingLsuThrowsInsteadOfClamping) {
  // 13 105+ links push the frame past the u16 wire-size field.  The old
  // Sizer clamped to 0xFFFF behind a Release-vanishing assert (silently
  // under-charging airtime); now it is a hard error in every build mode.
  channel::LinkRow row;
  for (NodeId i = 0; i < 13200; ++i) row.emplace_back(i, channel::CsiClass::A);
  LsuMsg huge;
  huge.links = share_row(std::move(row));
  EXPECT_THROW((void)wire::encoded_control_size(ControlPayload{huge}),
               wire::WireError);
  EXPECT_THROW(make_control(kBroadcastId, huge), wire::WireError);
}

TEST(MakeControl, FillsSizeAndTarget) {
  const auto pkt = make_control(7, ReerMsg{1, 2, 3});
  EXPECT_EQ(pkt.to, 7u);
  EXPECT_EQ(pkt.size_bytes, wire::encoded_control_size(ReerMsg{}));
  EXPECT_TRUE(std::holds_alternative<ReerMsg>(pkt.payload));
}

NetworkConfig small_config(std::uint64_t seed = 5) {
  NetworkConfig cfg;
  cfg.num_nodes = 10;
  cfg.mobility.field = mobility::Field{300.0, 300.0};  // dense: all connected
  cfg.mobility.max_speed_mps = 0.0;
  cfg.seed = seed;
  return cfg;
}

TEST(NetworkTest, BuildsAndStarts) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  EXPECT_EQ(net.size(), 10u);
  net.simulator().run_until(sim::seconds(1));
}

TEST(NetworkTest, OriginateCountsGenerated) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  DataPacket pkt;
  pkt.src = 0;
  pkt.dst = 5;
  net.node(0).originate(pkt);
  EXPECT_EQ(net.metrics().generated(), 1u);
}

TEST(NetworkTest, EndToEndDeliveryOverAodv) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  for (std::uint32_t i = 0; i < 20; ++i) {
    net.simulator().after(sim::milliseconds(100 * i), [&net, i] {
      DataPacket pkt;
      pkt.src = 0;
      pkt.dst = 5;
      pkt.seq = i;
      pkt.gen_time = net.simulator().now();
      net.node(0).originate(pkt);
    });
  }
  net.simulator().run_until(sim::seconds(10));
  EXPECT_GT(net.metrics().delivered(), 15u);
}

TEST(NetworkTest, EndToEndDeliveryOverRica) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<core::RicaProtocol>(net.node(id)));
  }
  net.start();
  for (std::uint32_t i = 0; i < 20; ++i) {
    net.simulator().after(sim::milliseconds(100 * i), [&net, i] {
      DataPacket pkt;
      pkt.src = 0;
      pkt.dst = 5;
      pkt.seq = i;
      pkt.gen_time = net.simulator().now();
      net.node(0).originate(pkt);
    });
  }
  net.simulator().run_until(sim::seconds(10));
  EXPECT_GT(net.metrics().delivered(), 15u);
}

TEST(NetworkTest, DeliveredPacketsCarryHopMetadata) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  DataPacket pkt;
  pkt.src = 0;
  pkt.dst = 5;
  net.node(0).originate(pkt);
  net.simulator().run_until(sim::seconds(5));
  const auto s = net.metrics().finalize(sim::seconds(5));
  if (s.delivered > 0) {
    EXPECT_GE(s.avg_hops, 1.0);
    EXPECT_GE(s.avg_link_tput_kbps, 50.0);   // class D floor
    EXPECT_LE(s.avg_link_tput_kbps, 250.0);  // class A ceiling
  }
}

TEST(NetworkTest, IdenticalSeedsGiveIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    Network net(small_config(seed));
    for (NodeId id = 0; id < net.size(); ++id) {
      net.node(id).set_protocol(
          std::make_unique<core::RicaProtocol>(net.node(id)));
    }
    net.start();
    for (std::uint32_t i = 0; i < 30; ++i) {
      net.simulator().after(sim::milliseconds(50 * i), [&net, i] {
        DataPacket pkt;
        pkt.src = 1;
        pkt.dst = 8;
        pkt.seq = i;
        pkt.gen_time = net.simulator().now();
        net.node(1).originate(pkt);
      });
    }
    net.simulator().run_until(sim::seconds(5));
    const auto s = net.metrics().finalize(sim::seconds(5));
    return std::make_tuple(s.delivered, s.avg_delay_ms, s.overhead_kbps,
                           s.avg_hops);
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(std::get<1>(run(11)), std::get<1>(run(12)));
}

// ---------------------------------------------------------------------------
// Data plane: one pool per network, and per-neighbour link queues
// ---------------------------------------------------------------------------

/// Forwards every transit packet to one fixed next hop; the destination
/// delivers it.
class FixedNextHop final : public routing::Protocol {
 public:
  FixedNextHop(routing::ProtocolHost& host, NodeId next)
      : Protocol(host), next_(next) {}
  void handle_data(DataPacket pkt, NodeId) override {
    if (pkt.dst == host().id()) {
      host().deliver_local(pkt);
    } else {
      host().forward_data(std::move(pkt), next_);
    }
  }
  void on_control(const ControlPacket&, NodeId) override {}
  void on_link_break(NodeId, std::vector<DataPacket>) override {}
  [[nodiscard]] std::string_view name() const override { return "fixed"; }

 private:
  NodeId next_;
};

TEST(NetworkDataPool, ForwardingDrawsFromOnePoolAndReturnsEveryNode) {
  NetworkConfig cfg = small_config();
  cfg.num_nodes = 3;
  cfg.mobility.field = mobility::Field{10.0, 10.0};  // all in range
  Network net(cfg);
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<FixedNextHop>(net.node(id), id + 1));
  }
  net.start();
  constexpr std::uint32_t kPackets = 5;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    DataPacket pkt;
    pkt.src = 0;
    pkt.dst = 2;
    pkt.seq = i;
    pkt.size_bytes = 512;
    net.node(0).originate(pkt);
  }
  EXPECT_EQ(net.data_pool().live(), kPackets);
  // Every packet buffered at 0 -> 1 or 1 -> 2 lives in the network's pool.
  std::size_t both_hops_busy = 0;
  for (int ms = 5; ms < 2000; ms += 5) {
    net.simulator().run_until(sim::milliseconds(ms));
    EXPECT_EQ(net.data_pool().live(), net.buffered_packets()) << ms << " ms";
    both_hops_busy += net.node(0).buffered_count() > 0 &&
                      net.node(1).buffered_count() > 0;
  }
  EXPECT_GT(both_hops_busy, 0u);
  EXPECT_EQ(net.metrics().delivered(), kPackets);
  EXPECT_EQ(net.data_pool().live(), 0u);
  EXPECT_EQ(net.data_pool().high_water(), kPackets);
  // Both forwarding nodes drew from one chunk.
  EXPECT_EQ(net.data_pool().bytes(),
            64 * sizeof(mac::LinkTransmitter::DataPool::Node));
  EXPECT_EQ(net.pool_bytes(),
            net.common_mac().pool_bytes() + net.data_pool().bytes());
}

TEST(NetworkDataPool, PoolHighWaterIsTheLargerOfControlAndData) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  for (std::uint32_t i = 0; i < 40; ++i) {
    net.simulator().after(sim::milliseconds(20 * i), [&net, i] {
      DataPacket pkt;
      pkt.src = 0;
      pkt.dst = 5;
      pkt.seq = i;
      pkt.size_bytes = 512;
      pkt.gen_time = net.simulator().now();
      net.node(0).originate(pkt);
    });
  }
  net.simulator().run_until(sim::seconds(5));
  const auto control_hw = net.common_mac().pool_high_water();
  const auto data_hw = net.data_pool().high_water();
  EXPECT_GT(control_hw, 0u);
  EXPECT_GT(data_hw, 0u);
  const auto s = net.metrics().finalize(sim::seconds(5));
  EXPECT_EQ(s.stat("stack.pool_high_water"),
            static_cast<double>(std::max(control_hw, data_hw)));
  EXPECT_EQ(s.stat("stack.pool_bytes"),
            static_cast<double>(net.common_mac().pool_bytes() +
                                net.data_pool().bytes()));
}

/// Enqueues alternate between a neighbour in range and one out of range,
/// whose link breaks after its retries.  A lookup that served the wrong
/// link would put a packet on the wrong queue: both queue lengths and both
/// delivery orders would show it.
TEST(LinkTransmitterQueues, AlternatingNeighboursKeepTheirOwnQueues) {
  constexpr std::size_t kNodes = 20;
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1000.0, 1000.0};
  wp.max_speed_mps = 0.0;
  const sim::RngManager rng(7);
  mobility::MobilityManager mobility(kNodes, wp, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mobility, rng);
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  mac::LinkTransmitter::DataPool pool;
  // Node 0's first neighbour in range and first node out of range.
  NodeId near = 0, far = 0;
  for (NodeId id = 1; id < kNodes; ++id) {
    const bool in = channel.in_range(0, id, sim::Time::zero());
    if (in && near == 0) near = id;
    if (!in && far == 0) far = id;
  }
  ASSERT_NE(near, 0u);
  ASSERT_NE(far, 0u);

  mac::LinkTransmitter tx(0, sim, channel, metrics, pool, {});
  std::vector<std::uint32_t> delivered;
  std::vector<std::vector<std::uint32_t>> stranded;
  tx.set_deliver([&](DataPacket p, NodeId to) {
    EXPECT_EQ(to, near);
    delivered.push_back(p.seq);
  });
  tx.set_on_break([&](NodeId neighbor, std::vector<DataPacket> s) {
    EXPECT_EQ(neighbor, far);
    stranded.emplace_back();
    for (const auto& p : s) stranded.back().push_back(p.seq);
  });
  std::size_t to_near = 0, to_far = 0;
  const auto enqueue = [&](std::uint32_t seq, NodeId to) {
    DataPacket p;
    p.src = 0;
    p.dst = to;
    p.seq = seq;
    p.size_bytes = 512;
    tx.enqueue(std::move(p), to);
    ++(to == near ? to_near : to_far);
    EXPECT_EQ(tx.queue_length(near), to_near) << "after packet " << seq;
    EXPECT_EQ(tx.queue_length(far), to_far) << "after packet " << seq;
  };
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    enqueue(seq, seq % 2 == 0 ? near : far);
  }
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{0, 2, 4}));
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0], (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_EQ(tx.queue_length(near), 0u);
  EXPECT_EQ(tx.queue_length(far), 0u);

  // The broken link serves again, also for repeats to one neighbour.
  to_near = to_far = 0;
  enqueue(6, far);
  enqueue(7, near);
  enqueue(8, near);
  enqueue(9, far);
  enqueue(10, far);
  enqueue(11, near);
  sim.run_until(sim::seconds(4));
  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{0, 2, 4, 7, 8, 11}));
  ASSERT_EQ(stranded.size(), 2u);
  EXPECT_EQ(stranded[1], (std::vector<std::uint32_t>{6, 9, 10}));
  EXPECT_EQ(tx.buffered(), 0u);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace rica::net
