// Traffic generation (Poisson arrivals, pair selection) and metrics
// aggregation (delay/delivery/overhead math, 4-second throughput series).
#include <gtest/gtest.h>

#include <set>

#include "net/network.hpp"
#include "routing/aodv/aodv.hpp"
#include "stats/metrics.hpp"
#include "traffic/traffic_model.hpp"

namespace rica {
namespace {

TEST(RandomFlows, EndpointsDistinct) {
  sim::RandomStream rng(3);
  const auto flows = traffic::random_flows(10, 50, 10.0, rng);
  ASSERT_EQ(flows.size(), 10u);
  std::set<net::NodeId> used;
  for (const auto& f : flows) {
    EXPECT_NE(f.src, f.dst);
    used.insert(f.src);
    used.insert(f.dst);
  }
  // 10 pairs use 20 distinct terminals (sampling without replacement).
  EXPECT_EQ(used.size(), 20u);
}

TEST(RandomFlows, RespectsRate) {
  sim::RandomStream rng(4);
  const auto flows = traffic::random_flows(3, 20, 20.0, rng);
  for (const auto& f : flows) EXPECT_DOUBLE_EQ(f.pkts_per_s, 20.0);
}

TEST(RandomFlows, DifferentSeedsDifferentPairs) {
  sim::RandomStream a(5);
  sim::RandomStream b(6);
  const auto fa = traffic::random_flows(10, 50, 10.0, a);
  const auto fb = traffic::random_flows(10, 50, 10.0, b);
  bool any_diff = false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    any_diff |= fa[i].src != fb[i].src || fa[i].dst != fb[i].dst;
  }
  EXPECT_TRUE(any_diff);
}

TEST(PoissonTraffic, GeneratesApproximatelyRateTimesTime) {
  net::NetworkConfig cfg;
  cfg.num_nodes = 4;
  cfg.mobility.field = mobility::Field{100.0, 100.0};
  cfg.mobility.max_speed_mps = 0.0;
  cfg.seed = 7;
  net::Network net(cfg);
  for (net::NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  std::vector<traffic::Flow> flows{{0, 0, 3, 10.0}};
  traffic::OpenLoopTraffic gen(net, flows, 512, sim::seconds(100),
                               net.rng().stream("traffic"),
                               traffic::TrafficConfig{});
  gen.start();
  net.simulator().run_until(sim::seconds(100));
  // 10 pkt/s over 100 s: expect ~1000 +- 5 sigma (~sqrt(1000)*5 ~ 160).
  EXPECT_NEAR(static_cast<double>(net.metrics().generated()), 1000.0, 160.0);
}

TEST(PoissonTraffic, StopsAtStopTime) {
  net::NetworkConfig cfg;
  cfg.num_nodes = 4;
  cfg.mobility.field = mobility::Field{100.0, 100.0};
  cfg.mobility.max_speed_mps = 0.0;
  cfg.seed = 8;
  net::Network net(cfg);
  for (net::NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  std::vector<traffic::Flow> flows{{0, 0, 3, 50.0}};
  traffic::OpenLoopTraffic gen(net, flows, 512, sim::seconds(2),
                               net.rng().stream("traffic"),
                               traffic::TrafficConfig{});
  gen.start();
  net.simulator().run_until(sim::seconds(10));
  const auto generated = net.metrics().generated();
  EXPECT_NEAR(static_cast<double>(generated), 100.0, 60.0);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

net::DataPacket delivered_pkt(double delay_ms, std::uint16_t hops,
                              double tput_sum) {
  net::DataPacket p;
  p.size_bytes = 512;
  p.gen_time = sim::Time::zero();
  p.hops = hops;
  p.tput_sum_bps = tput_sum;
  (void)delay_ms;
  return p;
}

TEST(Metrics, DeliveryPercentage) {
  stats::MetricsCollector m;
  net::DataPacket p;
  for (int i = 0; i < 4; ++i) m.on_generated(p);
  m.on_delivered(delivered_pkt(10, 2, 300e3), sim::milliseconds(10));
  const auto s = m.finalize(sim::seconds(10));
  EXPECT_EQ(s.generated, 4u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_DOUBLE_EQ(s.delivery_pct, 25.0);
}

TEST(Metrics, AverageDelay) {
  stats::MetricsCollector m;
  net::DataPacket p;
  m.on_generated(p);
  m.on_generated(p);
  m.on_delivered(delivered_pkt(0, 1, 250e3), sim::milliseconds(10));
  m.on_delivered(delivered_pkt(0, 1, 250e3), sim::milliseconds(30));
  const auto s = m.finalize(sim::seconds(10));
  EXPECT_DOUBLE_EQ(s.avg_delay_ms, 20.0);
}

TEST(Metrics, LinkThroughputAndHops) {
  stats::MetricsCollector m;
  // Two packets: one 2-hop over (250k, 150k), one 1-hop over 50k.
  m.on_delivered(delivered_pkt(0, 2, 400e3), sim::milliseconds(5));
  m.on_delivered(delivered_pkt(0, 1, 50e3), sim::milliseconds(6));
  const auto s = m.finalize(sim::seconds(1));
  EXPECT_DOUBLE_EQ(s.avg_hops, 1.5);
  EXPECT_NEAR(s.avg_link_tput_kbps, (400e3 + 50e3) / 3.0 / 1e3, 1e-9);
}

TEST(Metrics, OverheadCombinesControlAndAcks) {
  stats::MetricsCollector m;
  m.on_control_tx(1000);
  m.on_control_tx(1000);
  m.on_ack_tx(500);
  const auto s = m.finalize(sim::seconds(1));
  EXPECT_DOUBLE_EQ(s.overhead_kbps, 2.5);
  EXPECT_EQ(s.control_transmissions, 2u);
}

TEST(Metrics, DropsAccumulatePerReason) {
  stats::MetricsCollector m;
  net::DataPacket p;
  m.on_dropped(p, stats::DropReason::kExpired);
  m.on_dropped(p, stats::DropReason::kExpired);
  m.on_dropped(p, stats::DropReason::kLinkBreak);
  EXPECT_EQ(m.dropped(stats::DropReason::kExpired), 2u);
  EXPECT_EQ(m.dropped(stats::DropReason::kLinkBreak), 1u);
  EXPECT_EQ(m.dropped(stats::DropReason::kNoRoute), 0u);
}

TEST(Metrics, NamedCounters) {
  stats::MetricsCollector m;
  m.inc("x");
  m.inc("x", 4);
  EXPECT_EQ(m.registry().read("x"), 5.0);
  EXPECT_EQ(m.registry().read("y"), 0.0);
  const auto s = m.finalize(sim::seconds(1));
  EXPECT_EQ(s.stat("x"), 5.0);
  EXPECT_EQ(s.stats.at("x").kind, obs::StatKind::kCounter);
}

TEST(ThroughputSeries, BucketsBits) {
  stats::ThroughputSeries series(sim::seconds(4));
  series.add_bits(sim::seconds(1), 4096);
  series.add_bits(sim::seconds(3), 4096);
  series.add_bits(sim::seconds(5), 8192);
  const auto kbps = series.kbps();
  ASSERT_EQ(kbps.size(), 2u);
  EXPECT_DOUBLE_EQ(kbps[0], 8192 / 4.0 / 1e3);
  EXPECT_DOUBLE_EQ(kbps[1], 8192 / 4.0 / 1e3);
}

TEST(ThroughputSeries, EmptyIsEmpty) {
  stats::ThroughputSeries series;
  EXPECT_TRUE(series.kbps().empty());
}

TEST(SummaryStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(stats::mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::stddev({2.0, 4.0}), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(stats::stddev({5.0}), 0.0);
}

TEST(DropReasonNames, AllNamed) {
  for (std::size_t i = 0; i < stats::kNumDropReasons; ++i) {
    EXPECT_FALSE(
        stats::to_string(static_cast<stats::DropReason>(i)).empty());
  }
}

}  // namespace
}  // namespace rica
