// Unit tests for the RICA protocol against a scripted host: discovery,
// CSI-hop accumulation, destination/source selection windows, CSI-checking,
// route update via RUPD and flagged packets, the §II-D REER rules, and the
// check-candidate salvage path.
#include <gtest/gtest.h>

#include "core/rica.hpp"
#include "mock_host.hpp"

namespace rica::core {
namespace {

using channel::CsiClass;
using test::MockHost;
using test::make_data;

constexpr net::NodeId kSrc = 1;
constexpr net::NodeId kDst = 9;
constexpr net::FlowKey kFlow = net::flow_key(kSrc, kDst);

class RicaSourceTest : public ::testing::Test {
 protected:
  RicaSourceTest() : host_(kSrc), proto_(host_) {}
  MockHost host_;
  RicaProtocol proto_;
};

TEST_F(RicaSourceTest, FirstPacketTriggersRreqBroadcast) {
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  net::NodeId to = 0;
  const auto* rreq = host_.last_sent<net::RreqMsg>(&to);
  ASSERT_NE(rreq, nullptr);
  EXPECT_EQ(to, net::kBroadcastId);
  EXPECT_EQ(rreq->src, kSrc);
  EXPECT_EQ(rreq->dst, kDst);
  EXPECT_DOUBLE_EQ(rreq->csi_hops, 0.0);
  EXPECT_EQ(rreq->topo_hops, 0);
  EXPECT_TRUE(host_.forwarded.empty());
}

TEST_F(RicaSourceTest, SecondPacketDoesNotReflood) {
  proto_.handle_data(make_data(kSrc, kDst, 0), kSrc);
  proto_.handle_data(make_data(kSrc, kDst, 1), kSrc);
  EXPECT_EQ(host_.sent_count<net::RreqMsg>(), 1u);
}

TEST_F(RicaSourceTest, RrepInstallsRouteAndFlushesPending) {
  proto_.handle_data(make_data(kSrc, kDst, 0), kSrc);
  proto_.handle_data(make_data(kSrc, kDst, 1), kSrc);
  const net::NodeId relay = 4;
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 3.0, 2}), relay);
  EXPECT_EQ(proto_.source_next_hop(kDst), relay);
  ASSERT_EQ(host_.forwarded.size(), 2u);
  EXPECT_EQ(host_.forwarded[0].next_hop, relay);
  EXPECT_EQ(host_.forwarded[0].pkt.seq, 0u);
  EXPECT_EQ(host_.forwarded[1].pkt.seq, 1u);
}

TEST_F(RicaSourceTest, FirstPacketsOnFreshRouteCarryUpdateFlag) {
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 3.0, 2}), 4);
  ASSERT_FALSE(host_.forwarded.empty());
  EXPECT_TRUE(host_.forwarded.front().pkt.route_update);
}

TEST_F(RicaSourceTest, CsiCheckWindowSelectsBestAndSendsRupd) {
  // Install a route via 5 first, then offer a better candidate via 6.
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 9.0, 3}), 5);
  ASSERT_EQ(proto_.source_next_hop(kDst), 5u);

  host_.set_link(5, CsiClass::D);  // current first hop faded badly
  host_.set_link(6, CsiClass::A);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 1;
  check.csi_hops = 2.0;
  check.topo_hops = 2;
  check.ttl = 4;
  check.received_from = 5;
  proto_.on_control(net::make_control(net::kBroadcastId, check), 5);
  net::CsiCheckMsg better = check;
  better.csi_hops = 1.0;
  better.received_from = 6;
  proto_.on_control(net::make_control(net::kBroadcastId, better), 6);

  host_.sim().run_until(sim::milliseconds(100));  // close the 40 ms window
  EXPECT_EQ(proto_.source_next_hop(kDst), 6u);
  net::NodeId rupd_to = 0;
  ASSERT_NE(host_.last_sent<net::RupdMsg>(&rupd_to), nullptr);
  EXPECT_EQ(rupd_to, 6u);
  EXPECT_GE(host_.counters["rica.route_switch"], 1u);
}

TEST_F(RicaSourceTest, CheckWindowKeepsCurrentRouteWhenItIsBest) {
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}), 5);
  host_.set_link(5, CsiClass::A);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 1;
  check.csi_hops = 1.0;
  check.ttl = 4;
  check.received_from = 5;
  proto_.on_control(net::make_control(net::kBroadcastId, check), 5);
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(proto_.source_next_hop(kDst), 5u);
  EXPECT_EQ(host_.sent_count<net::RupdMsg>(), 0u);  // no pointless switch
}

TEST_F(RicaSourceTest, ReerFromCurrentDownstreamInvalidates) {
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}), 5);
  ASSERT_TRUE(proto_.source_next_hop(kDst).has_value());
  proto_.on_control(
      net::make_control(kSrc, net::ReerMsg{kSrc, kDst, 5}), 5);
  // No fresh candidates: the source must re-discover.
  EXPECT_FALSE(proto_.source_next_hop(kDst).has_value());
  EXPECT_GE(host_.sent_count<net::RreqMsg>(), 2u);
}

TEST_F(RicaSourceTest, ReerFromStaleNeighborIgnored) {
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}), 5);
  // REER from 7, which is NOT our downstream: §II-D says ignore it.
  proto_.on_control(
      net::make_control(kSrc, net::ReerMsg{kSrc, kDst, 7}), 7);
  EXPECT_EQ(proto_.source_next_hop(kDst), 5u);
}

TEST_F(RicaSourceTest, LinkBreakFallsBackToFreshCandidate) {
  proto_.handle_data(make_data(kSrc, kDst), kSrc);
  proto_.on_control(
      net::make_control(kSrc, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}), 5);
  // A recent check round offered an alternative via 6.
  host_.set_link(5, CsiClass::A);
  host_.set_link(6, CsiClass::B);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 1;
  check.csi_hops = 1.0;
  check.ttl = 4;
  check.received_from = 5;
  proto_.on_control(net::make_control(net::kBroadcastId, check), 5);
  net::CsiCheckMsg alt = check;
  alt.csi_hops = 1.5;
  alt.received_from = 6;
  proto_.on_control(net::make_control(net::kBroadcastId, alt), 6);
  host_.sim().run_until(sim::milliseconds(100));
  ASSERT_EQ(proto_.source_next_hop(kDst), 5u);

  proto_.on_link_break(5, {make_data(kSrc, kDst, 7)});
  EXPECT_EQ(proto_.source_next_hop(kDst), 6u);
  EXPECT_GE(host_.counters["rica.fallback_switch"], 1u);
  // The stranded packet was discarded.
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kLinkBreak);
}

// ---------------------------------------------------------------------------
// Relay behaviour
// ---------------------------------------------------------------------------

class RicaRelayTest : public ::testing::Test {
 protected:
  RicaRelayTest() : host_(5), proto_(host_) {
    host_.set_link(kUp, CsiClass::B);
    host_.set_link(kDown, CsiClass::A);
  }
  static constexpr net::NodeId kUp = 4;    // toward the source
  static constexpr net::NodeId kDown = 6;  // toward the destination
  MockHost host_;
  RicaProtocol proto_;
};

TEST_F(RicaRelayTest, RreqAccumulatesCsiHopsAndRebroadcasts) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 2.0, 1}),
      kUp);
  host_.sim().run_until(sim::milliseconds(50));  // fire the jittered forward
  const auto* fwd = host_.last_sent<net::RreqMsg>();
  ASSERT_NE(fwd, nullptr);
  // Class B adds 250/150 = 1.67 CSI hops.
  EXPECT_NEAR(fwd->csi_hops, 2.0 + 250.0 / 150.0, 1e-9);
  EXPECT_EQ(fwd->topo_hops, 2);
}

TEST_F(RicaRelayTest, DuplicateRreqDiscarded) {
  const auto msg = net::RreqMsg{kSrc, kDst, 1, 2.0, 1};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), kUp);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), kDown);
  host_.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host_.sent_count<net::RreqMsg>(), 1u);
}

TEST_F(RicaRelayTest, RrepInstallsEntryAndForwardsUpstream) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      kUp);
  host_.sim().run_until(sim::milliseconds(50));
  proto_.on_control(
      net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 4.0, 1}), kDown);
  EXPECT_EQ(proto_.relay_downstream(kFlow), kDown);
  net::NodeId to = 0;
  const auto* rrep = host_.last_sent<net::RrepMsg>(&to);
  ASSERT_NE(rrep, nullptr);
  EXPECT_EQ(to, kUp);
  EXPECT_EQ(rrep->topo_hops, 2);
}

TEST_F(RicaRelayTest, DataFollowsInstalledRoute) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      kUp);
  host_.sim().run_until(sim::milliseconds(50));
  proto_.on_control(
      net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 4.0, 1}), kDown);
  proto_.handle_data(make_data(kSrc, kDst), kUp);
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, kDown);
}

TEST_F(RicaRelayTest, CheckRecordsFirstSenderAndDecrementsTtl) {
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 3;
  check.csi_hops = 1.0;
  check.topo_hops = 1;
  check.ttl = 3;
  check.received_from = 7;
  proto_.on_control(net::make_control(net::kBroadcastId, check), kDown);
  EXPECT_EQ(proto_.check_candidate(kFlow), kDown);
  host_.sim().run_until(sim::milliseconds(50));
  const auto* fwd = host_.last_sent<net::CsiCheckMsg>();
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->ttl, 2);
  EXPECT_EQ(fwd->received_from, kDown);
  EXPECT_NEAR(fwd->csi_hops, 1.0 + 1.0, 1e-9);  // class A link adds 1
}

TEST_F(RicaRelayTest, CheckWithExhaustedTtlNotForwarded) {
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 3;
  check.ttl = 1;
  check.received_from = 7;
  proto_.on_control(net::make_control(net::kBroadcastId, check), kDown);
  host_.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host_.sent_count<net::CsiCheckMsg>(), 0u);
  // The candidate is still recorded even though the flood stops here.
  EXPECT_EQ(proto_.check_candidate(kFlow), kDown);
}

TEST_F(RicaRelayTest, UpdateFlaggedPacketReanchorsToCheckCandidate) {
  // Old route via kDown; a fresh check came first from 8.
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      kUp);
  host_.sim().run_until(sim::milliseconds(50));
  proto_.on_control(
      net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 4.0, 1}), kDown);

  host_.set_link(8, CsiClass::A);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 9;
  check.ttl = 4;
  check.received_from = 7;
  proto_.on_control(net::make_control(net::kBroadcastId, check), 8);
  ASSERT_EQ(proto_.check_candidate(kFlow), 8u);

  auto pkt = make_data(kSrc, kDst);
  pkt.route_update = true;
  proto_.handle_data(std::move(pkt), kUp);
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, 8u);
  EXPECT_EQ(proto_.relay_downstream(kFlow), 8u);
}

TEST_F(RicaRelayTest, RupdReanchorsEntry) {
  host_.set_link(8, CsiClass::B);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 2;
  check.ttl = 4;
  check.received_from = 7;
  proto_.on_control(net::make_control(net::kBroadcastId, check), 8);
  proto_.on_control(net::make_control(5, net::RupdMsg{kSrc, kDst}), kUp);
  EXPECT_EQ(proto_.relay_downstream(kFlow), 8u);
}

TEST_F(RicaRelayTest, DataWithoutEntryOrCandidateDropsNoRoute) {
  proto_.handle_data(make_data(kSrc, kDst), kUp);
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kNoRoute);
  EXPECT_TRUE(host_.forwarded.empty());
}

TEST_F(RicaRelayTest, DataWithoutEntrySalvagedAlongCheckCandidate) {
  host_.set_link(8, CsiClass::A);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 2;
  check.ttl = 4;
  check.received_from = 7;
  proto_.on_control(net::make_control(net::kBroadcastId, check), 8);

  proto_.handle_data(make_data(kSrc, kDst), kUp);
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, 8u);
  EXPECT_GE(host_.counters["rica.salvage"], 1u);
}

TEST_F(RicaRelayTest, NeverForwardsBackToSender) {
  // Check candidate points at the very node the data came from: must drop,
  // not bounce.
  host_.set_link(kUp, CsiClass::A);
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = 2;
  check.ttl = 4;
  check.received_from = 7;
  proto_.on_control(net::make_control(net::kBroadcastId, check), kUp);
  ASSERT_EQ(proto_.check_candidate(kFlow), kUp);
  proto_.handle_data(make_data(kSrc, kDst), kUp);
  EXPECT_TRUE(host_.forwarded.empty());
  ASSERT_EQ(host_.dropped.size(), 1u);
}

TEST_F(RicaRelayTest, ReerForwardedOnlyFromCurrentDownstream) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      kUp);
  host_.sim().run_until(sim::milliseconds(50));
  proto_.on_control(
      net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 4.0, 1}), kDown);

  // From a stale neighbour: ignored.
  proto_.on_control(net::make_control(5, net::ReerMsg{kSrc, kDst, 8}), 8);
  EXPECT_EQ(host_.sent_count<net::ReerMsg>(), 0u);
  EXPECT_TRUE(proto_.relay_downstream(kFlow).has_value());

  // From the real downstream: invalidate and forward upstream.
  proto_.on_control(net::make_control(5, net::ReerMsg{kSrc, kDst, kDown}),
                    kDown);
  EXPECT_FALSE(proto_.relay_downstream(kFlow).has_value());
  net::NodeId to = 0;
  const auto* reer = host_.last_sent<net::ReerMsg>(&to);
  ASSERT_NE(reer, nullptr);
  EXPECT_EQ(to, kUp);
  EXPECT_EQ(reer->reporter, 5u);
}

TEST_F(RicaRelayTest, LinkBreakSendsReerUpstream) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      kUp);
  host_.sim().run_until(sim::milliseconds(50));
  proto_.on_control(
      net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 4.0, 1}), kDown);

  proto_.on_link_break(kDown, {make_data(kSrc, kDst, 3)});
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::ReerMsg>(&to), nullptr);
  EXPECT_EQ(to, kUp);
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kLinkBreak);
}

// ---------------------------------------------------------------------------
// Destination behaviour
// ---------------------------------------------------------------------------

class RicaDestTest : public ::testing::Test {
 protected:
  RicaDestTest() : host_(kDst), proto_(host_) {
    host_.set_link(7, CsiClass::A);
    host_.set_link(8, CsiClass::C);
  }
  MockHost host_;
  RicaProtocol proto_;
};

TEST_F(RicaDestTest, CollectsRreqsAndRepliesToCsiShortest) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 6.0, 2}),
      8);
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 2.0, 3}),
      7);
  EXPECT_EQ(host_.sent_count<net::RrepMsg>(), 0u);  // window still open
  host_.sim().run_until(sim::milliseconds(100));
  net::NodeId to = 0;
  const auto* rrep = host_.last_sent<net::RrepMsg>(&to);
  ASSERT_NE(rrep, nullptr);
  // Via 7: 2.0 + class A (1.0) = 3.0 beats via 8: 6.0 + class C (3.33).
  EXPECT_EQ(to, 7u);
}

TEST_F(RicaDestTest, DeliveredDataArmsPeriodicChecks) {
  auto pkt = make_data(kSrc, kDst);
  pkt.hops = 3;
  proto_.handle_data(std::move(pkt), 7);
  ASSERT_EQ(host_.delivered.size(), 1u);
  host_.sim().run_until(sim::milliseconds(1100));
  net::NodeId to = 0;
  const auto* check = host_.last_sent<net::CsiCheckMsg>(&to);
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(to, net::kBroadcastId);
  EXPECT_EQ(check->dst, kDst);
  EXPECT_EQ(check->received_from, kDst);
  // TTL covers the observed route length plus slack.
  EXPECT_GE(check->ttl, 3 + 1);
}

TEST_F(RicaDestTest, ChecksStopWhenFlowGoesIdle) {
  proto_.handle_data(make_data(kSrc, kDst), 7);
  host_.sim().run_until(sim::seconds(10));
  const auto count_at_10s = host_.sent_count<net::CsiCheckMsg>();
  // Idle timeout is 3 s: roughly 3-4 checks, not 10.
  EXPECT_LE(count_at_10s, 5u);
  EXPECT_GE(count_at_10s, 2u);
}

TEST_F(RicaDestTest, ChecksKeepFlowingWhileDataArrives) {
  for (int s = 0; s < 8; ++s) {
    proto_.handle_data(make_data(kSrc, kDst, static_cast<std::uint32_t>(s)),
                       7);
    host_.sim().run_until(sim::seconds(s + 1));
  }
  EXPECT_GE(host_.sent_count<net::CsiCheckMsg>(), 6u);
}

TEST_F(RicaDestTest, CheckBroadcastIdsIncrease) {
  proto_.handle_data(make_data(kSrc, kDst), 7);
  host_.sim().run_until(sim::milliseconds(2100));
  std::vector<std::uint32_t> bids;
  for (const auto& s : host_.sent) {
    if (const auto* c = std::get_if<net::CsiCheckMsg>(&s.pkt.payload)) {
      bids.push_back(c->bid);
    }
  }
  ASSERT_GE(bids.size(), 2u);
  EXPECT_LT(bids[0], bids[1]);
}

// Two flows into one destination: their checks must carry distinct flood
// keys, or a relay takes the second flow's first check for a duplicate of
// the first's and the second route never refreshes.
TEST_F(RicaDestTest, RelayForwardsFirstCheckOfEveryFlowToOneDestination) {
  constexpr net::NodeId kOtherSrc = 2;
  proto_.handle_data(make_data(kSrc, kDst), 7);
  proto_.handle_data(make_data(kOtherSrc, kDst), 7);
  host_.sim().run_until(sim::milliseconds(1100));
  std::vector<net::CsiCheckMsg> checks;
  for (const auto& s : host_.sent) {
    if (const auto* c = std::get_if<net::CsiCheckMsg>(&s.pkt.payload)) {
      checks.push_back(*c);
    }
  }
  ASSERT_EQ(checks.size(), 2u);  // each flow's first check
  EXPECT_NE(checks[0].src, checks[1].src);

  MockHost relay_host(5);
  relay_host.set_link(kDst, CsiClass::A);
  RicaProtocol relay(relay_host);
  for (const auto& c : checks) {
    relay.on_control(net::make_control(net::kBroadcastId, c), kDst);
  }
  relay_host.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(relay_host.sent_count<net::CsiCheckMsg>(), 2u);
  EXPECT_EQ(relay.check_candidate(net::flow_key(kSrc, kDst)), kDst);
  EXPECT_EQ(relay.check_candidate(net::flow_key(kOtherSrc, kDst)), kDst);
}

// ---------------------------------------------------------------------------
// History before CSI: a relay's duplicate never samples the channel
// ---------------------------------------------------------------------------

net::CsiCheckMsg make_check(std::uint32_t bid, net::NodeId received_from) {
  net::CsiCheckMsg check;
  check.src = kSrc;
  check.dst = kDst;
  check.bid = bid;
  check.ttl = 4;
  check.received_from = received_from;
  return check;
}

TEST(RicaHistoryFirst, DuplicateRreqAtRelayCreatesNoChannelPair) {
  test::StaticChannel net(12);
  test::ChannelHost host(5, net.channel);
  RicaProtocol proto(host);
  const auto rreq = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  proto.on_control(net::make_control(net::kBroadcastId, rreq), 4);
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  proto.on_control(net::make_control(net::kBroadcastId, rreq), 6);
  proto.on_control(net::make_control(net::kBroadcastId, rreq), 7);
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  EXPECT_EQ(net.channel.draws(), 1u);
  host.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host.sent_count<net::RreqMsg>(), 1u);
}

TEST(RicaHistoryFirst, DestinationSamplesEveryRreqCopy) {
  test::StaticChannel net(12);
  test::ChannelHost host(kDst, net.channel);
  RicaProtocol proto(host);
  const auto rreq = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  for (const net::NodeId from : {4u, 6u, 7u}) {
    proto.on_control(net::make_control(net::kBroadcastId, rreq), from);
  }
  EXPECT_EQ(net.channel.live_pairs(), 3u);
}

TEST(RicaHistoryFirst, DuplicateCheckAtRelayCreatesNoChannelPair) {
  test::StaticChannel net(12);
  test::ChannelHost host(5, net.channel);
  RicaProtocol proto(host);
  proto.on_control(net::make_control(net::kBroadcastId, make_check(3, 10)),
                   6);
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  proto.on_control(net::make_control(net::kBroadcastId, make_check(3, 10)),
                   8);
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  EXPECT_EQ(proto.check_candidate(kFlow), 6u);
}

TEST(RicaHistoryFirst, SourceSamplesEveryCheckCopy) {
  test::StaticChannel net(12);
  test::ChannelHost host(kSrc, net.channel);
  RicaProtocol proto(host);
  for (const net::NodeId from : {4u, 6u, 7u}) {
    proto.on_control(net::make_control(net::kBroadcastId, make_check(3, 10)),
                     from);
  }
  EXPECT_EQ(net.channel.live_pairs(), 3u);
}

TEST(RicaHistoryFirst, OverheardDuplicateCheckArmsUpstreamCandidate) {
  test::StaticChannel net(12);
  test::ChannelHost host(5, net.channel);
  RicaProtocol proto(host);
  proto.on_control(net::make_control(net::kBroadcastId, make_check(3, 10)),
                   6);
  EXPECT_EQ(proto.upstream_candidate(kFlow), std::nullopt);
  // Node 4 forwards the same check naming us as its sender: a duplicate
  // here, but still the §II-C overhearing signal.
  proto.on_control(net::make_control(net::kBroadcastId, make_check(3, 5)), 4);
  EXPECT_EQ(proto.upstream_candidate(kFlow), 4u);
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  host.sim().run_until(sim::milliseconds(150));  // detection window closes
  EXPECT_EQ(proto.upstream_candidate(kFlow), std::nullopt);
}

TEST_F(RicaRelayTest, OutOfRangeFirstRreqDoesNotSuppressLaterCopy) {
  host_.clear_link(kUp);
  const auto msg = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), kUp);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), kDown);
  host_.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host_.sent_count<net::RreqMsg>(), 1u);
}

TEST_F(RicaRelayTest, OutOfRangeFirstCheckDoesNotSuppressLaterCopy) {
  host_.set_link(8, CsiClass::A);
  host_.clear_link(kDown);
  proto_.on_control(net::make_control(net::kBroadcastId, make_check(3, 10)),
                    kDown);
  EXPECT_EQ(proto_.check_candidate(kFlow), std::nullopt);
  proto_.on_control(net::make_control(net::kBroadcastId, make_check(3, 10)),
                    8);
  EXPECT_EQ(proto_.check_candidate(kFlow), 8u);
  host_.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host_.sent_count<net::CsiCheckMsg>(), 1u);
}

}  // namespace
}  // namespace rica::core
