// Unit tests for the comparator protocols (AODV, BGCA, ABR, link-state), the
// shared routing tables, and the source-discovery policy all four on-demand
// protocols (RICA included) share, all against the scripted mock host.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <ostream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/rica.hpp"
#include "harness/scenario.hpp"
#include "mock_host.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/linkstate/linkstate.hpp"
#include "routing/tables.hpp"
#include "spf_oracle.hpp"

namespace rica::routing {
namespace {

using channel::CsiClass;
using test::MockHost;
using test::make_data;

constexpr net::NodeId kSrc = 1;
constexpr net::NodeId kDst = 9;
constexpr net::FlowKey kFlow = net::flow_key(kSrc, kDst);

// ---------------------------------------------------------------------------
// Shared tables
// ---------------------------------------------------------------------------

TEST(PendingBuffer, CapacityEnforced) {
  PendingBuffer buf(2, sim::seconds(3));
  EXPECT_TRUE(buf.push(make_data(1, 2, 0), sim::Time::zero()));
  EXPECT_TRUE(buf.push(make_data(1, 2, 1), sim::Time::zero()));
  EXPECT_FALSE(buf.push(make_data(1, 2, 2), sim::Time::zero()));
  EXPECT_EQ(buf.size(), 2u);
}

TEST(PendingBuffer, TakeFreshSeparatesExpired) {
  PendingBuffer buf(10, sim::seconds(3));
  buf.push(make_data(1, 2, 0), sim::Time::zero());
  buf.push(make_data(1, 2, 1), sim::seconds(2));
  int expired = 0;
  const auto fresh = buf.take_fresh(
      sim::seconds(4), [&expired](const net::DataPacket&) { ++expired; });
  EXPECT_EQ(expired, 1);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].seq, 1u);
  EXPECT_TRUE(buf.empty());
}

TEST(PendingBuffer, PurgeExpiredDropsOnlyOldHead) {
  PendingBuffer buf(10, sim::seconds(3));
  buf.push(make_data(1, 2, 0), sim::Time::zero());
  buf.push(make_data(1, 2, 1), sim::seconds(2));
  int expired = 0;
  buf.purge_expired(sim::seconds(4),
                    [&expired](const net::DataPacket&) { ++expired; });
  EXPECT_EQ(expired, 1);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(CandidateWindow, CollectsOneFloodAndHandsItOverOnce) {
  sim::Simulator sim;
  CandidateWindow<CsiCandidate> w;
  int closes = 0;
  w.collect(sim, kDestWait, 7, CsiCandidate{4, 3.0, 2}, [&] { ++closes; });
  w.collect(sim, kDestWait, 7, CsiCandidate{6, 2.0, 3}, [&] { ++closes; });
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(closes, 1);  // only the opening copy schedules a close
  const auto c = w.close();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(csi_shortest(c).first_hop, 6u);
  EXPECT_EQ(w.bid(), 7u);
  EXPECT_TRUE(w.close().empty());  // closed windows hand over nothing
}

TEST(CandidateWindow, NewerFloodRestartsTheWindow) {
  sim::Simulator sim;
  CandidateWindow<CsiCandidate> w;
  w.collect(sim, kDestWait, 1, CsiCandidate{4, 1.0, 1}, [] {});
  w.collect(sim, kDestWait, 2, CsiCandidate{6, 5.0, 1}, [] {});
  const auto c = w.close();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].first_hop, 6u);
  EXPECT_EQ(w.bid(), 2u);
}

TEST(RepairHold, DiscardRecordsExpiredAndFreshPackets) {
  MockHost host(5);
  RepairHold hold;
  hold.hold(host, make_data(kSrc, kDst, 0));
  host.sim().run_until(sim::seconds(2));
  hold.hold(host, make_data(kSrc, kDst, 1));
  host.sim().run_until(sim::milliseconds(3500));
  hold.discard(host, kFlow);
  // seq 0 has waited 3.5 s, past its 3 s residency; seq 1 only 1.5 s.
  ASSERT_EQ(host.dropped.size(), 2u);
  EXPECT_EQ(host.dropped[0].first.seq, 0u);
  EXPECT_EQ(host.dropped[0].second, stats::DropReason::kExpired);
  EXPECT_EQ(host.dropped[1].first.seq, 1u);
  EXPECT_EQ(host.dropped[1].second, stats::DropReason::kLinkBreak);
}

// ---------------------------------------------------------------------------
// Source discovery, one policy for RICA, BGCA, ABR and AODV
// ---------------------------------------------------------------------------

/// One on-demand protocol as the discovery suite drives it: its factory,
/// its default retry timeout, the reply that answers a flood, and its
/// overflow counter.
struct OnDemandCase {
  std::string name;
  std::unique_ptr<Protocol> (*make)(MockHost& host, sim::Time timeout);
  sim::Time timeout;
  net::ControlPacket (*reply)(std::uint32_t bid);
  std::string overflow_stat;
};

void PrintTo(const OnDemandCase& c, std::ostream* os) { *os << c.name; }

std::vector<OnDemandCase> on_demand_cases() {
  return {
      {"RICA",
       [](MockHost& h, sim::Time t) -> std::unique_ptr<Protocol> {
         core::RicaConfig cfg;
         cfg.discovery_timeout = t;
         return std::make_unique<core::RicaProtocol>(h, cfg);
       },
       core::RicaConfig{}.discovery_timeout,
       [](std::uint32_t bid) {
         return net::make_control(kSrc, net::RrepMsg{kSrc, kDst, bid, 3.0, 2});
       },
       "rica.pending_overflow"},
      {"BGCA",
       [](MockHost& h, sim::Time t) -> std::unique_ptr<Protocol> {
         BgcaConfig cfg;
         cfg.discovery_timeout = t;
         return std::make_unique<BgcaProtocol>(h, cfg);
       },
       BgcaConfig{}.discovery_timeout,
       [](std::uint32_t bid) {
         return net::make_control(kSrc, net::RrepMsg{kSrc, kDst, bid, 3.0, 2});
       },
       "bgca.pending_overflow"},
      {"ABR",
       [](MockHost& h, sim::Time t) -> std::unique_ptr<Protocol> {
         AbrConfig cfg;
         cfg.discovery_timeout = t;
         return std::make_unique<AbrProtocol>(h, cfg);
       },
       AbrConfig{}.discovery_timeout,
       [](std::uint32_t bid) {
         return net::make_control(kSrc, net::AbrReplyMsg{kSrc, kDst, bid, 2});
       },
       "abr.pending_overflow"},
      {"AODV",
       [](MockHost& h, sim::Time t) -> std::unique_ptr<Protocol> {
         AodvConfig cfg;
         cfg.discovery_timeout = t;
         return std::make_unique<AodvProtocol>(h, cfg);
       },
       AodvConfig{}.discovery_timeout,
       [](std::uint32_t bid) {
         return net::make_control(kSrc, net::AodvRrepMsg{kSrc, kDst, bid, 2});
       },
       "aodv.pending_overflow"},
  };
}

class SourceDiscoveryTest : public ::testing::TestWithParam<OnDemandCase> {
 protected:
  struct Flood {
    std::uint32_t bid;
    sim::Time at;
  };

  /// The discovery floods the source sent, whatever the protocol's message.
  std::vector<Flood> floods() const {
    std::vector<Flood> out;
    for (const auto& s : host_.sent) {
      std::visit(
          [&](const auto& m) {
            using M = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<M, net::RreqMsg> ||
                          std::is_same_v<M, net::AbrBqMsg> ||
                          std::is_same_v<M, net::AodvRreqMsg>) {
              out.push_back(Flood{m.bid, s.at});
            }
          },
          s.pkt.payload);
    }
    return out;
  }

  MockHost host_{kSrc};
};

TEST_P(SourceDiscoveryTest, RetriesThenDropsAsNoRoute) {
  const auto proto = GetParam().make(host_, GetParam().timeout);
  proto->handle_data(make_data(kSrc, kDst), kSrc);
  host_.sim().run_until(sim::seconds(5));
  const auto f = floods();
  ASSERT_EQ(f.size(), static_cast<std::size_t>(kMaxDiscoveryAttempts));
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i].at, GetParam().timeout * static_cast<std::int64_t>(i));
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(f[i].bid, f[j].bid);
  }
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kNoRoute);
}

TEST_P(SourceDiscoveryTest, PacketPastResidencyDropsAsExpired) {
  // A 2 s retry timeout lets the held packet outlive its 3 s residency by
  // the second deadline, which then ends the discovery quietly.
  const auto proto = GetParam().make(host_, sim::seconds(2));
  proto->handle_data(make_data(kSrc, kDst), kSrc);
  host_.sim().run_until(sim::seconds(10));
  EXPECT_EQ(floods().size(), 2u);
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kExpired);
}

TEST_P(SourceDiscoveryTest, ReplyCancelsTheRetry) {
  const auto proto = GetParam().make(host_, GetParam().timeout);
  proto->handle_data(make_data(kSrc, kDst), kSrc);
  const auto f = floods();
  ASSERT_EQ(f.size(), 1u);
  const net::NodeId relay = 4;
  proto->on_control(GetParam().reply(f[0].bid), relay);
  host_.sim().run_until(sim::seconds(5));
  EXPECT_EQ(floods().size(), 1u);
  EXPECT_TRUE(host_.dropped.empty());
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, relay);
}

TEST_P(SourceDiscoveryTest, PendingOverflowIsRecordedAsADrop) {
  const auto proto = GetParam().make(host_, GetParam().timeout);
  for (std::uint32_t i = 0; i < 2 * kPendingCap; ++i) {
    proto->handle_data(make_data(kSrc, kDst, i), kSrc);
  }
  ASSERT_EQ(host_.dropped.size(), kPendingCap);
  for (const auto& [pkt, reason] : host_.dropped) {
    EXPECT_EQ(reason, stats::DropReason::kBufferOverflow);
    EXPECT_GE(pkt.seq, kPendingCap);  // the newest packets are refused
  }
  EXPECT_EQ(host_.counters[GetParam().overflow_stat], kPendingCap);
}

INSTANTIATE_TEST_SUITE_P(
    OnDemand, SourceDiscoveryTest, ::testing::ValuesIn(on_demand_cases()),
    [](const ::testing::TestParamInfo<OnDemandCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// AODV
// ---------------------------------------------------------------------------

class AodvTest : public ::testing::Test {
 protected:
  AodvTest() : host_(5), proto_(host_) {}
  MockHost host_;
  AodvProtocol proto_;
};

TEST_F(AodvTest, SourceFloodsRreqOnFirstPacket) {
  MockHost host(kSrc);
  AodvProtocol proto(host);
  proto.handle_data(make_data(kSrc, kDst), kSrc);
  net::NodeId to = 0;
  const auto* rreq = host.last_sent<net::AodvRreqMsg>(&to);
  ASSERT_NE(rreq, nullptr);
  EXPECT_EQ(to, net::kBroadcastId);
  EXPECT_EQ(rreq->hops, 0);
}

TEST_F(AodvTest, RelayIncrementsHopsAndRebroadcastsOnce) {
  const auto msg = net::AodvRreqMsg{kSrc, kDst, 1, 2};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 6);
  host_.sim().run_until(sim::milliseconds(20));  // fire the forwarding jitter
  const auto* fwd = host_.last_sent<net::AodvRreqMsg>();
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->hops, 3);
  EXPECT_EQ(host_.sent_count<net::AodvRreqMsg>(), 1u);
}

TEST_F(AodvTest, DestinationAnswersOnlyFirstCopy) {
  MockHost host(kDst);
  AodvProtocol proto(host);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 4}),
      7);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 2}),
      8);
  EXPECT_EQ(host.sent_count<net::AodvRrepMsg>(), 1u);
  net::NodeId to = 0;
  host.last_sent<net::AodvRrepMsg>(&to);
  // The paper's comparator: first copy wins even if a shorter one follows.
  EXPECT_EQ(to, 7u);
}

TEST_F(AodvTest, RrepInstallsForwardRoute) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  EXPECT_EQ(proto_.next_hop(kDst), 6u);
  net::NodeId to = 0;
  const auto* rrep = host_.last_sent<net::AodvRrepMsg>(&to);
  ASSERT_NE(rrep, nullptr);
  EXPECT_EQ(to, 4u);  // back along the reverse path
  EXPECT_EQ(rrep->hops, 1);
}

TEST_F(AodvTest, TransitDataWithoutRouteDropsAndReportsUpstream) {
  proto_.handle_data(make_data(kSrc, kDst), 4);
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kNoRoute);
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::AodvRerrMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
}

TEST_F(AodvTest, LinkBreakDiscardsStrandedAndInvalidates) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  proto_.handle_data(make_data(kSrc, kDst, 0), 4);  // sets the precursor
  ASSERT_TRUE(proto_.next_hop(kDst).has_value());

  proto_.on_link_break(6, {make_data(kSrc, kDst, 1), make_data(kSrc, kDst, 2)});
  EXPECT_FALSE(proto_.next_hop(kDst).has_value());
  EXPECT_EQ(host_.dropped.size(), 2u);
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::AodvRerrMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
}

TEST_F(AodvTest, RerrFromNonDownstreamIgnored) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  proto_.on_control(net::make_control(5, net::AodvRerrMsg{kSrc, kDst, 8}), 8);
  EXPECT_TRUE(proto_.next_hop(kDst).has_value());
}

TEST_F(AodvTest, RouteExpiresWhenUnused) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  ASSERT_TRUE(proto_.next_hop(kDst).has_value());
  // The active-route timeout is 3 s of disuse.
  host_.sim().run_until(sim::seconds(3) - sim::milliseconds(1));
  EXPECT_TRUE(proto_.next_hop(kDst).has_value());
  host_.sim().run_until(sim::seconds(3) + sim::milliseconds(1));
  EXPECT_FALSE(proto_.next_hop(kDst).has_value());
}

// ---------------------------------------------------------------------------
// BGCA
// ---------------------------------------------------------------------------

class BgcaTest : public ::testing::Test {
 protected:
  BgcaTest() : host_(5), proto_(host_) {
    host_.set_link(4, CsiClass::B);
    host_.set_link(6, CsiClass::A);
  }
  MockHost host_;
  BgcaProtocol proto_;
};

TEST_F(BgcaTest, RequirementScalesWithFlowRate) {
  BgcaConfig cfg;
  cfg.flow_rate_bps = 82'000.0;  // 20 pkt/s of 512 B
  MockHost host(5);
  BgcaProtocol proto(host, cfg);
  EXPECT_DOUBLE_EQ(proto.requirement_bps(), 123'000.0);
  // Class C (75 kbps) and D (50 kbps) violate it; B (150 kbps) does not.
}

TEST_F(BgcaTest, DiscoveryUsesCsiMetricAtDestination) {
  MockHost host(kDst);
  BgcaProtocol proto(host);
  host.set_link(7, CsiClass::A);
  host.set_link(8, CsiClass::D);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 1.0, 3}),
      7);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 1.0, 1}),
      8);
  host.sim().run_until(sim::milliseconds(100));
  net::NodeId to = 0;
  ASSERT_NE(host.last_sent<net::RrepMsg>(&to), nullptr);
  // 1.0 + A(1.0) = 2.0 beats 1.0 + D(5.0) = 6.0 despite fewer topo hops.
  EXPECT_EQ(to, 7u);
}

TEST_F(BgcaTest, GuardTriggersLocalQueryAfterPersistentDeficiency) {
  BgcaConfig cfg;
  cfg.flow_rate_bps = 41'000.0;  // requirement 61.5 kbps: class D violates
  MockHost host(5);
  BgcaProtocol proto(host, cfg);
  host.set_link(4, CsiClass::B);
  host.set_link(6, CsiClass::D);
  proto.start();
  // Install a route via 6 (RREP from downstream).
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 5.0, 1}),
                   6);
  ASSERT_EQ(proto.downstream(kFlow), 6u);
  host.sim().run_until(sim::seconds(4));
  EXPECT_GE(host.counters["bgca.guard_trigger"], 1u);
  EXPECT_GE(host.sent_count<net::BgcaLqMsg>(), 1u);
}

TEST_F(BgcaTest, GuardLeavesHealthyLinksAlone) {
  BgcaConfig cfg;
  cfg.flow_rate_bps = 41'000.0;
  MockHost host(5);
  BgcaProtocol proto(host, cfg);
  host.set_link(4, CsiClass::B);
  host.set_link(6, CsiClass::B);  // 150 kbps: comfortably above 61.5
  proto.start();
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 1}),
                   6);
  host.sim().run_until(sim::seconds(4));
  EXPECT_EQ(host.counters["bgca.guard_trigger"], 0u);
  EXPECT_EQ(host.sent_count<net::BgcaLqMsg>(), 0u);
}

TEST_F(BgcaTest, OnPathNodeAnswersLocalQuery) {
  // This node has a live entry 2 hops from dst; origin is 4 hops away.
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 1}),
                    6);
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 4;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  net::NodeId to = 0;
  const auto* reply = host_.last_sent<net::BgcaLqReplyMsg>(&to);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(to, 4u);
  EXPECT_EQ(reply->join, 5u);
}

TEST_F(BgcaTest, FartherNodeDoesNotAnswerLocalQuery) {
  // Join eligibility requires being strictly closer to the destination.
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 4}),
                    6);  // hops_to_dst = 5
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 2;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  EXPECT_EQ(host_.sent_count<net::BgcaLqReplyMsg>(), 0u);
  // It rebroadcasts the query instead (after the CSI jitter).
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host_.sent_count<net::BgcaLqMsg>(), 1u);
}

TEST_F(BgcaTest, BreakBuffersTrafficUntilLqReplyArrives) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}),
                    6);
  proto_.on_link_break(6, {make_data(kSrc, kDst, 0)});
  EXPECT_GE(host_.sent_count<net::BgcaLqMsg>(), 1u);
  // Traffic arriving during repair is buffered, not dropped or forwarded.
  proto_.handle_data(make_data(kSrc, kDst, 1), 4);
  EXPECT_TRUE(host_.forwarded.empty());
  EXPECT_TRUE(host_.dropped.empty());

  // The reply splices a partial route via 7 and flushes the buffer.
  host_.set_link(7, CsiClass::B);
  const auto* lq = host_.last_sent<net::BgcaLqMsg>();
  ASSERT_NE(lq, nullptr);
  net::BgcaLqReplyMsg reply;
  reply.origin = 5;
  reply.src = kSrc;
  reply.dst = kDst;
  reply.bid = lq->bid;
  reply.csi_hops = 2.0;
  reply.join_hops_to_dst = 1;
  reply.join = 7;
  proto_.on_control(net::make_control(5, reply), 7);
  host_.sim().run_until(sim::milliseconds(200));
  EXPECT_EQ(proto_.downstream(kFlow), 7u);
  EXPECT_EQ(host_.forwarded.size(), 2u);
}

TEST_F(BgcaTest, FailedRepairEscalatesWithReer) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}),
                    6);
  proto_.on_link_break(6, {make_data(kSrc, kDst, 0)});
  host_.sim().run_until(sim::seconds(1));  // LQ times out with no reply
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::ReerMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
  // The held packet died with the failed repair.
  ASSERT_GE(host_.dropped.size(), 1u);
}

TEST(BgcaHistoryFirst, DuplicateRreqAtRelayCreatesNoChannelPair) {
  test::StaticChannel net(12);
  test::ChannelHost host(5, net.channel);
  BgcaProtocol proto(host);
  const auto rreq = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  for (const net::NodeId from : {4u, 6u, 7u}) {
    proto.on_control(net::make_control(net::kBroadcastId, rreq), from);
  }
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  host.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host.sent_count<net::RreqMsg>(), 1u);
}

TEST(BgcaHistoryFirst, DestinationSamplesEveryRreqCopy) {
  test::StaticChannel net(12);
  test::ChannelHost host(kDst, net.channel);
  BgcaProtocol proto(host);
  const auto rreq = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  for (const net::NodeId from : {4u, 6u, 7u}) {
    proto.on_control(net::make_control(net::kBroadcastId, rreq), from);
  }
  EXPECT_EQ(net.channel.live_pairs(), 3u);
}

net::BgcaLqMsg make_lq(std::uint32_t bid) {
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = bid;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 2;
  return lq;
}

TEST(BgcaHistoryFirst, DuplicateLqCreatesNoChannelPair) {
  test::StaticChannel net(12);
  test::ChannelHost host(5, net.channel);
  BgcaProtocol proto(host);
  for (const net::NodeId from : {4u, 6u, 7u}) {
    proto.on_control(net::make_control(net::kBroadcastId, make_lq(11)), from);
  }
  EXPECT_EQ(net.channel.live_pairs(), 1u);
  host.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host.sent_count<net::BgcaLqMsg>(), 1u);
}

TEST_F(BgcaTest, OutOfRangeFirstRreqDoesNotSuppressLaterCopy) {
  host_.clear_link(4);
  const auto msg = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 6);
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host_.sent_count<net::RreqMsg>(), 1u);
}

TEST_F(BgcaTest, OutOfRangeFirstLqDoesNotSuppressLaterCopy) {
  host_.clear_link(4);
  proto_.on_control(net::make_control(net::kBroadcastId, make_lq(11)), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, make_lq(11)), 6);
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host_.sent_count<net::BgcaLqMsg>(), 1u);
}

// ---------------------------------------------------------------------------
// ABR
// ---------------------------------------------------------------------------

class AbrTest : public ::testing::Test {
 protected:
  AbrTest() : host_(5), proto_(host_) {}
  MockHost host_;
  AbrProtocol proto_;
};

TEST_F(AbrTest, BeaconsIncrementTicks) {
  EXPECT_EQ(proto_.ticks(4), 0u);
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  EXPECT_EQ(proto_.ticks(4), 2u);
}

TEST_F(AbrTest, TicksResetAfterSilence) {
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  host_.sim().run_until(sim::seconds(10));  // way past neighbor_timeout
  EXPECT_EQ(proto_.ticks(4), 0u);
}

TEST_F(AbrTest, TicksSaturateAtCap) {
  MockHost host(5);
  AbrProtocol proto(host);
  for (std::uint32_t i = 0; i < AbrProtocol::kTickCap + 10; ++i) {
    proto.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                     4);
  }
  EXPECT_EQ(proto.ticks(4), AbrProtocol::kTickCap);
}

TEST_F(AbrTest, StartBroadcastsPeriodicBeacons) {
  proto_.start();
  host_.sim().run_until(sim::seconds(5));
  EXPECT_GE(host_.sent_count<net::AbrBeaconMsg>(), 4u);
}

TEST_F(AbrTest, BqAccumulatesTicksAndLoad) {
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  host_.buffered = 3;
  net::AbrBqMsg bq;
  bq.src = kSrc;
  bq.dst = kDst;
  bq.bid = 1;
  bq.tick_sum = 10;
  bq.load_sum = 2;
  bq.topo_hops = 1;
  proto_.on_control(net::make_control(net::kBroadcastId, bq), 4);
  const auto* fwd = host_.last_sent<net::AbrBqMsg>();
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->tick_sum, 12u);  // +2 ticks of the link it came over
  EXPECT_EQ(fwd->load_sum, 5u);   // +3 packets buffered here
  EXPECT_EQ(fwd->topo_hops, 2);
}

TEST_F(AbrTest, DestinationPrefersAggregateStability) {
  MockHost host(kDst);
  AbrProtocol proto(host);
  net::AbrBqMsg stable;
  stable.src = kSrc;
  stable.dst = kDst;
  stable.bid = 1;
  stable.tick_sum = 40;
  stable.load_sum = 5;
  stable.topo_hops = 5;  // longer but more stable
  net::AbrBqMsg fresh = stable;
  fresh.tick_sum = 10;
  fresh.load_sum = 0;
  fresh.topo_hops = 2;
  proto.on_control(net::make_control(net::kBroadcastId, fresh), 7);
  proto.on_control(net::make_control(net::kBroadcastId, stable), 8);
  host.sim().run_until(sim::milliseconds(100));
  net::NodeId to = 0;
  ASSERT_NE(host.last_sent<net::AbrReplyMsg>(&to), nullptr);
  EXPECT_EQ(to, 8u);  // the stable route wins despite 5 vs 2 hops
}

TEST_F(AbrTest, LinkBreakStartsLocalQueryAndBuffers) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 1}),
                    6);
  ASSERT_EQ(proto_.downstream(kFlow), 6u);
  proto_.on_link_break(6, {make_data(kSrc, kDst, 0)});
  EXPECT_GE(host_.sent_count<net::AbrLqMsg>(), 1u);
  proto_.handle_data(make_data(kSrc, kDst, 1), 4);
  EXPECT_TRUE(host_.forwarded.empty());  // buffered during repair
}

TEST_F(AbrTest, FailedLqBacktracksWithRn) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 1}),
                    6);
  proto_.on_link_break(6, {});
  host_.sim().run_until(sim::seconds(1));  // LQ timeout, no replies
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::AbrRnMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
}

TEST_F(AbrTest, RnFromDownstreamTriggersOwnRepair) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 1}),
                    6);
  proto_.on_control(net::make_control(5, net::AbrRnMsg{kSrc, kDst, 6}), 6);
  EXPECT_GE(host_.sent_count<net::AbrLqMsg>(), 1u);
}

// ---------------------------------------------------------------------------
// Local query, one mechanism for BGCA and ABR
// ---------------------------------------------------------------------------

/// One protocol as the local-query suite drives it, at relay 5 of a route
/// 4 -> 5 -> 6 that is 3 hops from the destination.
struct LocalQueryCase {
  std::string name;
  std::string stat;  ///< the counter prefix
  std::unique_ptr<Protocol> (*make)(MockHost& host);
  /// Installs the route: a flood from 4, then its reply from 6.
  void (*install)(Protocol& p);
  std::optional<net::NodeId> (*downstream)(const Protocol& p);
  /// A query for kFlow from `origin`, `origin_hops` from the destination.
  net::ControlPacket (*query)(net::NodeId origin, std::uint32_t bid,
                              std::uint16_t origin_hops);
  /// An answer to `origin`'s query `bid` (ABR's reply carries no CSI).
  net::ControlPacket (*reply)(net::NodeId origin, std::uint32_t bid,
                              double csi_hops, std::uint16_t join_hops);
  /// The winner among replies from 7 {csi 1.0, join 2}, 8 {csi 3.0, join 1}
  /// and 9 {csi 1.0, join 1}: BGCA ranks by CSI distance, ABR by join hops,
  /// and the earliest of equals wins.
  net::NodeId best;
  std::uint16_t best_hops_to_dst;
};

void PrintTo(const LocalQueryCase& c, std::ostream* os) { *os << c.name; }

template <typename P>
std::optional<net::NodeId> downstream_of(const Protocol& p) {
  return static_cast<const P&>(p).downstream(kFlow);
}

template <typename Lq>
net::ControlPacket make_query(net::NodeId origin, std::uint32_t bid,
                              std::uint16_t origin_hops) {
  Lq lq;
  lq.origin = origin;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = bid;
  lq.ttl = 3;
  lq.origin_hops_to_dst = origin_hops;
  return net::make_control(net::kBroadcastId, lq);
}

std::vector<LocalQueryCase> local_query_cases() {
  return {
      {"BGCA", "bgca",
       [](MockHost& h) -> std::unique_ptr<Protocol> {
         return std::make_unique<BgcaProtocol>(h);
       },
       [](Protocol& p) {
         p.on_control(net::make_control(net::kBroadcastId,
                                        net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
                      4);
         p.on_control(
             net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}), 6);
       },
       downstream_of<BgcaProtocol>, make_query<net::BgcaLqMsg>,
       [](net::NodeId origin, std::uint32_t bid, double csi_hops,
          std::uint16_t join_hops) {
         net::BgcaLqReplyMsg r;
         r.origin = origin;
         r.src = kSrc;
         r.dst = kDst;
         r.bid = bid;
         r.csi_hops = csi_hops;
         r.join_hops_to_dst = join_hops;
         return net::make_control(origin, r);
       },
       7, 3},
      {"ABR", "abr",
       [](MockHost& h) -> std::unique_ptr<Protocol> {
         return std::make_unique<AbrProtocol>(h);
       },
       [](Protocol& p) {
         p.on_control(net::make_control(net::kBroadcastId,
                                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
                      4);
         p.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 2}),
                      6);
       },
       downstream_of<AbrProtocol>, make_query<net::AbrLqMsg>,
       [](net::NodeId origin, std::uint32_t bid, double,
          std::uint16_t join_hops) {
         net::AbrLqReplyMsg r;
         r.origin = origin;
         r.src = kSrc;
         r.dst = kDst;
         r.bid = bid;
         r.join_hops_to_dst = join_hops;
         return net::make_control(origin, r);
       },
       8, 2},
  };
}

class LocalQueryTest : public ::testing::TestWithParam<LocalQueryCase> {
 protected:
  LocalQueryTest() : proto_(GetParam().make(host_)) {
    host_.set_link(4, CsiClass::B);
    host_.set_link(6, CsiClass::A);
  }

  /// The fields both protocols' queries and replies carry.
  struct Sent {
    net::NodeId to;
    net::NodeId origin;
    std::uint32_t bid;
    std::int16_t ttl;  ///< queries only
    std::uint16_t hops;  ///< a query's origin_hops_to_dst, a reply's join hops
    sim::Time at;
  };

  /// The local queries (`replies` false) or their replies this host sent.
  std::vector<Sent> sent(bool replies) const {
    std::vector<Sent> out;
    for (const auto& s : host_.sent) {
      std::visit(
          [&](const auto& m) {
            using M = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<M, net::BgcaLqMsg> ||
                          std::is_same_v<M, net::AbrLqMsg>) {
              if (!replies) {
                out.push_back(Sent{s.pkt.to, m.origin, m.bid, m.ttl,
                                   m.origin_hops_to_dst, s.at});
              }
            } else if constexpr (std::is_same_v<M, net::BgcaLqReplyMsg> ||
                                 std::is_same_v<M, net::AbrLqReplyMsg>) {
              if (replies) {
                out.push_back(Sent{s.pkt.to, m.origin, m.bid, 0,
                                   m.join_hops_to_dst, s.at});
              }
            }
          },
          s.pkt.payload);
    }
    return out;
  }

  std::uint64_t counter(const char* suffix) {
    return host_.counters[GetParam().stat + suffix];
  }

  /// Installs the route, breaks its link to 6 with one packet stranded, and
  /// returns the query the break started.
  Sent break_route() {
    GetParam().install(*proto_);
    EXPECT_EQ(GetParam().downstream(*proto_), 6u);
    proto_->on_link_break(6, {make_data(kSrc, kDst, 0)});
    const auto q = sent(false);
    EXPECT_EQ(q.size(), 1u);
    return q.empty() ? Sent{} : q.back();
  }

  MockHost host_{5};
  std::unique_ptr<Protocol> proto_;
};

TEST_P(LocalQueryTest, BreakStartsOneQueryWithTtl3) {
  const Sent q = break_route();
  EXPECT_EQ(q.to, net::kBroadcastId);
  EXPECT_EQ(q.origin, 5u);
  EXPECT_EQ(q.ttl, 3);
  EXPECT_EQ(q.hops, 3u);  // the origin's own hops to the destination
  EXPECT_EQ(counter(".lq"), 1u);
}

TEST_P(LocalQueryTest, ReplyForAnotherBidIsIgnored) {
  const Sent q = break_route();
  proto_->on_control(GetParam().reply(5, q.bid + 7, 1.0, 0), 7);
  host_.sim().run_until(sim::seconds(1));
  EXPECT_EQ(counter(".lq_success"), 0u);
  EXPECT_NE(GetParam().downstream(*proto_), std::optional<net::NodeId>(7));
  for (const auto& f : host_.forwarded) EXPECT_NE(f.next_hop, 7u);
}

TEST_P(LocalQueryTest, BestCandidateIsInstalledAndHeldPacketsFlush) {
  const Sent q = break_route();
  proto_->handle_data(make_data(kSrc, kDst, 1), 4);  // held during repair
  EXPECT_TRUE(host_.forwarded.empty());
  proto_->on_control(GetParam().reply(5, q.bid, 1.0, 2), 7);
  proto_->on_control(GetParam().reply(5, q.bid, 3.0, 1), 8);
  proto_->on_control(GetParam().reply(5, q.bid, 1.0, 1), 9);
  EXPECT_TRUE(host_.forwarded.empty());  // the deadline picks, not a reply
  host_.sim().run_until(sim::seconds(1));
  EXPECT_EQ(GetParam().downstream(*proto_), GetParam().best);
  EXPECT_EQ(counter(".lq_success"), 1u);
  ASSERT_EQ(host_.forwarded.size(), 2u);
  for (const auto& f : host_.forwarded) {
    EXPECT_EQ(f.next_hop, GetParam().best);
  }
  // The spliced route is the join's hops plus one: a query from a terminal
  // one hop farther is answered with them.
  proto_->on_control(
      GetParam().query(3, 40, static_cast<std::uint16_t>(
                                  GetParam().best_hops_to_dst + 1)),
      4);
  const auto r = sent(true);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].to, 4u);
  EXPECT_EQ(r[0].hops, GetParam().best_hops_to_dst);
}

TEST_P(LocalQueryTest, RelaySplicesTheReplyToItsUpstream) {
  // Relay 5 has no route: it passes the query of origin 3 on, then the
  // answer from 7 comes back through it.
  proto_->on_control(GetParam().query(3, 11, 4), 4);
  host_.sim().run_until(sim::milliseconds(100));
  ASSERT_EQ(sent(false).size(), 1u);
  proto_->on_control(GetParam().reply(3, 11, 2.0, 1), 7);
  EXPECT_EQ(GetParam().downstream(*proto_), 7u);
  const auto r = sent(true);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].to, 4u);  // the flood-log upstream of the query
  EXPECT_EQ(r[0].origin, 3u);
  EXPECT_EQ(r[0].bid, 11u);
  EXPECT_EQ(r[0].hops, 2u);  // the join's 1 hop plus this relay's
}

INSTANTIATE_TEST_SUITE_P(
    OnDemand, LocalQueryTest, ::testing::ValuesIn(local_query_cases()),
    [](const ::testing::TestParamInfo<LocalQueryCase>& info) {
      return info.param.name;
    });

TEST_F(BgcaTest, GuardQueryThatFindsNothingKeepsTheLiveRoute) {
  host_.set_link(6, CsiClass::D);  // below the 61.5 kbps requirement
  proto_.start();
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 5.0, 1}),
                    6);
  host_.sim().run_until(sim::seconds(4));
  ASSERT_GE(host_.counters["bgca.lq"], 1u);
  EXPECT_EQ(host_.counters["bgca.lq_success"], 0u);
  EXPECT_EQ(host_.sent_count<net::ReerMsg>(), 0u);
  EXPECT_EQ(proto_.downstream(kFlow), 6u);
  proto_.handle_data(make_data(kSrc, kDst), 4);
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, 6u);
}

TEST_F(BgcaTest, LqForwardWaitsForTheCsiJitter) {
  proto_.on_control(net::make_control(net::kBroadcastId, make_lq(11)), 4);
  EXPECT_EQ(host_.sent_count<net::BgcaLqMsg>(), 0u);
  host_.sim().run_until(sim::milliseconds(100));
  ASSERT_EQ(host_.sent_count<net::BgcaLqMsg>(), 1u);
  EXPECT_GT(host_.sent.back().at, sim::Time::zero());
}

TEST_F(AbrTest, LqForwardIsSentAtOnce) {
  net::AbrLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 2;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  ASSERT_EQ(host_.sent_count<net::AbrLqMsg>(), 1u);
  EXPECT_EQ(host_.last_sent<net::AbrLqMsg>()->ttl, 2);
  EXPECT_EQ(host_.sim().pending_events(), 0u);
}

TEST_F(AbrTest, SecondBreakRestartsTheQueryWithANewBid) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 2}),
                    6);
  proto_.on_link_break(6, {});
  const std::uint32_t first = host_.last_sent<net::AbrLqMsg>()->bid;
  proto_.on_link_break(6, {});
  ASSERT_EQ(host_.sent_count<net::AbrLqMsg>(), 2u);
  const std::uint32_t second = host_.last_sent<net::AbrLqMsg>()->bid;
  EXPECT_NE(first, second);
  EXPECT_EQ(host_.counters["abr.lq"], 2u);
  // Only the restarted query's replies count.
  net::AbrLqReplyMsg reply;
  reply.origin = 5;
  reply.src = kSrc;
  reply.dst = kDst;
  reply.bid = first;
  reply.join_hops_to_dst = 0;
  proto_.on_control(net::make_control(5, reply), 7);
  reply.bid = second;
  reply.join_hops_to_dst = 1;
  proto_.on_control(net::make_control(5, reply), 8);
  host_.sim().run_until(sim::seconds(1));
  EXPECT_EQ(proto_.downstream(kFlow), 8u);
  EXPECT_EQ(host_.counters["abr.lq_success"], 1u);
  EXPECT_EQ(host_.sent_count<net::AbrRnMsg>(), 0u);
}

TEST_F(AbrTest, FinishIsANoOpOnceTheRepairEnded) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 2}),
                    6);
  proto_.on_link_break(6, {});
  // A discovery reply through 7 ends the repair before the deadline.
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 3}),
                    7);
  host_.sim().run_until(sim::seconds(1));
  EXPECT_EQ(proto_.downstream(kFlow), 7u);
  EXPECT_EQ(host_.sent_count<net::AbrRnMsg>(), 0u);
  EXPECT_EQ(host_.counters["abr.rn"], 0u);
}

// ---------------------------------------------------------------------------
// Link state
// ---------------------------------------------------------------------------

class LinkStateTest : public ::testing::Test {
 protected:
  LinkStateTest() : host_(0), proto_(host_, config()) {}

  static LinkStateConfig config() {
    LinkStateConfig cfg;
    cfg.num_nodes = 5;
    return cfg;
  }

  /// Line topology 0-1-2-3-4 with the given uniform class.
  static LinkStateProtocol::Topology line(CsiClass cls) {
    LinkStateProtocol::Topology topo(5);
    for (net::NodeId i = 0; i + 1 < 5; ++i) {
      topo[i].emplace_back(i + 1, cls);
      topo[i + 1].emplace_back(i, cls);
    }
    return topo;
  }

  MockHost host_;
  LinkStateProtocol proto_;
};

TEST_F(LinkStateTest, DijkstraFollowsLine) {
  proto_.install_topology(line(CsiClass::A));
  EXPECT_EQ(proto_.next_hop(4), 1u);
  EXPECT_EQ(proto_.next_hop(1), 1u);
}

TEST_F(LinkStateTest, UnreachableDestinationHasNoNextHop) {
  auto topo = line(CsiClass::A);
  topo[3].clear();
  topo[4].clear();
  topo[2].erase(topo[2].begin() + 1);  // cut 2-3
  proto_.install_topology(topo);
  EXPECT_FALSE(proto_.next_hop(4).has_value());
  EXPECT_TRUE(proto_.next_hop(2).has_value());
}

TEST_F(LinkStateTest, CsiCostsPreferHighThroughputDetour) {
  // 0-1 direct class D (cost 5) vs 0-2-1 with two class-A links (cost 2).
  LinkStateProtocol::Topology topo(5);
  topo[0] = {{1, CsiClass::D}, {2, CsiClass::A}};
  topo[1] = {{0, CsiClass::D}, {2, CsiClass::A}};
  topo[2] = {{0, CsiClass::A}, {1, CsiClass::A}};
  proto_.install_topology(topo);
  EXPECT_EQ(proto_.next_hop(1), 2u);
}

TEST_F(LinkStateTest, LsuUpdatesViewAndRefloods) {
  proto_.install_topology(line(CsiClass::A));
  // Node 2 reports that its link to 3 is gone.
  net::LsuMsg lsu;
  lsu.origin = 2;
  lsu.seq = 1;
  lsu.links = net::share_row({{1, CsiClass::A}});
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  EXPECT_EQ(host_.sent_count<net::LsuMsg>(), 1u);  // re-flooded once
  // Wait out the SPF hold-down, then the route must avoid 2-3.
  host_.sim().run_until(sim::seconds(5));
  EXPECT_FALSE(proto_.next_hop(4).has_value());
}

TEST_F(LinkStateTest, StaleLsuIgnored) {
  proto_.install_topology(line(CsiClass::A));
  net::LsuMsg lsu;
  lsu.origin = 2;
  lsu.seq = 5;
  lsu.links = net::share_row({{1, CsiClass::A}});
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  net::LsuMsg old = lsu;
  old.seq = 4;
  old.links = net::share_row(line(CsiClass::A)[2]);
  proto_.on_control(net::make_control(net::kBroadcastId, old), 3);
  EXPECT_EQ(host_.sent_count<net::LsuMsg>(), 1u);  // the stale one died here
}

TEST_F(LinkStateTest, SpfHoldDownDelaysRecomputation) {
  proto_.install_topology(line(CsiClass::A));
  ASSERT_EQ(proto_.next_hop(4), 1u);  // SPF ran
  net::LsuMsg lsu;
  lsu.origin = 1;
  lsu.seq = 1;
  lsu.links = net::share_row({{0, CsiClass::A}});  // 1 lost its link to 2
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  // Within the hold-down the stale tree still routes via 1.
  EXPECT_EQ(proto_.next_hop(4), 1u);
  host_.sim().run_until(sim::seconds(5));
  EXPECT_FALSE(proto_.next_hop(4).has_value());
}

TEST_F(LinkStateTest, DataForwardedAlongDijkstraRoute) {
  proto_.install_topology(line(CsiClass::B));
  proto_.handle_data(make_data(0, 4), 0);
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, 1u);
}

TEST_F(LinkStateTest, DeliversLocalData) {
  proto_.install_topology(line(CsiClass::A));
  proto_.handle_data(make_data(4, 0), 1);
  EXPECT_EQ(host_.delivered.size(), 1u);
}

TEST_F(LinkStateTest, BreakRemovesLinkAndFloods) {
  proto_.install_topology(line(CsiClass::A));
  ASSERT_EQ(proto_.next_hop(4), 1u);
  proto_.on_link_break(1, {make_data(0, 4)});
  EXPECT_EQ(host_.dropped.size(), 1u);
  EXPECT_GE(host_.sent_count<net::LsuMsg>(), 1u);
  EXPECT_TRUE(proto_.own_row().empty());
}

// Every terminal reads one shared t = 0 snapshot and copies a row only when
// it changes that row itself.
class LinkStateSharedSnapshotTest : public LinkStateTest {
 protected:
  LinkStateSharedSnapshotTest() : peer_host_(1), peer_(peer_host_, config()) {
    proto_.install_topology(topo_);
    peer_.install_topology(topo_);
  }

  const LinkStateProtocol::Topology topo_ = line(CsiClass::A);
  MockHost peer_host_;
  LinkStateProtocol peer_;
};

TEST_F(LinkStateSharedSnapshotTest, TerminalsReadOneRowStore) {
  for (net::NodeId origin = 0; origin < 5; ++origin) {
    EXPECT_EQ(&proto_.row(origin), &peer_.row(origin));
    EXPECT_EQ(&proto_.row(origin), &topo_[origin]);
  }
}

// A terminal keeps no table of its own for the view until it changes a row:
// through SPF runs it reads the installed snapshot's own row objects, and an
// LSU then moves only the row it carries.
TEST_F(LinkStateSharedSnapshotTest, ReadsTheSnapshotUntilItsFirstLsu) {
  ASSERT_EQ(proto_.next_hop(4), 1u);
  for (net::NodeId origin = 0; origin < 5; ++origin) {
    EXPECT_EQ(&proto_.row(origin), &topo_[origin]) << "origin " << origin;
  }
  EXPECT_THROW((void)proto_.row(5), std::out_of_range);

  const net::LsuMsg lsu{2, 1, net::share_row({{1, CsiClass::A}})};
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  for (net::NodeId origin = 0; origin < 5; ++origin) {
    const auto* want = origin == 2 ? lsu.links.get() : &topo_[origin];
    EXPECT_EQ(&proto_.row(origin), want) << "origin " << origin;
    EXPECT_EQ(&peer_.row(origin), &topo_[origin]) << "origin " << origin;
  }
  EXPECT_THROW((void)proto_.row(5), std::out_of_range);

  // Before any install every row reads empty, and the bound still holds.
  MockHost fresh_host(3);
  const LinkStateProtocol fresh(fresh_host, config());
  EXPECT_TRUE(fresh.row(4).empty());
  EXPECT_THROW((void)fresh.row(5), std::out_of_range);
}

TEST_F(LinkStateSharedSnapshotTest, LsuChangesOnlyTheReceiversView) {
  ASSERT_EQ(peer_.next_hop(4), 2u);
  net::LsuMsg lsu;
  lsu.origin = 2;
  lsu.seq = 1;
  lsu.links = net::share_row({{1, CsiClass::A}});  // 2 lost its link to 3
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  EXPECT_EQ(proto_.row(2), lsu.row());
  EXPECT_EQ(peer_.row(2), topo_[2]);
  EXPECT_EQ(&proto_.row(3), &peer_.row(3));  // untouched rows stay shared
  host_.sim().run_until(sim::seconds(5));
  peer_host_.sim().run_until(sim::seconds(5));
  EXPECT_FALSE(proto_.next_hop(4).has_value());
  EXPECT_EQ(peer_.next_hop(4), 2u);
}

TEST_F(LinkStateSharedSnapshotTest, WriteThroughACopyLeavesViewsAlone) {
  auto copy = topo_;
  copy[2].clear();
  copy[3].clear();
  EXPECT_TRUE(copy[2].empty());
  EXPECT_EQ(proto_.row(2), line(CsiClass::A)[2]);
  EXPECT_EQ(peer_.row(3), line(CsiClass::A)[3]);
  EXPECT_EQ(&proto_.row(2), &topo_[2]);
  EXPECT_EQ(proto_.next_hop(4), 1u);
}

TEST_F(LinkStateSharedSnapshotTest, SensedChangeFloodsOwnRowOnly) {
  host_.set_link(1, CsiClass::A);  // what the snapshot already says
  proto_.start();
  host_.sim().run_until(sim::milliseconds(200));
  EXPECT_EQ(host_.sent_count<net::LsuMsg>(), 0u);
  EXPECT_EQ(&proto_.own_row(), &peer_.row(0));

  host_.set_link(1, CsiClass::C);
  host_.sim().run_until(sim::milliseconds(400));
  ASSERT_EQ(host_.sent_count<net::LsuMsg>(), 1u);
  const LinkStateProtocol::AdjacencyRow sensed = {{1, CsiClass::C}};
  EXPECT_EQ(host_.last_sent<net::LsuMsg>()->row(), sensed);
  EXPECT_EQ(proto_.own_row(), sensed);
  EXPECT_EQ(peer_.row(0), topo_[0]);
}

TEST_F(LinkStateSharedSnapshotTest, LinkBreakFloodsOwnRowOnly) {
  peer_.on_link_break(2, {});
  ASSERT_EQ(peer_host_.sent_count<net::LsuMsg>(), 1u);
  const LinkStateProtocol::AdjacencyRow kept = {{0, CsiClass::A}};
  EXPECT_EQ(peer_host_.last_sent<net::LsuMsg>()->row(), kept);
  EXPECT_EQ(peer_.own_row(), kept);
  EXPECT_EQ(proto_.row(1), topo_[1]);
}

/// `proto`'s own view, as a topology the heap oracle can read.
LinkStateProtocol::Topology view_of(const LinkStateProtocol& proto,
                                    std::size_t n) {
  LinkStateProtocol::Topology view(n);
  for (net::NodeId origin = 0; origin < n; ++origin) {
    view[origin] = proto.row(origin);
  }
  return view;
}

/// Every next hop of terminal `self` against the heap Dijkstra on its view.
void expect_oracle_next_hops(LinkStateProtocol& proto, net::NodeId self,
                             std::size_t n) {
  const auto want = oracle::spf_first_hops(view_of(proto, n), self);
  for (net::NodeId dst = 0; dst < n; ++dst) {
    EXPECT_EQ(proto.next_hop(dst).value_or(oracle::kNoNextHop), want[dst])
        << "dst " << dst;
  }
}

// An LSU row is allocated once, by its origin: a relay adopts the received
// row into its view and re-floods that same row in a frame of the received
// size, and the origin's later changes publish new rows rather than write
// into the one that others hold.
TEST_F(LinkStateSharedSnapshotTest, RelayAdoptsAndRefloodsTheReceivedRow) {
  expect_oracle_next_hops(proto_, 0, 5);
  // Relays each LSU node 1 floods to terminal 0; returns the row it holds.
  std::size_t relayed_count = 0;
  const auto relay_last = [&] {
    const net::ControlPacket flooded = peer_host_.sent.back().pkt;
    const net::SharedLinkRow row = std::get<net::LsuMsg>(flooded.payload).links;
    EXPECT_EQ(&peer_.own_row(), row.get());  // published, not copied
    proto_.on_control(flooded, 1);
    EXPECT_EQ(host_.sent_count<net::LsuMsg>(), ++relayed_count);
    const net::ControlPacket& relayed = host_.sent.back().pkt;
    EXPECT_EQ(std::get<net::LsuMsg>(relayed.payload).links, row);
    EXPECT_EQ(relayed.size_bytes, flooded.size_bytes);
    EXPECT_EQ(&proto_.row(1), row.get());
    return row;
  };

  // Node 1 senses a new class toward 0 and floods its row.
  peer_host_.set_link(0, CsiClass::C);
  peer_host_.set_link(2, CsiClass::A);
  peer_.start();
  peer_host_.sim().run_until(sim::milliseconds(150));
  ASSERT_EQ(peer_host_.sent_count<net::LsuMsg>(), 1u);
  const auto sensed = relay_last();
  const LinkStateProtocol::AdjacencyRow sensed_copy = *sensed;

  // Its link to 2 breaks: a new row, and the one terminal 0 holds stays.
  peer_.on_link_break(2, {});
  ASSERT_EQ(peer_host_.sent_count<net::LsuMsg>(), 2u);
  EXPECT_EQ(*sensed, sensed_copy);
  const auto kept = relay_last();
  const LinkStateProtocol::AdjacencyRow kept_copy = *kept;
  EXPECT_EQ(kept_copy, (LinkStateProtocol::AdjacencyRow{{0, CsiClass::C}}));

  // The next tick senses another class: again a new row.
  peer_host_.clear_link(2);
  peer_host_.set_link(0, CsiClass::D);
  peer_host_.sim().run_until(sim::milliseconds(300));
  ASSERT_EQ(peer_host_.sent_count<net::LsuMsg>(), 3u);
  EXPECT_EQ(peer_.own_row(),
            (LinkStateProtocol::AdjacencyRow{{0, CsiClass::D}}));
  EXPECT_EQ(*kept, kept_copy);
  EXPECT_EQ(&proto_.row(1), kept.get());

  host_.sim().run_until(sim::seconds(5));  // past the SPF hold-down
  expect_oracle_next_hops(proto_, 0, 5);
  EXPECT_FALSE(proto_.next_hop(4).has_value());  // the line is cut at 1-2
}

// Sensing over a real static channel, whose rows are final once sensed and
// served by reference: a quiet network floods nothing, and the next tick
// after a link break still floods the restored row.
TEST(LinkStateStaticChannel, StoredRowsStillFloodARestoredLink) {
  constexpr std::size_t kNodes = 6;
  test::StaticChannel net(kNodes);
  test::ChannelHost host(0, net.channel);
  LinkStateConfig cfg;
  cfg.num_nodes = kNodes;
  LinkStateProtocol proto(host, cfg);
  LinkStateProtocol::Topology topo(kNodes);
  for (net::NodeId a = 0; a < kNodes; ++a) {
    topo[a] = net.channel.links_of(a, sim::Time::zero());
  }
  proto.install_topology(topo);
  const LinkStateProtocol::AdjacencyRow sensed = topo[0];
  ASSERT_EQ(sensed.size(), kNodes - 1);  // the 1 m field is all in range
  const auto draws = net.channel.draws();

  // The first tick falls in [0, period), so ten periods hold ten ticks.
  const auto period = LinkStateProtocol::kSensePeriod;
  proto.start();
  host.sim().run_until(period * 10);
  EXPECT_EQ(host.sent_count<net::LsuMsg>(), 0u);
  EXPECT_EQ(net.channel.draws(), draws);

  proto.on_link_break(3, {});
  ASSERT_EQ(host.sent_count<net::LsuMsg>(), 1u);
  LinkStateProtocol::AdjacencyRow shortened = sensed;
  shortened.erase(shortened.begin() + 2);  // ids 1..5: neighbour 3
  EXPECT_EQ(host.last_sent<net::LsuMsg>()->row(), shortened);
  EXPECT_EQ(proto.own_row(), shortened);

  // The eleventh tick senses the stored row again, which now differs from
  // the view: it floods the restored row, once.
  host.sim().run_until(period * 11);
  ASSERT_EQ(host.sent_count<net::LsuMsg>(), 2u);
  EXPECT_EQ(host.last_sent<net::LsuMsg>()->row(), sensed);
  EXPECT_EQ(proto.own_row(), sensed);
  host.sim().run_until(period * 20);
  EXPECT_EQ(host.sent_count<net::LsuMsg>(), 2u);
  EXPECT_EQ(net.channel.draws(), draws);
}

// In a static channel a node stops sensing once its row matches the view
// and resumes on its own tick grid after a link break or a topology
// install.  A twin host that
// never reports its links final keeps ticking; both must flood the same
// rows at the same instants.
class AlwaysSensingHost : public test::ChannelHost {
 public:
  using ChannelHost::ChannelHost;
  [[nodiscard]] bool links_final() const override { return false; }
};

TEST(LinkStateStaticChannel, StoppedSensingFloodsLikeEndlessTicks) {
  constexpr std::size_t kNodes = 6;
  test::StaticChannel net(kNodes);
  test::StaticChannel twin_net(kNodes);
  test::ChannelHost host(0, net.channel);
  AlwaysSensingHost twin(0, twin_net.channel);
  ASSERT_TRUE(host.links_final());
  LinkStateConfig cfg;
  cfg.num_nodes = kNodes;
  LinkStateProtocol proto(host, cfg);
  LinkStateProtocol twin_proto(twin, cfg);
  LinkStateProtocol::Topology topo(kNodes);
  for (net::NodeId a = 0; a < kNodes; ++a) {
    topo[a] = net.channel.links_of(a, sim::Time::zero());
    ASSERT_EQ(twin_net.channel.links_of(a, sim::Time::zero()), topo[a]);
  }
  proto.install_topology(topo);
  twin_proto.install_topology(topo);
  proto.start();
  twin_proto.start();

  const auto period = LinkStateProtocol::kSensePeriod;
  const auto both_until = [&](sim::Time t) {
    host.sim().run_until(t);
    twin.sim().run_until(t);
  };
  const auto both_break = [&](net::NodeId neighbor) {
    proto.on_link_break(neighbor, {});
    twin_proto.on_link_break(neighbor, {});
  };
  both_until(period * 3);
  EXPECT_EQ(host.sim().pending_events(), 0u);  // the quiet row stopped it
  EXPECT_EQ(twin.sim().pending_events(), 1u);
  both_until(period * 3 + sim::milliseconds(40));
  both_break(3);
  EXPECT_EQ(host.sim().pending_events(), 1u);
  both_until(period * 7 + sim::milliseconds(90));
  both_break(1);
  both_break(2);  // the tick is already armed
  both_until(period * 8 + sim::milliseconds(1));
  both_break(4);
  both_until(period * 20);
  EXPECT_EQ(host.sim().pending_events(), 0u);
  auto stale = topo;  // a view that disagrees with the sensed row
  stale[0].pop_back();
  proto.install_topology(stale);
  twin_proto.install_topology(stale);
  both_until(period * 22);
  EXPECT_EQ(host.sim().pending_events(), 0u);

  ASSERT_EQ(host.sent.size(), twin.sent.size());
  // Four breaks, a restore at each tick that follows one, and a restore
  // after the install.
  EXPECT_GE(host.sent_count<net::LsuMsg>(), 7u);
  for (std::size_t i = 0; i < host.sent.size(); ++i) {
    EXPECT_EQ(host.sent[i].at, twin.sent[i].at) << "LSU " << i;
    EXPECT_EQ(std::get<net::LsuMsg>(host.sent[i].pkt.payload).row(),
              std::get<net::LsuMsg>(twin.sent[i].pkt.payload).row())
        << "LSU " << i;
  }
  EXPECT_EQ(proto.own_row(), topo[0]);
  EXPECT_EQ(net.channel.draws(), twin_net.channel.draws());
}

// ---------------------------------------------------------------------------
// Link-state SPF against the double-heap Dijkstra it replaced
// ---------------------------------------------------------------------------

/// The order in which a terminal is asked for its destinations.  The first
/// query stops SPF at a different depth in each, and a later query for a
/// node left unsettled must complete the same tree.
enum class QueryOrder { kAscending, kFarFirst, kRandom };

/// Every node of the view once, in `order`; far-first puts the farthest
/// reachable node first and the unreachable ones last.
std::vector<net::NodeId> query_order(QueryOrder order,
                                     const std::vector<double>& dist,
                                     sim::RandomStream& rng) {
  std::vector<net::NodeId> ids(dist.size());
  for (net::NodeId v = 0; v < ids.size(); ++v) ids[v] = v;
  if (order == QueryOrder::kFarFirst) {
    std::stable_sort(ids.begin(), ids.end(), [&dist](auto a, auto b) {
      const bool fa = std::isfinite(dist[a]);
      const bool fb = std::isfinite(dist[b]);
      return fa != fb ? fa : dist[a] > dist[b];
    });
  } else if (order == QueryOrder::kRandom) {
    for (std::size_t i = ids.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(ids[i - 1], ids[j]);
    }
  }
  return ids;
}

/// Edges in the view, counting those that name a terminal outside it.
std::uint64_t edge_count(const LinkStateProtocol::Topology& view) {
  std::uint64_t edges = 0;
  for (std::size_t u = 0; u < view.size(); ++u) edges += view[u].size();
  return edges;
}

/// Runs LinkStateProtocol's SPF from every terminal of `view` and counts the
/// first hops that differ from the oracle's (each one is also a failure).
/// Terminal `self` asks for its destinations in QueryOrder(self % 3).  Each
/// terminal must run SPF once, in at most two passes.  Returns the number
/// of first hops compared.
std::size_t expect_oracle_first_hops(const LinkStateProtocol::Topology& view,
                                     std::size_t& differ) {
  std::size_t compared = 0;
  const auto n = static_cast<net::NodeId>(view.size());
  const auto edges = edge_count(view);
  sim::RandomStream rng(n);
  for (net::NodeId self = 0; self < n; ++self) {
    MockHost host(self);
    host.set_links_final(true);  // SPF stops early only on final links
    LinkStateConfig cfg;
    cfg.num_nodes = n;
    LinkStateProtocol proto(host, cfg);
    proto.install_topology(view);
    std::vector<double> dist;
    const auto want = oracle::spf_first_hops(view, self, &dist);
    const auto order = static_cast<QueryOrder>(self % 3);
    for (const auto dst : query_order(order, dist, rng)) {
      const auto got = proto.next_hop(dst).value_or(oracle::kNoNextHop);
      ++compared;
      if (got == want[dst]) continue;
      ++differ;
      ADD_FAILURE() << "self " << self << " dst " << dst << ": " << got
                    << " vs oracle " << want[dst];
    }
    EXPECT_EQ(host.counters["ls.spf_runs"], 1u) << "self " << self;
    EXPECT_LE(host.counters["ls.spf_relaxations"], 2 * edges)
        << "self " << self;
  }
  return compared;
}

/// A random view of `n` terminals: each advertises each other terminal with
/// probability `p`, in a class drawn from `classes`; rows need not agree
/// (views go stale), and a few name a terminal outside the view.
LinkStateProtocol::Topology random_view(sim::RandomStream& rng,
                                        std::size_t n, double p,
                                        std::span<const CsiClass> classes) {
  LinkStateProtocol::Topology view(n);
  for (net::NodeId u = 0; u < n; ++u) {
    auto& row = view[u];
    for (net::NodeId v = 0; v < n + 2; ++v) {
      if (v == u || !rng.chance(v < n ? p : 0.05)) continue;
      const auto k = rng.uniform_int(
          0, static_cast<std::int64_t>(classes.size()) - 1);
      row.emplace_back(v, classes[static_cast<std::size_t>(k)]);
    }
  }
  return view;
}

/// 60 random views of 10-60 terminals over `classes`.
void expect_oracle_on_random_views(std::uint64_t seed,
                                   std::span<const CsiClass> classes,
                                   const char* label) {
  sim::RandomStream rng(seed);
  std::size_t compared = 0;
  std::size_t differ = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(10, 60));
    const double p = rng.uniform(0.05, 0.3);
    compared += expect_oracle_first_hops(random_view(rng, n, p, classes),
                                         differ);
  }
  std::printf("[spf] random %s views: %zu of %zu first hops differ\n", label,
              differ, compared);
  EXPECT_GT(compared, 40000u);
}

TEST(LinkStateSpf, MatchesTheHeapOnExactClasses) {
  // Class A and D cost 1 and 5, exact in double, so every path sum is
  // exact and equal-cost paths tie on (dist, id) alone.
  constexpr std::array<CsiClass, 2> kExact = {CsiClass::A, CsiClass::D};
  expect_oracle_on_random_views(2026, kExact, "class A/D");
}

TEST(LinkStateSpf, MatchesTheHeapOnMixedClasses) {
  // 5/3 + 5/3 + 5/3 is 5.000000000000001 in double: paths of equal thirds
  // differ in their last bit, and that bit must still pick the first hop.
  constexpr std::array<CsiClass, 4> kAll = {CsiClass::A, CsiClass::B,
                                            CsiClass::C, CsiClass::D};
  expect_oracle_on_random_views(2027, kAll, "mixed-class");
}

TEST(LinkStateSpf, MatchesTheHeapOnTheMetroView) {
  // The t = 0 view every terminal of a static metro run starts from (seed 1).
  auto scenario = harness::preset_config("metro");
  scenario.mean_speed_kmh = 0.0;
  const sim::RngManager rng(1);
  mobility::MobilityManager mobility(
      scenario.num_nodes, harness::scenario_mobility_config(scenario), rng);
  channel::ChannelModel channel({}, mobility, rng);
  LinkStateProtocol::Topology view(scenario.num_nodes);
  for (net::NodeId a = 0; a < scenario.num_nodes; ++a) {
    view[a] = channel.links_of(a, sim::Time::zero());
  }
  std::size_t differ = 0;
  const auto compared = expect_oracle_first_hops(view, differ);
  std::printf("[spf] metro t = 0 view: %zu of %zu first hops differ\n",
              differ, compared);
  EXPECT_EQ(compared, scenario.num_nodes * scenario.num_nodes);
}

// On final links (a static channel) a terminal's first query stops SPF
// early.  When its view then changes inside the hold-down, it must go on
// answering from the tree of the view the run started on, and only the next
// run may see the change.  The host reports its links final, as a node on a
// frozen channel does; a moving host runs whole trees.
class LinkStatePartialTreeTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kSelf = 0;
  static constexpr std::size_t kNodes = 40;

  LinkStatePartialTreeTest() : host_(kSelf), proto_(host_, config()) {
    host_.set_links_final(true);
    constexpr std::array<CsiClass, 4> kAll = {CsiClass::A, CsiClass::B,
                                              CsiClass::C, CsiClass::D};
    sim::RandomStream rng(2028);
    view_ = random_view(rng, kNodes, 0.1, kAll);
    proto_.install_topology(view_);
    want_ = oracle::spf_first_hops(view_, kSelf, &dist_);
    for (net::NodeId v = 0; v < kNodes; ++v) {
      if (v == kSelf || !std::isfinite(dist_[v])) continue;
      if (near_ == kSelf || dist_[v] < dist_[near_]) near_ = v;
      if (far_ == kSelf || dist_[v] > dist_[far_]) far_ = v;
    }
  }

  static LinkStateConfig config() {
    LinkStateConfig cfg;
    cfg.num_nodes = kNodes;
    return cfg;
  }

  /// Asks for the near destination (a partial run), lets `change` edit the
  /// view at the same instant, and checks every answer against the oracle:
  /// on the old view inside the hold-down, on `changed` after it.
  template <typename Change>
  void expect_answers_across(const LinkStateProtocol::Topology& changed,
                             Change change) {
    ASSERT_NE(near_, kSelf);
    ASSERT_NE(far_, want_[far_]);  // the far route has a relay
    ASSERT_EQ(proto_.next_hop(near_), want_[near_]);
    ASSERT_LT(host_.counters["ls.spf_relaxations"], edge_count(view_))
        << "the first run must stop early";
    const auto want_after = oracle::spf_first_hops(changed, kSelf);
    ASSERT_NE(want_after[far_], want_[far_]);  // the change moves a route

    change();
    sim::RandomStream rng(1);
    for (const auto dst : query_order(QueryOrder::kFarFirst, dist_, rng)) {
      EXPECT_EQ(proto_.next_hop(dst).value_or(oracle::kNoNextHop),
                want_[dst])
          << "dst " << dst;
    }
    EXPECT_EQ(host_.counters["ls.spf_runs"], 1u);

    host_.sim().run_until(sim::seconds(5));  // past the hold-down
    for (net::NodeId dst = 0; dst < kNodes; ++dst) {
      EXPECT_EQ(proto_.next_hop(dst).value_or(oracle::kNoNextHop),
                want_after[dst])
          << "dst " << dst;
    }
    EXPECT_EQ(host_.counters["ls.spf_runs"], 2u);
  }

  MockHost host_;
  LinkStateProtocol proto_;
  LinkStateProtocol::Topology view_;
  std::vector<net::NodeId> want_;
  std::vector<double> dist_;
  net::NodeId near_ = kSelf;
  net::NodeId far_ = kSelf;
};

TEST_F(LinkStatePartialTreeTest, LsuInsideHoldDownKeepsTheStartedView) {
  // The relay on the far route advertises that it lost every link.
  const net::NodeId relay = want_[far_];
  auto changed = view_;
  changed[relay].clear();
  expect_answers_across(changed, [&] {
    const net::LsuMsg lsu{relay, 1, net::share_row(changed[relay])};
    const auto frame = net::make_control(net::kBroadcastId, lsu);
    proto_.on_control(frame, relay);
    // The view adopts the LSU's own row, and the re-flood carries that row
    // in a frame of the received size.
    EXPECT_EQ(&proto_.row(relay), lsu.links.get());
    ASSERT_EQ(host_.sent_count<net::LsuMsg>(), 1u);
    const net::ControlPacket& relayed = host_.sent.back().pkt;
    EXPECT_EQ(std::get<net::LsuMsg>(relayed.payload).links, lsu.links);
    EXPECT_EQ(relayed.size_bytes, frame.size_bytes);
  });
}

TEST_F(LinkStatePartialTreeTest, LinkBreakInsideHoldDownKeepsTheStartedView) {
  // The link to the far route's first hop breaks.
  const net::NodeId relay = want_[far_];
  auto changed = view_;
  auto& own = changed[kSelf];
  own.erase(std::find_if(own.begin(), own.end(),
                         [relay](const auto& e) { return e.first == relay; }));
  expect_answers_across(changed, [&] { proto_.on_link_break(relay, {}); });
}

TEST_F(LinkStatePartialTreeTest, ReinstallInsideHoldDownKeepsTheStartedView) {
  // A new snapshot without the far route's first hop's links.
  auto changed = view_;
  changed[want_[far_]].clear();
  expect_answers_across(changed, [&] { proto_.install_topology(changed); });
}

// Every terminal a thread simulates runs SPF in the thread's one workspace.
// Terminal 0 stops early and leaves queued entries behind; another terminal
// then runs a whole tree, and 0 completes its own after that: each run must
// start from a cleared workspace.
TEST_F(LinkStatePartialTreeTest, TerminalsShareOneSpfWorkspace) {
  ASSERT_NE(near_, kSelf);
  ASSERT_EQ(proto_.next_hop(near_), want_[near_]);
  ASSERT_LT(host_.counters["ls.spf_relaxations"], edge_count(view_))
      << "the first run must stop early";

  MockHost other_host(far_);  // links not final: one whole tree
  LinkStateProtocol other(other_host, config());
  other.install_topology(view_);
  const auto other_want = oracle::spf_first_hops(view_, far_);
  for (net::NodeId dst = 0; dst < kNodes; ++dst) {
    EXPECT_EQ(other.next_hop(dst).value_or(oracle::kNoNextHop),
              other_want[dst])
        << "terminal " << far_ << " dst " << dst;
  }
  EXPECT_EQ(other_host.counters["ls.spf_runs"], 1u);

  sim::RandomStream rng(1);
  for (const auto dst : query_order(QueryOrder::kFarFirst, dist_, rng)) {
    EXPECT_EQ(proto_.next_hop(dst).value_or(oracle::kNoNextHop), want_[dst])
        << "terminal " << kSelf << " dst " << dst;
  }
  EXPECT_EQ(host_.counters["ls.spf_runs"], 1u);
}

TEST_F(LinkStatePartialTreeTest, MovingHostRunsTheWholeTree) {
  // Links that may change: the near query runs the whole tree, so every
  // later answer comes from that one pass, with no kUnsettled entry left
  // for a second pass to fill in.
  host_.set_links_final(false);
  ASSERT_NE(near_, kSelf);
  ASSERT_EQ(proto_.next_hop(near_), want_[near_]);
  const auto relaxed = host_.counters["ls.spf_relaxations"];
  sim::RandomStream rng(1);
  for (const auto dst : query_order(QueryOrder::kFarFirst, dist_, rng)) {
    EXPECT_EQ(proto_.next_hop(dst).value_or(oracle::kNoNextHop), want_[dst])
        << "dst " << dst;
  }
  EXPECT_EQ(host_.counters["ls.spf_runs"], 1u);
  EXPECT_EQ(host_.counters["ls.spf_relaxations"], relaxed)
      << "a second pass ran: the first left unsettled entries";

  // The same view on final links stops early and needs the second pass.
  MockHost stopping(kSelf);
  stopping.set_links_final(true);
  LinkStateProtocol proto(stopping, config());
  proto.install_topology(view_);
  ASSERT_EQ(proto.next_hop(near_), want_[near_]);
  EXPECT_LT(stopping.counters["ls.spf_relaxations"], relaxed);
  ASSERT_EQ(proto.next_hop(far_), want_[far_]);
  EXPECT_GT(stopping.counters["ls.spf_relaxations"], relaxed);
}

}  // namespace
}  // namespace rica::routing
