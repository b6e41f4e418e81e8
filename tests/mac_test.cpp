// MAC layer: common-channel CSMA/CA (airtime, broadcast delivery, carrier
// sense, queue bound, unicast retransmission, and the collision model on
// pinned positions: hidden terminals, half duplex, touching frames, deferral)
// and the per-link CDMA data transmitter (rate by class, ACK accounting,
// buffer bound, residency expiry, retry-then-break, and a packet that
// reaches a link before, at or after the end of its ACK wait).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "mac/common_channel.hpp"
#include "mac/link_transmitter.hpp"
#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"

namespace rica::mac {
namespace {

/// A fixed 5-node world: we pin positions by using a tiny field so nodes are
/// co-located (all in range), or a huge field so they are scattered.
struct World {
  explicit World(double field_side, std::size_t n = 5, std::uint64_t seed = 3)
      : rng(seed),
        mobility(n, waypoint(field_side), rng),
        channel(channel::ChannelConfig{}, mobility, rng) {}

  static mobility::MobilityConfig waypoint(double side) {
    mobility::MobilityConfig cfg;
    cfg.field = mobility::Field{side, side};
    cfg.max_speed_mps = 0.0;  // static
    return cfg;
  }

  sim::RngManager rng;
  mobility::MobilityManager mobility;
  channel::ChannelModel channel;
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  LinkTransmitter::DataPool pool;  ///< outlives the tests' transmitters
};

net::ControlPacket broadcast_pkt() {
  return net::make_control(net::kBroadcastId, net::AbrBeaconMsg{0});
}

TEST(CommonChannel, AirtimeMatchesRate) {
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  // 250 bytes at 250 kbps = 8 ms.
  EXPECT_NEAR(mac.airtime(250).seconds(), 0.008, 1e-9);
  EXPECT_NEAR(mac.airtime(25).seconds(), 0.0008, 1e-9);
}

TEST(CommonChannel, BroadcastReachesAllNeighbors) {
  World w(10.0);  // everyone within 250 m
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  int received = 0;
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&received](const net::ControlPacket&, net::NodeId) {
      ++received;
    });
  }
  mac.send(0, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(received, 4);  // everyone but the sender
}

TEST(CommonChannel, UnicastReachesOnlyTarget) {
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  std::vector<int> got(5, 0);
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&got, id](const net::ControlPacket&, net::NodeId) {
      ++got[id];
    });
  }
  mac.send(0, net::make_control(3, net::AbrBeaconMsg{0}));
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(got[3], 1);
  EXPECT_EQ(got[1] + got[2] + got[4], 0);
}

TEST(CommonChannel, OutOfRangeHearsNothing) {
  World w(20000.0);  // scattered over 20 km: nobody in range
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  int received = 0;
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&received](const net::ControlPacket&, net::NodeId) {
      ++received;
    });
  }
  mac.send(0, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(received, 0);
}

TEST(CommonChannel, OverheadCountedPerTransmission) {
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  mac.send(0, broadcast_pkt());
  mac.send(1, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  const auto s = w.metrics.finalize(sim::seconds(1));
  EXPECT_EQ(s.control_transmissions, 2u);
}

TEST(CommonChannel, QueueBoundDropsExcess) {
  World w(10.0);
  CommonChannelConfig cfg;
  cfg.queue_cap = 3;
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, cfg);
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  for (int i = 0; i < 10; ++i) mac.send(0, broadcast_pkt());
  w.sim.run_until(sim::seconds(1));
  EXPECT_GT(w.metrics.registry().read("mac.ctrl_queue_drop"), 0.0);
}

TEST(CommonChannel, CarrierSenseSerializesNeighbors) {
  // Two co-located senders: the second must defer, so both broadcasts are
  // eventually received collision-free by the third node.
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  int received = 0;
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&received, id](const net::ControlPacket&,
                                          net::NodeId) {
      if (id == 2) ++received;
    });
  }
  mac.send(0, broadcast_pkt());
  mac.send(1, broadcast_pkt());
  w.sim.run_until(sim::seconds(1));
  EXPECT_EQ(received, 2);
}

TEST(CommonChannel, UnicastRetransmitsUntilDelivered) {
  // Make every node deaf by keeping the target transmitting?  Simpler:
  // verify a unicast toward an out-of-range target gives up after the
  // configured attempts (counted as unicast_fail).
  World w(20000.0);
  CommonChannelConfig cfg;
  cfg.unicast_attempts = 3;
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, cfg);
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  mac.send(0, net::make_control(1, net::AbrBeaconMsg{0}));
  w.sim.run_until(sim::seconds(1));
  EXPECT_EQ(w.metrics.registry().read("mac.unicast_fail"), 1.0);
  const auto s = w.metrics.finalize(sim::seconds(1));
  EXPECT_EQ(s.control_transmissions, 3u);  // all attempts hit the air
}

// ---------------------------------------------------------------------------
// Collision model, on positions pinned by tests/data/mac_collision.bonnmotion:
// nodes 0-1-2 on a line 200 m apart (0 and 2 hidden from each other), node 3
// alone, node 4 entering node 3's range at t = 0.5 s.
// ---------------------------------------------------------------------------

struct Reception {
  sim::Time at;
  net::NodeId receiver;
  net::NodeId sender;
  std::uint16_t size_bytes;
  friend bool operator==(const Reception&, const Reception&) = default;
};

struct PinnedWorld {
  PinnedWorld()
      : rng(3),
        mobility(5, config(), rng),
        channel(channel::ChannelConfig{}, mobility, rng),
        mac(sim, channel, rng, metrics, {}) {
    for (net::NodeId id = 0; id < 5; ++id) {
      mac.register_node(id, [this, id](const net::ControlPacket& pkt,
                                       net::NodeId from) {
        log.push_back(Reception{sim.now(), id, from, pkt.size_bytes});
      });
    }
  }

  // The handlers capture `this`.
  PinnedWorld(const PinnedWorld&) = delete;
  PinnedWorld& operator=(const PinnedWorld&) = delete;

  static mobility::MobilityConfig config() {
    mobility::MobilityConfig base;
    base.field = mobility::Field{2000.0, 1000.0};
    return mobility::parse_mobility_spec(
        "trace:file=" RICA_TEST_DATA_DIR "/mac_collision.bonnmotion", base);
  }

  void send_at(sim::Time t, net::NodeId from, std::uint16_t size_bytes) {
    sim.at(t, [this, from, size_bytes] {
      mac.send(from, frame(size_bytes));
    });
  }

  /// A broadcast of exactly `size_bytes`: a 9 B ABR beacon, or an LSU row
  /// (15 B + 5 B per link).
  static net::ControlPacket frame(std::uint16_t size_bytes) {
    if (size_bytes == net::wire::kMinControlBytes) return broadcast_pkt();
    net::LsuMsg lsu;
    lsu.links = net::share_row(channel::LinkRow((size_bytes - 15u) / 5u));
    auto pkt = net::make_control(net::kBroadcastId, std::move(lsu));
    EXPECT_EQ(pkt.size_bytes, size_bytes);
    return pkt;
  }

  [[nodiscard]] stats::MetricsSummary summary() const {
    return metrics.finalize(sim::seconds(1));
  }

  sim::RngManager rng;
  mobility::MobilityManager mobility;
  channel::ChannelModel channel;
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  CommonChannelMac mac;
  std::vector<Reception> log;
};

TEST(CommonChannelCollision, HiddenTerminalsLoseBothAtTheMiddle) {
  PinnedWorld w;
  w.send_at(sim::Time::zero(), 0, 1500);
  w.send_at(sim::milliseconds(1), 2, 9);  // node 2 cannot sense node 0
  w.sim.run_until(sim::seconds(1));
  EXPECT_TRUE(w.log.empty());
  const auto s = w.summary();
  EXPECT_EQ(s.control_transmissions, 2u);
  EXPECT_EQ(s.control_collisions, 2u);  // both frames lost at node 1
}

TEST(CommonChannelCollision, TransmittingNodeMissesOverlappingFrame) {
  PinnedWorld w;
  // At 0.48 s node 4 is 250.4 m from node 3, so node 3's 48 ms frame does
  // not reach it and node 4 senses an idle channel at 0.51 s (249.8 m).
  w.send_at(sim::milliseconds(480), 3, 1500);
  w.send_at(sim::milliseconds(510), 4, 9);
  // Once node 3 is silent again it hears node 4 fine.
  w.send_at(sim::milliseconds(600), 4, 9);
  w.sim.run_until(sim::seconds(1));
  const sim::Time beacon = w.mac.airtime(9);
  EXPECT_EQ(w.log, (std::vector<Reception>{
                       {sim::milliseconds(600) + beacon, 3, 4, 9}}));
  const auto s = w.summary();
  EXPECT_EQ(s.control_transmissions, 3u);
  EXPECT_EQ(s.control_collisions, 1u);
}

TEST(CommonChannelCollision, BackToBackFramesAreBothReceived) {
  PinnedWorld w;
  const sim::Time first_end = w.mac.airtime(1500);
  w.send_at(sim::Time::zero(), 0, 1500);
  w.send_at(first_end, 2, 9);  // starts exactly as node 0's frame ends
  w.sim.run_until(sim::seconds(1));
  EXPECT_EQ(w.log, (std::vector<Reception>{
                       {first_end, 1, 0, 1500},
                       {first_end + w.mac.airtime(9), 1, 2, 9}}));
  EXPECT_EQ(w.summary().control_collisions, 0u);
}

TEST(CommonChannelCollision, CarrierSenseDefersUntilFrameEnds) {
  PinnedWorld w;
  const sim::Time first_end = w.mac.airtime(1500);
  w.send_at(sim::Time::zero(), 0, 1500);
  w.send_at(sim::milliseconds(1), 1, 9);  // node 1 hears node 0: defers
  w.sim.run_until(sim::seconds(1));
  ASSERT_EQ(w.log.size(), 3u);
  EXPECT_EQ(w.log[0], (Reception{first_end, 1, 0, 1500}));
  // Node 1 sends on its first backoff expiry after node 0's frame ends,
  // and both its neighbours receive it.
  const sim::Time earliest = first_end + w.mac.airtime(9);
  const sim::Time end = w.log[1].at;
  EXPECT_GE(end, earliest);
  EXPECT_LT(end, earliest + w.mac.config().backoff_max);
  EXPECT_EQ(w.log[1], (Reception{end, 0, 1, 9}));
  EXPECT_EQ(w.log[2], (Reception{end, 2, 1, 9}));
  EXPECT_EQ(w.summary().control_collisions, 0u);
}

TEST(CommonChannelCollision, LongFrameHitNearItsStartIsLost) {
  // A 2000 B LSU has 64 ms of airtime.  The beacon that hits it ends at
  // 1.288 ms; node 1 then contends for its own frame from 55 ms on.  A
  // collision holds for the frame's whole airtime, however long after the
  // hit the receiver contends.
  PinnedWorld w;
  const sim::Time lsu_end = w.mac.airtime(2000);
  w.send_at(sim::Time::zero(), 0, 2000);
  w.send_at(sim::milliseconds(1), 2, 9);
  w.send_at(sim::milliseconds(55), 1, 9);
  w.sim.run_until(sim::seconds(1));
  ASSERT_EQ(w.log.size(), 2u);  // only node 1's own beacon gets through
  EXPECT_EQ(w.log[0].sender, 1u);
  EXPECT_EQ(w.log[1].sender, 1u);
  EXPECT_GE(w.log[0].at, lsu_end);
  const auto s = w.summary();
  EXPECT_EQ(s.control_transmissions, 3u);
  EXPECT_EQ(s.control_collisions, 2u);
}

// ---------------------------------------------------------------------------
// LinkTransmitter
// ---------------------------------------------------------------------------

struct LinkWorld : World {
  LinkWorld() : World(10.0) {}  // co-located, static, class is whatever the
                                // frozen draw gives (always in range)
};

net::DataPacket data_pkt(std::uint32_t seq = 0) {
  net::DataPacket p;
  p.src = 0;
  p.dst = 4;
  p.seq = seq;
  p.size_bytes = 512;
  return p;
}

TEST(LinkTransmitter, DeliversWithClassRateAndAck) {
  LinkWorld w;
  LinkConfig cfg;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, cfg);
  std::vector<net::DataPacket> delivered;
  tx.set_deliver([&delivered](net::DataPacket p, net::NodeId to) {
    EXPECT_EQ(to, 1u);
    delivered.push_back(std::move(p));
  });
  tx.enqueue(data_pkt(), 1);
  w.sim.run_until(sim::seconds(2));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].hops, 1);
  // tput_sum records the class throughput the hop used.
  const auto cls = w.channel.csi(0, 1, w.sim.now());
  ASSERT_TRUE(cls.has_value());
  EXPECT_DOUBLE_EQ(delivered[0].tput_sum_bps, channel::throughput_bps(*cls));
  const auto s = w.metrics.finalize(sim::seconds(1));
  EXPECT_GT(s.overhead_kbps, 0.0);  // the data ACK was charged
}

TEST(LinkTransmitter, ServesFifo) {
  LinkWorld w;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, {});
  std::vector<std::uint32_t> order;
  tx.set_deliver([&order](net::DataPacket p, net::NodeId) {
    order.push_back(p.seq);
  });
  for (std::uint32_t i = 0; i < 5; ++i) tx.enqueue(data_pkt(i), 1);
  w.sim.run_until(sim::seconds(5));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(LinkTransmitter, BufferCapDropsOverflow) {
  LinkWorld w;
  LinkConfig cfg;
  cfg.buffer_cap = 10;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, cfg);
  int drops = 0;
  tx.set_on_drop([&drops](const net::DataPacket&, stats::DropReason r) {
    EXPECT_EQ(r, stats::DropReason::kBufferOverflow);
    ++drops;
  });
  for (std::uint32_t i = 0; i < 15; ++i) tx.enqueue(data_pkt(i), 1);
  EXPECT_EQ(drops, 5);
  EXPECT_EQ(tx.queue_length(1), 10u);
}

TEST(LinkTransmitter, HopCapDropsLoopers) {
  LinkWorld w;
  LinkConfig cfg;
  cfg.hop_cap = 4;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, cfg);
  int drops = 0;
  tx.set_on_drop([&drops](const net::DataPacket&, stats::DropReason r) {
    EXPECT_EQ(r, stats::DropReason::kLoopCap);
    ++drops;
  });
  auto p = data_pkt();
  p.hops = 4;
  tx.enqueue(std::move(p), 1);
  EXPECT_EQ(drops, 1);
}

TEST(LinkTransmitter, ResidencyBoundExpiresStalePackets) {
  // A 512 B packet on a class-D link takes ~82 ms; queue 10 packets and a
  // stale one: with a 100 ms residency bound, most of the queue expires.
  LinkWorld w;
  LinkConfig cfg;
  cfg.buffer_residency = sim::milliseconds(100);
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, cfg);
  int expired = 0;
  int delivered = 0;
  tx.set_on_drop([&expired](const net::DataPacket&, stats::DropReason r) {
    if (r == stats::DropReason::kExpired) ++expired;
  });
  tx.set_deliver([&delivered](net::DataPacket, net::NodeId) { ++delivered; });
  for (std::uint32_t i = 0; i < 10; ++i) tx.enqueue(data_pkt(i), 1);
  w.sim.run_until(sim::seconds(5));
  EXPECT_GT(expired, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(expired + delivered, 10);
}

TEST(LinkTransmitter, OutOfRangeRetriesThenBreaks) {
  World w(20000.0);  // target unreachable
  LinkConfig cfg;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, cfg);
  bool broke = false;
  std::vector<net::DataPacket> stranded;
  tx.set_on_break([&](net::NodeId neighbor, std::vector<net::DataPacket> s) {
    EXPECT_EQ(neighbor, 1u);
    broke = true;
    stranded = std::move(s);
  });
  tx.enqueue(data_pkt(0), 1);
  tx.enqueue(data_pkt(1), 1);
  w.sim.run_until(sim::seconds(2));
  EXPECT_TRUE(broke);
  EXPECT_EQ(stranded.size(), 2u);
}

TEST(LinkTransmitter, BufferedCountsAllQueues) {
  LinkWorld w;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, {});
  tx.enqueue(data_pkt(0), 1);
  tx.enqueue(data_pkt(1), 1);
  tx.enqueue(data_pkt(2), 2);
  EXPECT_EQ(tx.buffered(), 3u);
}

// ---------------------------------------------------------------------------
// LinkTransmitter: arrivals around the end of an ACK wait.  With nothing
// queued, a link only reserves its ACK end (DESIGN.md §16); these cases pin
// that a packet arriving before or at that end still waits for the ACK.
// ---------------------------------------------------------------------------

/// Transmissions started so far (each records one airtime sample).
std::uint64_t tx_starts(World& w) {
  return w.metrics.registry().histogram("airtime_ns").count();
}

/// Data and ACK airtime of a data_pkt() hop between a and b.
struct HopTimes {
  sim::Time data;
  sim::Time ack;
};
HopTimes hop_times(World& w, net::NodeId a, net::NodeId b) {
  const auto cls = w.channel.csi(a, b, w.sim.now());
  EXPECT_TRUE(cls.has_value());
  const double rate = channel::throughput_bps(cls.value_or(channel::CsiClass::D));
  const double frame_bits = (net::wire::kDataHeaderBytes + 512) * 8.0;
  return {sim::seconds_f(frame_bits / rate),
          sim::seconds_f(10 * 8.0 / rate)};  // the paper's 10-byte ACK
}

TEST(LinkTransmitter, ArrivalAtTheAckEndIsServedAfterTheAck) {
  // Chain a -> b -> c of equal-class links, two packets queued at a.  The
  // first reaches c at 2D and b's link reserves its ACK end 2D + A.  The
  // second leaves a after a's ACK and reaches b at D + A + D: exactly that
  // ACK end.  Its arrival event holds the earlier seq, so it must not start
  // the packet; the ACK event after it does, at the same instant.
  LinkWorld w;
  net::NodeId a = 0, b = 0, c = 0;
  bool found = false;
  for (net::NodeId i = 0; i < 5 && !found; ++i) {
    for (net::NodeId j = 0; j < 5 && !found; ++j) {
      for (net::NodeId k = 0; k < 5 && !found; ++k) {
        if (i == j || j == k || i == k) continue;
        found = w.channel.csi(i, j, w.sim.now()) ==
                w.channel.csi(j, k, w.sim.now());
        if (found) std::tie(a, b, c) = std::tie(i, j, k);
      }
    }
  }
  ASSERT_TRUE(found);
  const HopTimes t = hop_times(w, a, b);
  LinkTransmitter up(a, w.sim, w.channel, w.metrics, w.pool, {});
  LinkTransmitter mid(b, w.sim, w.channel, w.metrics, w.pool, {});
  std::vector<sim::Time> at_b, at_c;
  std::vector<bool> started_on_arrival;
  up.set_deliver([&](net::DataPacket p, net::NodeId) {
    at_b.push_back(w.sim.now());
    const auto before = tx_starts(w);
    mid.enqueue(std::move(p), c);
    started_on_arrival.push_back(tx_starts(w) != before);
  });
  mid.set_deliver([&](net::DataPacket, net::NodeId) {
    at_c.push_back(w.sim.now());
  });
  up.enqueue(data_pkt(0), b);
  up.enqueue(data_pkt(1), b);
  w.sim.run_until(sim::seconds(1));
  ASSERT_EQ(at_b.size(), 2u);
  ASSERT_EQ(at_c.size(), 2u);
  EXPECT_EQ(at_b[0], t.data);
  EXPECT_EQ(at_c[0], t.data + t.data);
  EXPECT_EQ(at_b[1], at_c[0] + t.ack);  // the tie
  EXPECT_EQ(started_on_arrival, (std::vector<bool>{true, false}));
  EXPECT_EQ(at_c[1], at_b[1] + t.data);  // started at its arrival instant
}

/// One link 0 -> 1 that delivers packet 0, then takes packet 1 from
/// `enqueue_second`; returns the two delivery times and whether packet 1
/// started inside its own enqueue call.
struct SecondPacket {
  std::vector<sim::Time> delivered;
  bool started_on_arrival = false;
};
template <typename Schedule>
SecondPacket serve_second_packet(Schedule&& enqueue_second) {
  LinkWorld w;
  const HopTimes t = hop_times(w, 0, 1);
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, w.pool, {});
  SecondPacket out;
  tx.set_deliver([&](net::DataPacket, net::NodeId) {
    out.delivered.push_back(w.sim.now());
  });
  const auto enqueue = [&] {
    const auto before = tx_starts(w);
    tx.enqueue(data_pkt(1), 1);
    out.started_on_arrival = tx_starts(w) != before;
  };
  tx.enqueue(data_pkt(0), 1);
  enqueue_second(w, t, enqueue);
  w.sim.run_until(sim::seconds(1));
  return out;
}

TEST(LinkTransmitter, ArrivalInsideTheAckWaitStartsAtItsEnd) {
  sim::Time ack_end;
  const auto got = serve_second_packet([&](World& w, HopTimes t, auto& enq) {
    ack_end = t.data + t.ack;
    w.sim.run_until(t.data + sim::nanoseconds(t.ack.nanos() / 2));
    enq();
  });
  ASSERT_EQ(got.delivered.size(), 2u);
  EXPECT_FALSE(got.started_on_arrival);
  EXPECT_EQ(got.delivered[1], ack_end + got.delivered[0]);
}

TEST(LinkTransmitter, ArrivalAfterTheAckWaitStartsAtOnce) {
  sim::Time arrival;
  const auto got = serve_second_packet([&](World& w, HopTimes t, auto& enq) {
    arrival = t.data + t.ack + sim::nanoseconds(1);
    w.sim.run_until(arrival);
    enq();
  });
  ASSERT_EQ(got.delivered.size(), 2u);
  EXPECT_TRUE(got.started_on_arrival);
  EXPECT_EQ(got.delivered[1], arrival + got.delivered[0]);
}

TEST(LinkTransmitter, ArrivalAtTheAckEndAfterItsSeqStartsAtOnce) {
  // The arrival is scheduled inside the ACK wait, so its seq follows the
  // reserved one: at the shared instant the ACK has already ended.
  sim::Time ack_end;
  const auto got = serve_second_packet([&](World& w, HopTimes t, auto& enq) {
    ack_end = t.data + t.ack;
    w.sim.at(t.data + sim::nanoseconds(t.ack.nanos() / 2), [&w, ack_end, &enq] { w.sim.at(ack_end, enq); });
  });
  ASSERT_EQ(got.delivered.size(), 2u);
  EXPECT_TRUE(got.started_on_arrival);
  EXPECT_EQ(got.delivered[1], ack_end + got.delivered[0]);
}

}  // namespace
}  // namespace rica::mac
