// Differential test: the active-reception CommonChannelMac against the
// interval-scan implementation it replaced (tests/mac_scan_oracle.hpp).
//
// Both MACs run the same randomized schedules on identical worlds: 20-60
// nodes in fields where hidden terminals are common, broadcasts and
// unicasts, frames from 9 B to 1500 B, and sends timed to start exactly when
// an earlier one starts or ends.  Receivers re-flood some broadcasts from
// their handlers, so same-instant end-of-tx / attempt orderings arise too.
// Every reception is recorded as (now, receiver, sender, packet) by a
// recording handler, and the logs and MAC counters must match exactly.
//
// Frames stay at or below 1500 B: above 1562 B the oracle's 50 ms prune
// horizon forgets collisions (pinned by ScanOracle.ForgetsLongFrameCollision).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"
#include "mac/common_channel.hpp"
#include "mac_scan_oracle.hpp"
#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica::mac {
namespace {

constexpr std::uint16_t kMaxFrameBytes = 1500;
constexpr std::uint16_t kLsuBaseBytes = 15;  // LSU frame with zero links
constexpr std::uint16_t kLsuLinkBytes = 5;

struct Send {
  sim::Time at;
  net::NodeId from = 0;
  net::NodeId to = net::kBroadcastId;
  std::uint16_t size_bytes = 0;
};

struct Scenario {
  std::uint64_t seed = 0;
  std::size_t nodes = 0;
  mobility::MobilityConfig mobility;
  CommonChannelConfig mac;
  std::vector<Send> sends;
  std::uint64_t forward_pct = 0;  ///< chance a receiver re-floods, percent
  std::size_t forward_budget = 0;
};

std::uint16_t rreq_bytes() {
  return net::make_control(0, net::AodvRreqMsg{}).size_bytes;
}

/// A frame of exactly `size_bytes` (a 9 B beacon, an AODV RREQ, or an LSU
/// row of 15 B + 5 B per link) carrying `id` so every frame is distinct.
net::ControlPacket frame(net::NodeId to, std::uint16_t size_bytes,
                         std::uint32_t id) {
  if (size_bytes == net::wire::kMinControlBytes) {
    return net::make_control(to, net::AbrBeaconMsg{id});
  }
  if (size_bytes == rreq_bytes()) {
    return net::make_control(to, net::AodvRreqMsg{id, id + 1, id, 0});
  }
  net::LsuMsg lsu;
  lsu.origin = id;
  lsu.seq = id;
  channel::LinkRow row((size_bytes - kLsuBaseBytes) / kLsuLinkBytes);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = {static_cast<net::NodeId>(i),
              static_cast<channel::CsiClass>(i % 4)};
  }
  lsu.links = net::share_row(std::move(row));
  return net::make_control(to, std::move(lsu));
}

/// A size `frame` can build exactly: beacon, RREQ, or an LSU row.
std::uint16_t frame_size(sim::RandomStream& rng) {
  const double kind = rng.uniform();
  if (kind < 0.35) return net::wire::kMinControlBytes;
  if (kind < 0.5) return rreq_bytes();
  const auto links = rng.uniform_int(
      0, (kMaxFrameBytes - kLsuBaseBytes) / kLsuLinkBytes);
  return static_cast<std::uint16_t>(kLsuBaseBytes + links * kLsuLinkBytes);
}

sim::Time airtime(const CommonChannelConfig& cfg, std::uint16_t size_bytes) {
  return sim::seconds_f(size_bytes * 8.0 / cfg.rate_bps);
}

Scenario make_scenario(std::uint64_t seed) {
  sim::RandomStream rng(sim::splitmix64(seed));
  Scenario sc;
  sc.seed = seed;
  sc.nodes = static_cast<std::size_t>(rng.uniform_int(20, 60));
  // 500-1000 m sides at a 250 m range: several hops across, so many pairs
  // share a neighbour without hearing each other.
  const double side = rng.uniform(500.0, 1000.0);
  sc.mobility.field = mobility::Field{side, side};
  sc.mobility.max_speed_mps = rng.chance(0.5) ? 0.0 : rng.uniform(5.0, 30.0);
  sc.mobility.pause = sim::milliseconds(200);
  sc.mac.queue_cap = rng.chance(0.3) ? 3 : 500;
  sc.mac.unicast_attempts = rng.chance(0.3) ? 1 : 3;
  if (rng.chance(0.5)) {
    // A fixed backoff on the byte-time grid lands retries exactly on frame
    // ends, ahead of the end-of-tx event: the case where only the
    // receiver's `transmitting` flag says it is deaf.
    sc.mac.backoff_min = airtime(sc.mac, 1) * rng.uniform_int(9, 125);
    sc.mac.backoff_max = sc.mac.backoff_min;
  }
  sc.forward_pct = static_cast<std::uint64_t>(rng.uniform_int(0, 40));
  sc.forward_budget = sc.nodes * 4;

  const auto sends = static_cast<std::size_t>(rng.uniform_int(100, 300));
  const double window_s = rng.uniform(0.5, 2.0);
  for (std::size_t k = 0; k < sends; ++k) {
    Send s;
    s.from = static_cast<net::NodeId>(rng.uniform_int(0, sc.nodes - 1));
    if (rng.chance(0.35)) {
      s.to = static_cast<net::NodeId>(rng.uniform_int(0, sc.nodes - 1));
    }
    s.size_bytes = frame_size(rng);
    const double mode = rng.uniform();
    if (k > 0 && mode < 0.3) {
      // Starts the instant an earlier frame would end.
      const Send& prev = sc.sends[rng.uniform_int(0, k - 1)];
      s.at = prev.at + airtime(sc.mac, prev.size_bytes);
    } else if (k > 0 && mode < 0.5) {
      s.at = sc.sends[rng.uniform_int(0, k - 1)].at;  // same instant
    } else {
      // On the 32 us byte-time grid, so ends line up with starts.
      const auto bytes = rng.uniform_int(0, static_cast<std::int64_t>(
                                                window_s * 250'000.0 / 8.0));
      s.at = airtime(sc.mac, 1) * bytes;
    }
    sc.sends.push_back(s);
  }
  return sc;
}

struct Reception {
  sim::Time now;
  net::NodeId receiver = 0;
  net::NodeId sender = 0;
  net::ControlPacket pkt;

  friend bool operator==(const Reception& a, const Reception& b) {
    return a.now == b.now && a.receiver == b.receiver &&
           a.sender == b.sender && a.pkt.to == b.pkt.to &&
           a.pkt.size_bytes == b.pkt.size_bytes &&
           a.pkt.payload == b.pkt.payload;
  }
};

std::string describe(const Reception& r) {
  std::ostringstream os;
  os << "t=" << r.now.nanos() << "ns rx=" << r.receiver << " from="
     << r.sender << " to=" << r.pkt.to << " bytes=" << r.pkt.size_bytes;
  return os.str();
}

struct Outcome {
  std::vector<Reception> log;
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  double unicast_fail = 0.0;
  double queue_drops = 0.0;
  std::uint64_t stream_hash = 0;
};

/// Runs `sc` on a fresh world under MAC implementation `Mac`.
template <class Mac>
Outcome run(const Scenario& sc) {
  sim::RngManager rng(sc.seed);
  mobility::MobilityManager mobility(sc.nodes, sc.mobility, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mobility, rng);
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  Mac mac(sim, channel, rng, metrics, sc.mac);

  Outcome out;
  std::size_t forwards = 0;
  auto next_id = static_cast<std::uint32_t>(sc.sends.size());
  for (net::NodeId r = 0; r < sc.nodes; ++r) {
    mac.register_node(r, [&, r](const net::ControlPacket& pkt,
                                net::NodeId from) {
      out.log.push_back(Reception{sim.now(), r, from, pkt});
      if (pkt.to != net::kBroadcastId || forwards >= sc.forward_budget) {
        return;
      }
      const std::uint64_t h = sim::splitmix64(
          sc.seed ^ (std::uint64_t{r} << 40) ^ (std::uint64_t{from} << 20) ^
          static_cast<std::uint64_t>(sim.now().nanos()));
      if (h % 100 >= sc.forward_pct) return;
      ++forwards;
      sim::RandomStream size_rng(h);
      mac.send(r, frame(net::kBroadcastId, frame_size(size_rng), next_id++));
    });
  }
  for (std::uint32_t k = 0; k < sc.sends.size(); ++k) {
    const Send& s = sc.sends[k];
    sim.at(s.at,
           [&mac, &s, k] { mac.send(s.from, frame(s.to, s.size_bytes, k)); });
  }
  const sim::Time horizon = sim::seconds(20);
  sim.run_until(horizon);

  const auto summary = metrics.finalize(horizon);
  out.transmissions = summary.control_transmissions;
  out.collisions = summary.control_collisions;
  out.unicast_fail = summary.stat("mac.unicast_fail");
  out.queue_drops = summary.stat("mac.ctrl_queue_drop");
  out.stream_hash = summary.stream_hash;
  return out;
}

/// Receptions at one node whose frame began the instant the previous frame
/// received there ended: the touching boundary the overlap rule must not
/// count as a collision.
std::size_t touching_pairs(const std::vector<Reception>& log,
                           const CommonChannelConfig& cfg) {
  std::size_t touches = 0;
  std::vector<sim::Time> last_end;
  for (const auto& r : log) {
    if (r.receiver >= last_end.size()) last_end.resize(r.receiver + 1);
    if (r.now - airtime(cfg, r.pkt.size_bytes) == last_end[r.receiver]) {
      ++touches;
    }
    last_end[r.receiver] = r.now;
  }
  return touches;
}

TEST(MacDifferential, MatchesIntervalScanOracle) {
  constexpr std::uint64_t kSeeds = 60;
  Outcome total;
  std::size_t touches = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario sc = make_scenario(seed);
    const Outcome got = run<CommonChannelMac>(sc);
    const Outcome want = run<scan_oracle::CommonChannelMac>(sc);

    const std::size_t n = std::min(got.log.size(), want.log.size());
    std::size_t first_diff = 0;
    while (first_diff < n && got.log[first_diff] == want.log[first_diff]) {
      ++first_diff;
    }
    if (first_diff < n) {
      ADD_FAILURE() << "reception " << first_diff << " differs: got "
                    << describe(got.log[first_diff]) << ", oracle "
                    << describe(want.log[first_diff]);
    }
    EXPECT_EQ(got.log.size(), want.log.size());
    EXPECT_EQ(got.transmissions, want.transmissions);
    EXPECT_EQ(got.collisions, want.collisions);
    EXPECT_EQ(got.unicast_fail, want.unicast_fail);
    EXPECT_EQ(got.queue_drops, want.queue_drops);
    EXPECT_EQ(got.stream_hash, want.stream_hash);

    touches += touching_pairs(got.log, sc.mac);
    total.transmissions += got.transmissions;
    total.collisions += got.collisions;
    total.unicast_fail += got.unicast_fail;
    total.queue_drops += got.queue_drops;
  }
  // The schedules must exercise every path the two MACs could disagree on.
  EXPECT_GT(total.collisions, total.transmissions / 10);
  EXPECT_GT(total.unicast_fail, 0.0);
  EXPECT_GT(total.queue_drops, 0.0);
  EXPECT_GT(touches, 0u);
}

/// The one known divergence, and why differential frames stay <= 1500 B: a
/// hidden terminal's beacon hits a 2000 B (64 ms) LSU near its start, and
/// the receiver contends more than 50 ms after the beacon ended.  The
/// oracle's prune drops the beacon's interval and counts the LSU received;
/// the active-reception MAC keeps the collision (mac_test pins that side).
template <class Mac>
bool long_lsu_received_at_middle() {
  // Nodes 0-1-2 of the fixture sit on a line 200 m apart: 0 and 2 are
  // hidden from each other behind 1.
  mobility::MobilityConfig cfg;
  cfg.field = mobility::Field{2000.0, 1000.0};
  cfg = mobility::parse_mobility_spec(
      "trace:file=" RICA_TEST_DATA_DIR "/mac_collision.bonnmotion", cfg);
  sim::RngManager rng(7);
  mobility::MobilityManager mobility(5, cfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mobility, rng);
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  Mac mac(sim, channel, rng, metrics, CommonChannelConfig{});
  bool received = false;
  for (net::NodeId r = 0; r < 5; ++r) {
    mac.register_node(r, [&received, r](const net::ControlPacket& pkt,
                                        net::NodeId from) {
      if (r == 1 && from == 0 && pkt.size_bytes == 2000) received = true;
    });
  }
  const auto send_at = [&](sim::Time t, net::NodeId from, std::uint16_t size) {
    sim.at(t, [&mac, from, size] {
      mac.send(from, frame(net::kBroadcastId, size, from));
    });
  };
  send_at(sim::Time::zero(), 0, 2000);
  send_at(sim::milliseconds(1), 2, net::wire::kMinControlBytes);
  send_at(sim::milliseconds(55), 1, net::wire::kMinControlBytes);
  sim.run_until(sim::seconds(1));
  return received;
}

TEST(ScanOracle, ForgetsLongFrameCollision) {
  EXPECT_TRUE(long_lsu_received_at_middle<scan_oracle::CommonChannelMac>());
  EXPECT_FALSE(long_lsu_received_at_middle<CommonChannelMac>());
}

}  // namespace
}  // namespace rica::mac
