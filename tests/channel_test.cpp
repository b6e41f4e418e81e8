// Channel model: CSI class mapping, path-loss monotonicity, shadowing
// statistics, temporal correlation, symmetry, and the frozen-when-static
// property the link-state results depend on (a static network's cached
// samples against a fresh full evaluation); plus the counter-based normal
// source the pair processes draw from (moments, KS) and the AR(1) law of
// the pair processes at a fixed relative speed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"
#include "channel/csi.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/random.hpp"

namespace rica::channel {
namespace {

TEST(Csi, ThroughputMatchesPaper) {
  EXPECT_DOUBLE_EQ(throughput_bps(CsiClass::A), 250'000.0);
  EXPECT_DOUBLE_EQ(throughput_bps(CsiClass::B), 150'000.0);
  EXPECT_DOUBLE_EQ(throughput_bps(CsiClass::C), 75'000.0);
  EXPECT_DOUBLE_EQ(throughput_bps(CsiClass::D), 50'000.0);
}

TEST(Csi, HopDistanceMatchesPaper) {
  // Paper §II-A: 1, 1.67, 3.33, 5 hops (delay ratios vs class A).
  EXPECT_DOUBLE_EQ(csi_hop_distance(CsiClass::A), 1.0);
  EXPECT_NEAR(csi_hop_distance(CsiClass::B), 1.67, 0.01);
  EXPECT_NEAR(csi_hop_distance(CsiClass::C), 3.33, 0.01);
  EXPECT_DOUBLE_EQ(csi_hop_distance(CsiClass::D), 5.0);
}

TEST(Csi, HopDistanceMonotoneInClass) {
  EXPECT_LT(csi_hop_distance(CsiClass::A), csi_hop_distance(CsiClass::B));
  EXPECT_LT(csi_hop_distance(CsiClass::B), csi_hop_distance(CsiClass::C));
  EXPECT_LT(csi_hop_distance(CsiClass::C), csi_hop_distance(CsiClass::D));
}

TEST(Csi, Names) {
  EXPECT_EQ(to_string(CsiClass::A), "A");
  EXPECT_EQ(to_string(CsiClass::D), "D");
}

/// A fixture with a static two-node layout a configurable distance apart.
class ChannelFixture : public ::testing::Test {
 protected:
  // Nodes do not move (max speed 0); positions are whatever the waypoint
  // draw gives, so distances vary per seed — tests that need controlled
  // distance use many seeds and bin by observed distance.
  static constexpr std::size_t kNodes = 30;

  ChannelFixture()
      : rng_(17),
        mobility_(kNodes, waypoint_config(), rng_),
        channel_(ChannelConfig{}, mobility_, rng_) {}

  static mobility::MobilityConfig waypoint_config() {
    mobility::MobilityConfig cfg;
    cfg.field = mobility::Field{1000.0, 1000.0};
    cfg.max_speed_mps = 0.0;
    return cfg;
  }

  sim::RngManager rng_;
  mobility::MobilityManager mobility_;
  ChannelModel channel_;
};

TEST_F(ChannelFixture, OutOfRangeReturnsNullopt) {
  bool saw_out_of_range = false;
  for (std::uint32_t a = 0; a < kNodes && !saw_out_of_range; ++a) {
    for (std::uint32_t b = a + 1; b < kNodes; ++b) {
      if (mobility_.node_distance(a, b, sim::Time::zero()) > 250.0) {
        EXPECT_FALSE(channel_.sample(a, b, sim::Time::zero()).has_value());
        saw_out_of_range = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_out_of_range) << "layout had no far pair; adjust seed";
}

TEST_F(ChannelFixture, InRangeAlwaysYieldsAClass) {
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = a + 1; b < kNodes; ++b) {
      if (mobility_.node_distance(a, b, sim::Time::zero()) <= 250.0) {
        const auto s = channel_.sample(a, b, sim::Time::zero());
        ASSERT_TRUE(s.has_value());
      }
    }
  }
}

TEST_F(ChannelFixture, SelfChannelIsInvalid) {
  EXPECT_FALSE(channel_.sample(3, 3, sim::Time::zero()).has_value());
  EXPECT_FALSE(channel_.in_range(3, 3, sim::Time::zero()));
}

TEST_F(ChannelFixture, SymmetricSample) {
  for (std::uint32_t b = 1; b < kNodes; ++b) {
    const auto ab = channel_.sample(0, b, sim::seconds(1));
    const auto ba = channel_.sample(b, 0, sim::seconds(1));
    ASSERT_EQ(ab.has_value(), ba.has_value());
    if (ab) {
      EXPECT_DOUBLE_EQ(ab->snr_db, ba->snr_db);
      EXPECT_EQ(ab->csi, ba->csi);
    }
  }
}

TEST_F(ChannelFixture, FrozenWhenStatic) {
  // With zero mobility the channel must not change over time: this is the
  // property that lets the link-state baseline excel at zero speed.
  for (std::uint32_t b = 1; b < 10; ++b) {
    const auto s1 = channel_.sample(0, b, sim::seconds(1));
    const auto s2 = channel_.sample(0, b, sim::seconds(100));
    ASSERT_EQ(s1.has_value(), s2.has_value());
    if (s1) {
      EXPECT_DOUBLE_EQ(s1->snr_db, s2->snr_db);
    }
  }
}

TEST_F(ChannelFixture, NeighborsMatchRangePredicate) {
  const auto neigh = channel_.neighbors_of(0, sim::Time::zero());
  for (std::uint32_t b = 1; b < kNodes; ++b) {
    const bool in = channel_.in_range(0, b, sim::Time::zero());
    const bool listed =
        std::find(neigh.begin(), neigh.end(), b) != neigh.end();
    EXPECT_EQ(in, listed);
  }
}

TEST(ChannelStatistics, CloserPairsGetBetterClasses) {
  // Average the quantized class (A=0..D=3) over many seeds at two controlled
  // distances by pinning nodes via a tiny field trick: use a degenerate
  // 1x1 field so all nodes sit essentially at one point, then a large field
  // for far pairs.  Instead, directly verify the mean-SNR path-loss model by
  // sampling many independent pairs and regressing class on distance.
  sim::RngManager rng(23);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1000.0, 1000.0};
  wp.max_speed_mps = 0.0;
  mobility::MobilityManager mobility(200, wp, rng);
  ChannelModel channel(ChannelConfig{}, mobility, rng);

  double near_sum = 0;
  int near_n = 0;
  double far_sum = 0;
  int far_n = 0;
  for (std::uint32_t a = 0; a < 200; ++a) {
    for (std::uint32_t b = a + 1; b < 200; ++b) {
      const double d = mobility.node_distance(a, b, sim::Time::zero());
      if (d > 250.0) continue;
      const auto s = channel.sample(a, b, sim::Time::zero());
      ASSERT_TRUE(s.has_value());
      const double cls = static_cast<double>(s->csi);
      if (d < 100.0) {
        near_sum += cls;
        ++near_n;
      } else if (d > 200.0) {
        far_sum += cls;
        ++far_n;
      }
    }
  }
  ASSERT_GT(near_n, 20);
  ASSERT_GT(far_n, 20);
  EXPECT_LT(near_sum / near_n, far_sum / far_n);
}

TEST(ChannelStatistics, AllFourClassesOccurInRange) {
  sim::RngManager rng(29);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1000.0, 1000.0};
  wp.max_speed_mps = 0.0;
  mobility::MobilityManager mobility(200, wp, rng);
  ChannelModel channel(ChannelConfig{}, mobility, rng);

  std::array<int, 4> histogram{};
  for (std::uint32_t a = 0; a < 200; ++a) {
    for (std::uint32_t b = a + 1; b < 200; ++b) {
      const auto s = channel.sample(a, b, sim::Time::zero());
      if (s) ++histogram[static_cast<std::size_t>(s->csi)];
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(histogram[i], 0) << "class " << i << " never appeared";
  }
}

TEST(ChannelDynamics, MovingPairDecorrelates) {
  sim::RngManager rng(31);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{300.0, 300.0};  // small field: stay in range
  wp.max_speed_mps = 10.0;
  wp.pause = sim::Time::zero();
  mobility::MobilityManager mobility(2, wp, rng);
  ChannelModel channel(ChannelConfig{}, mobility, rng);

  // Sample SNR deviations over time; with motion they must change.
  int distinct = 0;
  std::optional<double> prev;
  for (int t = 0; t < 60; ++t) {
    const auto s = channel.sample(0, 1, sim::seconds(t));
    if (!s) continue;
    if (prev && std::abs(*prev - s->snr_db) > 1e-9) ++distinct;
    prev = s->snr_db;
  }
  EXPECT_GT(distinct, 5);
  // A moving pair is never served from the static-network cache: it steps.
  EXPECT_EQ(channel.live_pairs(), 1u);
  EXPECT_GT(channel.draws(), 5u);
}

TEST(ChannelDynamics, ShortGapSamplesAreCorrelated) {
  // Consecutive samples 1 ms apart must be nearly identical (AR(1) with a
  // tiny step), while samples 10 s apart at 10 m/s should differ visibly.
  sim::RngManager rng(37);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{200.0, 200.0};
  wp.max_speed_mps = 10.0;
  wp.pause = sim::Time::zero();
  mobility::MobilityManager mobility(2, wp, rng);
  ChannelModel channel(ChannelConfig{}, mobility, rng);

  const auto s0 = channel.sample(0, 1, sim::milliseconds(1000));
  const auto s1 = channel.sample(0, 1, sim::milliseconds(1001));
  ASSERT_TRUE(s0 && s1);
  EXPECT_LT(std::abs(s0->snr_db - s1->snr_db), 1.5);
}

TEST(ChannelConfigTest, QuantizerThresholds) {
  // White-box: feed SNRs around the thresholds through a 2-node setup by
  // tweaking config so the mean SNR is pinned and disturbances are zero.
  sim::RngManager rng(41);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1.0, 1.0};  // both nodes at ~the same point
  wp.max_speed_mps = 0.0;
  mobility::MobilityManager mobility(2, wp, rng);

  ChannelConfig cfg;
  cfg.shadow_sigma_db = 0.0;
  cfg.fading_sigma_db = 0.0;
  cfg.snr0_db = 18.0;  // at d<=1 m the mean SNR equals snr0 exactly
  ChannelModel ch_a(cfg, mobility, rng);
  EXPECT_EQ(ch_a.sample(0, 1, sim::Time::zero())->csi, CsiClass::A);

  cfg.snr0_db = 17.9;
  ChannelModel ch_b(cfg, mobility, rng);
  EXPECT_EQ(ch_b.sample(0, 1, sim::Time::zero())->csi, CsiClass::B);

  cfg.snr0_db = 11.9;
  ChannelModel ch_c(cfg, mobility, rng);
  EXPECT_EQ(ch_c.sample(0, 1, sim::Time::zero())->csi, CsiClass::C);

  cfg.snr0_db = 5.9;
  ChannelModel ch_d(cfg, mobility, rng);
  EXPECT_EQ(ch_d.sample(0, 1, sim::Time::zero())->csi, CsiClass::D);
}

// ---------------------------------------------------------------------------
// Counter-based pair streams
// ---------------------------------------------------------------------------

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Kolmogorov-Smirnov distance between `xs` and the standard normal.
double ks_distance(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = phi(xs[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - f,
                  f - static_cast<double>(i) / n});
  }
  return d;
}

TEST(NormalPair, MomentsAndKsMatchTheStandardNormal) {
  constexpr std::size_t kN = 20000;
  auto rng = sim::RngManager(5).stream("channel", 3, 9);
  std::vector<double> first;
  std::vector<double> second;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto [z0, z1] = rng.normal_pair();
    first.push_back(z0);
    second.push_back(z1);
  }
  const double n = static_cast<double>(kN);
  for (const auto* zs : {&first, &second}) {
    double m1 = 0, m2 = 0, m3 = 0, m4 = 0;
    for (const double z : *zs) {
      m1 += z / n;
      m2 += z * z / n;
      m3 += z * z * z / n;
      m4 += z * z * z * z / n;
    }
    // Four standard errors of each sample moment of N(0, 1).
    EXPECT_NEAR(m1, 0.0, 4.0 * std::sqrt(1.0 / n));
    EXPECT_NEAR(m2, 1.0, 4.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(m3, 0.0, 4.0 * std::sqrt(15.0 / n));
    EXPECT_NEAR(m4, 3.0, 4.0 * std::sqrt(96.0 / n));
    // KS critical value at alpha = 0.01.
    EXPECT_LT(ks_distance(*zs), 1.63 / std::sqrt(n));
  }
  // The two normals of one draw, and consecutive draws, are uncorrelated.
  double cross = 0;
  double lag = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    cross += first[i] * second[i] / n;
    if (i > 0) lag += first[i] * first[i - 1] / n;
  }
  EXPECT_NEAR(cross, 0.0, 4.0 / std::sqrt(n));
  EXPECT_NEAR(lag, 0.0, 4.0 / std::sqrt(n));
}

TEST(NormalPair, IsAPureFunctionOfKeyAndIndex) {
  // Pair n of stream `key`.
  const auto pair_at = [](std::uint64_t key, int n) {
    sim::RandomStream rng(key);
    for (int i = 0; i < n; ++i) (void)rng.normal_pair();
    return rng.normal_pair();
  };
  EXPECT_EQ(pair_at(11, 4), pair_at(11, 4));
  EXPECT_NE(pair_at(11, 4), pair_at(11, 5));
  EXPECT_NE(pair_at(11, 4), pair_at(12, 4));
  // The counter stream is SplitMix64's own sequence.
  std::uint64_t state = 99;
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sim::splitmix64_at(99, i), sim::splitmix64(state));
    state += sim::kSplitMixGamma;
  }
}

TEST_F(ChannelFixture, BothOrdersReadOneProcess) {
  // Mobility is queried forward in time only.
  for (std::uint32_t b = 1; b < kNodes; ++b) {
    const auto t = sim::seconds(2 * b);
    if (!channel_.in_range(0, b, t)) continue;
    const auto ab = channel_.sample(0, b, t);
    const auto pairs = channel_.live_pairs();
    const auto ba = channel_.sample(b, 0, t + sim::seconds(1));
    ASSERT_TRUE(ab && ba);
    EXPECT_EQ(channel_.live_pairs(), pairs);
    EXPECT_EQ(ab->snr_db, ba->snr_db);
  }
  EXPECT_GT(channel_.live_pairs(), 0u);
  EXPECT_EQ(channel_.draws(), channel_.live_pairs());
}

TEST_F(ChannelFixture, StaticPairNeverDrawsAfterItsFirstDraw) {
  std::uint32_t b = 1;
  while (!channel_.in_range(0, b, sim::Time::zero())) ++b;
  const auto first = channel_.sample(0, b, sim::Time::zero());
  ASSERT_TRUE(first);
  EXPECT_EQ(channel_.draws(), 1u);
  for (int t = 1; t <= 100; ++t) {
    const auto s = channel_.sample(b, 0, sim::milliseconds(t * 250));
    ASSERT_TRUE(s);
    EXPECT_EQ(s->snr_db, first->snr_db);
  }
  EXPECT_EQ(channel_.draws(), 1u);
}

TEST_F(ChannelFixture, CachedStaticSamplesMatchAFreshFullEvaluation) {
  // Oracle: a fresh same-seed model's first sample of a pair at t takes the
  // full path (positions, speeds, first draw, path loss).
  const std::array<sim::Time, 3> times = {sim::Time::zero(), sim::seconds(1),
                                          sim::seconds(60)};
  std::size_t in_range = 0;
  for (const auto t : times) {
    const sim::RngManager rng(17);
    mobility::MobilityManager mobility(kNodes, waypoint_config(), rng);
    ChannelModel fresh(ChannelConfig{}, mobility, rng);
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = 0; b < kNodes; ++b) {
        const auto cached = channel_.sample(a, b, t);
        const auto full = fresh.sample(a, b, t);
        ASSERT_EQ(cached.has_value(), full.has_value());
        if (!cached) continue;
        ++in_range;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->snr_db),
                  std::bit_cast<std::uint64_t>(full->snr_db));
        EXPECT_EQ(cached->csi, full->csi);
      }
    }
    EXPECT_EQ(fresh.draws(), fresh.live_pairs());
  }
  EXPECT_GT(in_range, 0u);
  EXPECT_EQ(channel_.draws(), channel_.live_pairs());
}

/// The sensing loop `links_of` replaced, kept as its oracle: the neighbour
/// list, then one `csi` per neighbour, sorted.
LinkRow neighbors_then_csi(ChannelModel& channel, std::uint32_t node,
                           sim::Time t) {
  LinkRow row;
  for (const auto other : channel.neighbors_of(node, t)) {
    if (const auto cls = channel.csi(node, other, t)) {
      row.emplace_back(other, *cls);
    }
  }
  std::sort(row.begin(), row.end());
  return row;
}

/// `links_of` on a moving network against the oracle on a second same-seed
/// model queried at the same times.
TEST(LinksOfMobile, MatchesNeighborsThenCsi) {
  constexpr std::size_t kNodes = 40;
  const ChannelConfig cfg;
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{800.0, 800.0};
  wp.max_speed_mps = 20.0;
  wp.pause = sim::seconds(1);
  const sim::RngManager rng(23);
  mobility::MobilityManager fast_mobility(kNodes, wp, rng);
  mobility::MobilityManager oracle_mobility(kNodes, wp, rng);
  ChannelModel fast(cfg, fast_mobility, rng);
  ChannelModel oracle(cfg, oracle_mobility, rng);
  std::size_t links = 0;
  // 150 ms sense ticks plus an offset, so most queries fall mid-epoch.
  for (int tick = 0; tick < 100; ++tick) {
    const auto t = sim::milliseconds(tick * 150 + 7);
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      const auto expected = neighbors_then_csi(oracle, node, t);
      ASSERT_EQ(fast.links_of(node, t), expected)
          << "node " << node << " at " << t.seconds() << " s";
      links += expected.size();
    }
  }
  EXPECT_GT(links, 0u);
  EXPECT_EQ(fast.live_pairs(), oracle.live_pairs());
  EXPECT_EQ(fast.draws(), oracle.draws());
  EXPECT_GT(fast.draws(), fast.live_pairs());  // moving pairs kept stepping
}

// `links_of` senses a row in one pass: the node's position and speed once,
// and no freshness check or prefilter for the neighbours the index has just
// listed.  A same-seed twin that samples each neighbour on its own must see
// the same classes and make the same draws, instant by instant.
TEST(LinksOfOnePass, MatchesAPerNeighbourSampleLoop) {
  constexpr std::size_t kNodes = 50;
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1000.0, 1000.0};
  wp.max_speed_mps = 20.0;
  wp.pause = sim::seconds(1);
  const sim::RngManager rng(31);
  mobility::MobilityManager fast_mobility(kNodes, wp, rng);
  mobility::MobilityManager twin_mobility(kNodes, wp, rng);
  ChannelModel fast(ChannelConfig{}, fast_mobility, rng);
  ChannelModel twin(ChannelConfig{}, twin_mobility, rng);
  std::size_t links = 0;
  for (int instant = 0; instant < 200; ++instant) {
    // Irregular gaps, so instants fall anywhere in an index epoch.
    const auto t = sim::milliseconds(instant * 97 + (instant * 37) % 61);
    for (std::uint32_t node = instant % 5; node < kNodes; node += 5) {
      LinkRow expected;
      for (const auto other : twin.neighbors_of(node, t)) {
        if (const auto s = twin.sample(node, other, t)) {
          expected.emplace_back(other, s->csi);
        }
      }
      ASSERT_EQ(fast.links_of(node, t), expected)
          << "node " << node << " at " << t.seconds() << " s";
      ASSERT_EQ(fast.draws(), twin.draws()) << "at " << t.seconds() << " s";
      links += expected.size();
    }
  }
  EXPECT_GT(links, 1000u);
  EXPECT_EQ(fast.live_pairs(), twin.live_pairs());
  EXPECT_GT(fast.draws(), fast.live_pairs());  // moving pairs kept stepping
}

TEST_F(ChannelFixture, StaticRowsAreFinalAndMatchAFreshFirstRow) {
  const std::array<sim::Time, 3> times = {sim::Time::zero(), sim::seconds(1),
                                          sim::seconds(60)};
  std::size_t links = 0;
  for (const auto t : times) {
    const sim::RngManager rng(17);
    mobility::MobilityManager mobility(kNodes, waypoint_config(), rng);
    ChannelModel fresh(ChannelConfig{}, mobility, rng);
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      const auto expected = neighbors_then_csi(fresh, node, t);
      EXPECT_EQ(channel_.links_of(node, t), expected) << "node " << node;
      links += expected.size();
    }
  }
  EXPECT_GT(links, 0u);

  // A repeat call returns the stored row and draws nothing.
  const auto draws = channel_.draws();
  EXPECT_EQ(draws, channel_.live_pairs());
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    EXPECT_EQ(&channel_.links_of(node, sim::seconds(90)),
              &channel_.links_of(node, sim::Time::zero()));
  }
  EXPECT_EQ(channel_.draws(), draws);
}

/// `in_range` after every pair has been sampled at t = 0, against a fresh
/// same-seed model (no pairs, so it answers from the distance) at 0, 1 and
/// 60 s.  A static channel answers sampled pairs from its pair cache; a
/// moving one must not, because its pairs drift out of range.
class InRangeAfterSampling : public ::testing::TestWithParam<bool> {};

TEST_P(InRangeAfterSampling, MatchesAFreshDistanceCheck) {
  constexpr std::size_t kNodes = 30;
  const bool moving = GetParam();
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1000.0, 1000.0};
  wp.max_speed_mps = moving ? 20.0 : 0.0;
  const sim::RngManager rng(17);
  mobility::MobilityManager mobility(kNodes, wp, rng);
  ChannelModel channel(ChannelConfig{}, mobility, rng);
  ASSERT_EQ(channel.frozen(), !moving);
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = a + 1; b < kNodes; ++b) {
      (void)channel.sample(a, b, sim::Time::zero());
    }
  }
  ASSERT_GT(channel.live_pairs(), 0u);
  std::vector<bool> at_zero(kNodes * kNodes);
  {
    mobility::MobilityManager fresh_mobility(kNodes, wp, rng);
    ChannelModel fresh(ChannelConfig{}, fresh_mobility, rng);
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = 0; b < kNodes; ++b) {
        at_zero[a * kNodes + b] = fresh.in_range(a, b, sim::Time::zero());
      }
    }
  }

  const std::array<sim::Time, 3> times = {sim::Time::zero(), sim::seconds(1),
                                          sim::seconds(60)};
  std::size_t in_range = 0;
  std::size_t left_range = 0;  // sampled pairs out of range at t
  for (const auto t : times) {
    mobility::MobilityManager fresh_mobility(kNodes, wp, rng);
    ChannelModel fresh(ChannelConfig{}, fresh_mobility, rng);
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = 0; b < kNodes; ++b) {
        const bool expected = fresh.in_range(a, b, t);
        ASSERT_EQ(channel.in_range(a, b, t), expected)
            << a << "-" << b << " at " << t.seconds() << " s";
        in_range += expected ? 1 : 0;
        if (!expected && at_zero[a * kNodes + b]) ++left_range;
      }
    }
    EXPECT_EQ(fresh.live_pairs(), 0u);
  }
  EXPECT_GT(in_range, 0u);
  // Moving pairs do leave range, so the cache shortcut would be caught.
  EXPECT_EQ(left_range > 0, moving);
}

INSTANTIATE_TEST_SUITE_P(Channel, InRangeAfterSampling, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Moving" : "Static";
                         });

/// A frozen channel reads positions from its index snapshot and gives a new
/// pair speed 0.  The oracle evaluates every pair's first sample the long
/// way, through MobilityManager::position and speed: the exact range
/// predicate, the pair's first normal_pair at rho = 0 (the stationary law),
/// path loss and the quantizer.  Each model takes its snapshot at t = 0 and
/// samples first at 60 s.
class FrozenFirstSamples : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 300;
  static constexpr sim::Time kAt = sim::seconds(60);

  struct Expected {
    bool in = false;
    double snr_db = 0.0;
    CsiClass csi = CsiClass::D;
  };

  static mobility::MobilityConfig config() {
    mobility::MobilityConfig cfg;
    cfg.field = mobility::Field{2000.0, 2000.0};
    cfg.max_speed_mps = 0.0;
    return cfg;
  }

  /// A model with its own mobility, its index snapshot taken at t = 0.
  struct Model {
    explicit Model(const sim::RngManager& rng)
        : mobility(kNodes, config(), rng),
          channel(ChannelConfig{}, mobility, rng) {
      (void)channel.neighbors_of(0, sim::Time::zero());
      EXPECT_TRUE(channel.frozen());
    }
    mobility::MobilityManager mobility;
    ChannelModel channel;
  };

  FrozenFirstSamples() : rng_(29), expected_(kNodes * kNodes) {
    const ChannelConfig cfg;
    mobility::MobilityManager mobility(kNodes, config(), rng_);
    const std::uint64_t key = rng_.name_key("channel");
    for (std::uint32_t lo = 0; lo < kNodes; ++lo) {
      for (std::uint32_t hi = lo + 1; hi < kNodes; ++hi) {
        const auto pa = mobility.position(lo, kAt);
        const auto pb = mobility.position(hi, kAt);
        Expected e;
        e.in = within_range(pa, pb, cfg.range_m);
        const double rel_speed =
            mobility.speed(lo, kAt) + mobility.speed(hi, kAt);
        EXPECT_EQ(rel_speed, 0.0);
        auto stream = sim::RngManager::stream_at(key, lo, hi);
        const auto [zs, zf] = stream.normal_pair();
        const double dist = mobility::distance(pa, pb);
        const double mean_snr =
            cfg.snr0_db -
            10.0 * cfg.path_loss_exponent * std::log10(std::max(dist, 1.0));
        e.snr_db = mean_snr + zs * cfg.shadow_sigma_db +
                   zf * cfg.fading_sigma_db;
        e.csi = e.snr_db >= 18.0   ? CsiClass::A
                : e.snr_db >= 12.0 ? CsiClass::B
                : e.snr_db >= 6.0  ? CsiClass::C
                                   : CsiClass::D;
        expected_[lo * kNodes + hi] = e;
        expected_[hi * kNodes + lo] = e;
      }
    }
  }

  [[nodiscard]] const Expected& expected(std::uint32_t a,
                                         std::uint32_t b) const {
    return expected_[a * kNodes + b];
  }

  /// Checks one sample of (a, b) against the oracle; returns whether the
  /// pair is in range.
  bool check(const std::optional<ChannelSample>& s, std::uint32_t a,
             std::uint32_t b) const {
    const auto& e = expected(a, b);
    EXPECT_EQ(s.has_value(), e.in) << a << "-" << b;
    if (!s || !e.in) return false;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s->snr_db),
              std::bit_cast<std::uint64_t>(e.snr_db))
        << a << "-" << b;
    EXPECT_EQ(s->csi, e.csi) << a << "-" << b;
    return true;
  }

  [[nodiscard]] std::size_t in_range_pairs() const {
    std::size_t n = 0;
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = a + 1; b < kNodes; ++b) n += expected(a, b).in;
    }
    return n;
  }

  sim::RngManager rng_;
  std::vector<Expected> expected_;  ///< by a * kNodes + b, both orders
};

TEST_F(FrozenFirstSamples, SampleInBothOrdersMatchesTheOracle) {
  // Ascending loops draw each pair first as (lo, hi), descending ones as
  // (hi, lo); the second order then reads the stored sample.
  Model up(rng_);
  Model down(rng_);
  std::size_t in = 0;
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = 0; b < kNodes; ++b) {
      in += check(up.channel.sample(a, b, kAt), a, b);
      const std::uint32_t ra = kNodes - 1 - a;
      const std::uint32_t rb = kNodes - 1 - b;
      (void)check(down.channel.sample(ra, rb, kAt), ra, rb);
    }
  }
  EXPECT_EQ(in, 2 * in_range_pairs());
  EXPECT_GT(in_range_pairs(), 1000u);
  EXPECT_EQ(up.channel.live_pairs(), in_range_pairs());
  EXPECT_EQ(down.channel.live_pairs(), in_range_pairs());
  EXPECT_EQ(up.channel.draws(), up.channel.live_pairs());
  EXPECT_EQ(down.channel.draws(), down.channel.live_pairs());
}

TEST_F(FrozenFirstSamples, LinksOfMatchesTheOracle) {
  Model model(rng_);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    LinkRow row;
    for (std::uint32_t other = 0; other < kNodes; ++other) {
      if (other != node && expected(node, other).in) {
        row.emplace_back(other, expected(node, other).csi);
      }
    }
    EXPECT_EQ(model.channel.links_of(node, kAt), row) << "node " << node;
  }
  EXPECT_EQ(model.channel.live_pairs(), in_range_pairs());
  // Each stored pair holds the oracle's SNR.
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = 0; b < kNodes; ++b) {
      (void)check(model.channel.sample(a, b, kAt), a, b);
    }
  }
  EXPECT_EQ(model.channel.draws(), in_range_pairs());
}

TEST_F(FrozenFirstSamples, InRangeMatchesTheOracle) {
  // Undrawn pairs answer from the snapshot distance; drawn pairs from the
  // pair table.
  Model model(rng_);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = 0; b < kNodes; ++b) {
        EXPECT_EQ(model.channel.in_range(a, b, kAt),
                  a != b && expected(a, b).in)
            << a << "-" << b << " pass " << pass;
      }
    }
    EXPECT_EQ(model.channel.live_pairs(), pass == 0 ? 0u : in_range_pairs());
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = a + 1; b < kNodes; ++b) {
        (void)model.channel.sample(a, b, kAt);
      }
    }
  }
}

TEST_F(FrozenFirstSamples, SampleIsNulloptExactlyWhereWithinRangeRejects) {
  Model model(rng_);
  mobility::MobilityManager mobility(kNodes, config(), rng_);
  std::size_t rejected = 0;
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      const bool in = within_range(mobility.position(a, kAt),
                                   mobility.position(b, kAt),
                                   ChannelConfig{}.range_m);
      EXPECT_EQ(model.channel.sample(a, b, kAt).has_value(), in)
          << a << "-" << b;
      rejected += !in;
    }
  }
  EXPECT_EQ(rejected, kNodes * (kNodes - 1) - 2 * in_range_pairs());
  EXPECT_GT(rejected, kNodes * (kNodes - 1) / 2);
}

/// Two nodes 50 m apart moving in parallel along x at 10 m/s each, so the
/// pair keeps its distance (and mean SNR) while the channel sees a relative
/// speed of 20 m/s (the sum of the two speeds).
class ParallelPair : public ::testing::Test {
 protected:
  static constexpr double kRelSpeed = 20.0;

  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "rica_channel_parallel_pair.bonnmotion")
                .string();
    std::ofstream(path_) << "0 0 50 2000 20000 50\n"
                         << "0 0 100 2000 20000 100\n";
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Lag-1 autocorrelation and variance of the pair's SNR sampled every
  /// `dt` over `n` samples.
  std::pair<double, double> autocorrelation(const ChannelConfig& cfg,
                                            sim::Time dt, int n) {
    mobility::MobilityConfig mcfg = mobility::parse_mobility_spec(
        "trace:file=" + path_);
    mcfg.field = mobility::Field{20000.0, 20000.0};
    const sim::RngManager rng(43);
    mobility::MobilityManager mobility(2, mcfg, rng);
    ChannelModel channel(cfg, mobility, rng);
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) {
      const auto s = channel.sample(0, 1, dt * i);
      EXPECT_TRUE(s);
      xs.push_back(s ? s->snr_db : 0.0);
    }
    double mean = 0;
    for (const double x : xs) mean += x / n;
    double var = 0;
    double cov = 0;
    for (int i = 0; i < n; ++i) {
      var += (xs[i] - mean) * (xs[i] - mean) / n;
      if (i > 0) cov += (xs[i] - mean) * (xs[i - 1] - mean) / (n - 1);
    }
    return {cov / var, var};
  }

  std::string path_;
};

TEST_F(ParallelPair, ShadowingLagOneAutocorrelationIsExpOfMovedOverD) {
  ChannelConfig cfg;
  cfg.fading_sigma_db = 0.0;  // isolate the shadowing process
  // 1.25 s at 20 m/s moves 25 m: rho = exp(-25 / 50).
  const auto [rho, var] = autocorrelation(cfg, sim::milliseconds(1250), 1500);
  EXPECT_NEAR(rho, std::exp(-25.0 / cfg.shadow_decorr_m), 0.06);
  EXPECT_NEAR(var / (cfg.shadow_sigma_db * cfg.shadow_sigma_db), 1.0, 0.2);
}

TEST_F(ParallelPair, FadingLagOneAutocorrelationIsExpOfMovedOverD) {
  ChannelConfig cfg;
  cfg.shadow_sigma_db = 0.0;  // isolate the fading residual
  // 50 ms at 20 m/s moves 1 m: rho = exp(-1 / 2).
  const auto [rho, var] = autocorrelation(cfg, sim::milliseconds(50), 4000);
  EXPECT_NEAR(rho, std::exp(-1.0 / cfg.fading_decorr_m), 0.06);
  EXPECT_NEAR(var / (cfg.fading_sigma_db * cfg.fading_sigma_db), 1.0, 0.2);
}

}  // namespace
}  // namespace rica::channel
