// Mobility subsystem: the waypoint unit tests, spec parsing, and the
// model-generic property suite — for every model x randomized configs,
// (a) positions stay inside the field, (b) instantaneous speed never
// exceeds max_speed_mps(), (c) snapshot() equals N lazy queries, plus
// determinism, query-granularity independence (the neighbor index's
// pure-function-of-time contract), and the static special case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "mobility/random_waypoint.hpp"
#include "sim/random.hpp"

namespace rica::mobility {
namespace {

MobilityConfig make_config(double max_speed) {
  MobilityConfig cfg;
  cfg.field = Field{1000.0, 1000.0};
  cfg.max_speed_mps = max_speed;
  cfg.pause = sim::seconds(3);
  return cfg;
}

TEST(Field, Contains) {
  const Field f{100.0, 50.0};
  EXPECT_TRUE(f.contains({0.0, 0.0}));
  EXPECT_TRUE(f.contains({100.0, 50.0}));
  EXPECT_FALSE(f.contains({100.1, 10.0}));
  EXPECT_FALSE(f.contains({50.0, -0.1}));
}

TEST(Vec2, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------------------------
// Waypoint units (the paper's model keeps its original guarantees)
// ---------------------------------------------------------------------------

TEST(WaypointNode, StaysInsideField) {
  sim::RngManager rng(5);
  WaypointNode node(make_config(20.0), rng.stream("m", 0));
  for (int t = 0; t <= 600; ++t) {
    const Vec2 p = node.position_at(sim::seconds(t));
    EXPECT_TRUE(make_config(20.0).field.contains(p))
        << "escaped at t=" << t << " (" << p.x << "," << p.y << ")";
  }
}

TEST(WaypointNode, StaticWhenMaxSpeedZero) {
  sim::RngManager rng(6);
  WaypointNode node(make_config(0.0), rng.stream("m", 0));
  const Vec2 p0 = node.position_at(sim::seconds(0));
  const Vec2 p1 = node.position_at(sim::seconds(100));
  EXPECT_EQ(p0, p1);
  EXPECT_DOUBLE_EQ(node.speed_at(sim::seconds(200)), 0.0);
}

TEST(WaypointNode, PausesAtWaypoint) {
  // With max speed high and a 3 s pause, the node must be motionless for
  // stretches: sample densely and verify zero-speed intervals exist.
  sim::RngManager rng(9);
  WaypointNode node(make_config(40.0), rng.stream("m", 2));
  int paused_samples = 0;
  for (int i = 0; i < 4000; ++i) {
    if (node.speed_at(sim::milliseconds(i * 100)) == 0.0) ++paused_samples;
  }
  EXPECT_GT(paused_samples, 0);
}

TEST(MobilityManager, MeanSpeedApproachesHalfMax) {
  // Speeds are U(0, max]; over many legs the time-weighted mean of the
  // moving phase should land well inside (0.25, 0.75) * max.
  sim::RngManager rng(13);
  MobilityManager mgr(20, make_config(20.0), rng);
  double sum = 0;
  int count = 0;
  for (std::uint32_t n = 0; n < 20; ++n) {
    for (int t = 0; t < 500; t += 5) {
      const double s = mgr.speed(n, sim::seconds(t));
      if (s > 0) {
        sum += s;
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0);
  const double mean_moving = sum / count;
  EXPECT_GT(mean_moving, 5.0);
  EXPECT_LT(mean_moving, 15.0);
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(MobilitySpec, ModelNamesAndAliases) {
  EXPECT_EQ(model_from_string("waypoint"), ModelKind::kRandomWaypoint);
  EXPECT_EQ(model_from_string("RWP"), ModelKind::kRandomWaypoint);
  EXPECT_EQ(model_from_string("walk"), ModelKind::kRandomWalk);
  EXPECT_EQ(model_from_string("gauss-markov"), ModelKind::kGaussMarkov);
  EXPECT_EQ(model_from_string("gm"), ModelKind::kGaussMarkov);
  EXPECT_EQ(model_from_string("group"), ModelKind::kGroup);
  EXPECT_EQ(model_from_string("rpgm"), ModelKind::kGroup);
  EXPECT_EQ(model_from_string("manhattan"), ModelKind::kManhattan);
  EXPECT_EQ(known_mobility_models().size(), 5u);
}

TEST(MobilitySpec, UnknownModelListsKnownOnes) {
  try {
    (void)model_from_string("teleport");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("teleport"), std::string::npos);
    EXPECT_NE(msg.find("gauss-markov"), std::string::npos);
    EXPECT_NE(msg.find("manhattan"), std::string::npos);
  }
}

TEST(MobilitySpec, ParsesModelParams) {
  const auto gm = parse_mobility_spec("gauss-markov:alpha=0.5,step=0.25");
  EXPECT_EQ(gm.model, ModelKind::kGaussMarkov);
  EXPECT_DOUBLE_EQ(gm.gm_alpha, 0.5);
  EXPECT_DOUBLE_EQ(gm.gm_step_s, 0.25);

  const auto group = parse_mobility_spec("group:size=4,radius=80,frac=0.5");
  EXPECT_EQ(group.group_size, 4u);
  EXPECT_DOUBLE_EQ(group.group_radius_m, 80.0);
  EXPECT_DOUBLE_EQ(group.group_speed_frac, 0.5);

  const auto man = parse_mobility_spec("manhattan:spacing=200,turn=0.4");
  EXPECT_DOUBLE_EQ(man.manhattan_spacing_m, 200.0);
  EXPECT_DOUBLE_EQ(man.manhattan_turn_prob, 0.4);

  const auto walk = parse_mobility_spec("walk:leg=5");
  EXPECT_DOUBLE_EQ(walk.walk_leg_mean_s, 5.0);
}

TEST(MobilitySpec, RejectsBadParams) {
  EXPECT_THROW((void)parse_mobility_spec("walk:warp=9"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_mobility_spec("gauss-markov:alpha=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_mobility_spec("group:frac=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_mobility_spec("manhattan:turn=nope"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_mobility_spec("walk:leg"), std::invalid_argument);
  EXPECT_THROW((void)parse_mobility_spec("waypoint:pause=1"),
               std::invalid_argument);
}

TEST(MobilitySpec, RejectsDurationsOutsideTheNanosecondRange) {
  // leg and step become sim::Time; a value the conversion cannot hold must
  // fail at parse time, naming the key, instead of hanging or overflowing.
  const std::pair<std::string, std::string> params[] = {
      {"walk", "leg"}, {"gauss-markov", "step"}};
  for (const auto& [model, key] : params) {
    for (const char* value : {"inf", "nan", "1e300"}) {
      const std::string spec = model + ":" + key + "=" + value;
      try {
        (void)parse_mobility_spec(spec);
        ADD_FAILURE() << spec << " must be rejected";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("param " + key + " must be"),
                  std::string::npos)
            << spec << ": " << e.what();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Model-generic properties (every model x randomized configs)
// ---------------------------------------------------------------------------

class ModelProperties : public ::testing::TestWithParam<const char*> {
 protected:
  static MobilityConfig config(double max_speed) {
    MobilityConfig cfg = parse_mobility_spec(GetParam());
    cfg.field = Field{600.0, 600.0};
    cfg.max_speed_mps = max_speed;
    cfg.pause = sim::seconds(1);
    return cfg;
  }
};

TEST_P(ModelProperties, StaysInFieldAndUnderSpeedBound) {
  for (const std::uint64_t seed : {3u, 17u}) {
    const auto cfg = config(18.0);
    sim::RngManager rng(seed);
    MobilityManager mgr(24, cfg, rng);
    EXPECT_LE(mgr.max_speed_mps(), cfg.max_speed_mps + 1e-12);
    std::vector<Vec2> prev = mgr.snapshot(sim::Time::zero());
    for (int step = 1; step <= 480; ++step) {
      const auto t = sim::seconds_f(0.5 * step);
      for (std::uint32_t n = 0; n < mgr.size(); ++n) {
        const Vec2 p = mgr.position(n, t);
        EXPECT_TRUE(cfg.field.contains(p))
            << GetParam() << " node " << n << " escaped at t=" << t.seconds()
            << " (" << p.x << "," << p.y << ")";
        // Displacement between samples is bounded by the model-level speed
        // bound (1e-6 slack absorbs lattice re-anchoring rounding).
        EXPECT_LE(distance(prev[n], p), mgr.max_speed_mps() * 0.5 + 1e-6)
            << GetParam() << " node " << n << " at t=" << t.seconds();
        EXPECT_LE(mgr.speed(n, t), mgr.max_speed_mps() + 1e-9)
            << GetParam() << " node " << n << " at t=" << t.seconds();
        prev[n] = p;
      }
    }
  }
}

TEST_P(ModelProperties, SnapshotMatchesLazyPerNodeQueries) {
  const auto cfg = config(15.0);
  sim::RngManager rng(42);
  MobilityManager batched(20, cfg, rng);
  MobilityManager lazy(20, cfg, rng);
  for (int step = 0; step <= 40; ++step) {
    const auto t = sim::seconds_f(0.7 * step);
    const auto snap = batched.snapshot(t);
    ASSERT_EQ(snap.size(), 20u);
    for (std::uint32_t id = 0; id < 20; ++id) {
      EXPECT_EQ(snap[id], lazy.position(id, t))
          << GetParam() << " node " << id << " at t=" << t.seconds();
    }
  }
}

TEST_P(ModelProperties, PositionIsPureFunctionOfTime) {
  // The neighbor index interleaves snapshot epochs with exact per-query
  // evaluations, so a trajectory must not depend on which intermediate
  // times were queried: a sparsely queried manager must agree bit-for-bit
  // with a densely queried one.
  const auto cfg = config(21.0);
  sim::RngManager rng(7);
  MobilityManager dense(12, cfg, rng);
  MobilityManager sparse(12, cfg, rng);
  for (int step = 0; step <= 400; ++step) {
    const auto t = sim::milliseconds(step * 173);
    const auto p = dense.snapshot(t);
    if (step % 37 != 0) continue;
    for (std::uint32_t id = 0; id < 12; ++id) {
      EXPECT_EQ(p[id], sparse.position(id, t))
          << GetParam() << " node " << id << " at t=" << t.seconds();
      EXPECT_EQ(dense.speed(id, t), sparse.speed(id, t))
          << GetParam() << " node " << id << " at t=" << t.seconds();
    }
  }
}

TEST_P(ModelProperties, DeterministicForSameSeed) {
  const auto cfg = config(12.0);
  sim::RngManager rng(10);
  MobilityManager a(8, cfg, rng);
  MobilityManager b(8, cfg, rng);
  for (int t = 0; t <= 100; ++t) {
    for (std::uint32_t id = 0; id < 8; ++id) {
      EXPECT_EQ(a.position(id, sim::seconds(t)),
                b.position(id, sim::seconds(t)));
    }
  }
}

TEST_P(ModelProperties, StaticWhenMaxSpeedZero) {
  const auto cfg = config(0.0);
  sim::RngManager rng(6);
  MobilityManager mgr(6, cfg, rng);
  EXPECT_DOUBLE_EQ(mgr.max_speed_mps(), 0.0);
  const auto p0 = mgr.snapshot(sim::Time::zero());
  const auto p1 = mgr.snapshot(sim::seconds(500));
  for (std::uint32_t id = 0; id < 6; ++id) {
    EXPECT_EQ(p0[id], p1[id]) << GetParam() << " node " << id;
    EXPECT_DOUBLE_EQ(mgr.speed(id, sim::seconds(600)), 0.0);
  }
}

TEST_P(ModelProperties, DistinctNodesGetDistinctTrajectories) {
  const auto cfg = config(10.0);
  sim::RngManager rng(11);
  MobilityManager mgr(5, cfg, rng);
  const Vec2 p0 = mgr.position(0, sim::seconds(1));
  const Vec2 p1 = mgr.position(1, sim::seconds(1));
  EXPECT_NE(p0, p1);  // distinct streams give distinct positions
  EXPECT_EQ(mgr.size(), 5u);
  const double dab = mgr.node_distance(0, 1, sim::seconds(5));
  const double dba = mgr.node_distance(1, 0, sim::seconds(5));
  EXPECT_DOUBLE_EQ(dab, dba);
  EXPECT_GE(dab, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelProperties,
    ::testing::Values("waypoint", "walk", "gauss-markov", "group",
                      "manhattan", "walk:leg=2",
                      "gauss-markov:alpha=0.3,step=0.5",
                      "group:size=3,radius=60,frac=0.7",
                      "manhattan:spacing=120,turn=0.6"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name(info.param);
      for (char& c : name) {
        if (c == ':' || c == '=' || c == ',' || c == '-' || c == '.') {
          c = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Model-specific behaviour
// ---------------------------------------------------------------------------

TEST(GroupMobility, MembersStayNearTheirReference) {
  // Same group => bounded pairwise distance (2 * jitter radius); the
  // deterministic id/group_size assignment puts nodes 0..4 in group 0.
  auto cfg = parse_mobility_spec("group:size=5,radius=50");
  cfg.field = Field{1000.0, 1000.0};
  cfg.max_speed_mps = 20.0;
  sim::RngManager rng(21);
  MobilityManager mgr(10, cfg, rng);
  for (int t = 0; t <= 200; t += 5) {
    for (std::uint32_t a = 0; a < 5; ++a) {
      for (std::uint32_t b = a + 1; b < 5; ++b) {
        EXPECT_LE(mgr.node_distance(a, b, sim::seconds(t)), 100.0 + 1e-6)
            << "group members drifted apart at t=" << t;
      }
    }
  }
}

TEST(ManhattanMobility, NodesStayOnTheStreetLattice) {
  auto cfg = parse_mobility_spec("manhattan:spacing=250");
  cfg.field = Field{1000.0, 1000.0};
  cfg.max_speed_mps = 20.0;
  sim::RngManager rng(23);
  MobilityManager mgr(12, cfg, rng);
  for (int t = 0; t <= 300; t += 3) {
    for (std::uint32_t n = 0; n < 12; ++n) {
      const Vec2 p = mgr.position(n, sim::seconds(t));
      const double dx = std::fmod(p.x, 250.0);
      const double dy = std::fmod(p.y, 250.0);
      const bool on_x_street = std::min(dy, 250.0 - dy) < 1e-6;
      const bool on_y_street = std::min(dx, 250.0 - dx) < 1e-6;
      EXPECT_TRUE(on_x_street || on_y_street)
          << "node " << n << " off-street at t=" << t << " (" << p.x << ","
          << p.y << ")";
    }
  }
}

TEST(RandomWalkMobility, CoversTheFieldWithoutCenterBias) {
  // Reflection (vs waypoint's center-seeking legs) should leave a healthy
  // share of time near the border: count samples in the outer 20% frame.
  auto cfg = parse_mobility_spec("walk");
  cfg.field = Field{500.0, 500.0};
  cfg.max_speed_mps = 25.0;
  cfg.pause = sim::Time::zero();
  sim::RngManager rng(29);
  MobilityManager mgr(30, cfg, rng);
  int outer = 0;
  int total = 0;
  for (int t = 0; t <= 400; t += 2) {
    for (std::uint32_t n = 0; n < 30; ++n) {
      const Vec2 p = mgr.position(n, sim::seconds(t));
      const bool in_outer = p.x < 100.0 || p.x > 400.0 || p.y < 100.0 ||
                            p.y > 400.0;
      outer += in_outer ? 1 : 0;
      ++total;
    }
  }
  // The outer frame is 64% of the area; uniform occupancy would put ~64%
  // of samples there, waypoint's center bias well under half that.
  EXPECT_GT(static_cast<double>(outer) / total, 0.40);
}

TEST(GaussMarkovMobility, HighAlphaTurnsLessPerStep) {
  // The memory parameter shows up in the innovation scale sqrt(1 - a^2):
  // with alpha near 1 successive step velocities stay nearly parallel,
  // while alpha near 0 redraws the heading around the mean every step.
  // Compare the mean absolute turn angle between consecutive 1 s steps.
  const auto mean_turn = [](double alpha) {
    auto cfg = parse_mobility_spec("gauss-markov");
    cfg.gm_alpha = alpha;
    cfg.field = Field{100000.0, 100000.0};  // huge: no wall interference
    cfg.max_speed_mps = 10.0;
    sim::RngManager rng(31);
    MobilityManager mgr(40, cfg, rng);
    std::vector<Vec2> p0 = mgr.snapshot(sim::Time::zero());
    std::vector<Vec2> p1 = mgr.snapshot(sim::seconds(1));
    double sum = 0.0;
    int count = 0;
    for (int k = 2; k <= 60; ++k) {
      const auto p2 = mgr.snapshot(sim::seconds(k));
      for (std::uint32_t n = 0; n < 40; ++n) {
        const Vec2 u = p1[n] - p0[n];
        const Vec2 v = p2[n] - p1[n];
        if (u.norm() < 1e-6 || v.norm() < 1e-6) continue;
        const double cross = u.x * v.y - u.y * v.x;
        const double dot = u.x * v.x + u.y * v.y;
        sum += std::abs(std::atan2(cross, dot));
        ++count;
      }
      p0 = p1;
      p1 = p2;
    }
    return sum / count;
  };
  EXPECT_LT(2.0 * mean_turn(0.98), mean_turn(0.05));
}

}  // namespace
}  // namespace rica::mobility
