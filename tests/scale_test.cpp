// Scale-out core: spatial neighbor-index equivalence with the brute-force
// scan (across every mobility model), batched mobility snapshots, hashed
// per-cell trial seeds, scenario presets, and serial/parallel sweep
// determinism (including the mobility axis).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"
#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"
#include "neighbor_oracle.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rica {
namespace {

// ---------------------------------------------------------------------------
// Mobility snapshots
// ---------------------------------------------------------------------------

TEST(MobilitySnapshot, MatchesLazyPerNodeQueries) {
  mobility::MobilityConfig cfg;
  cfg.field = mobility::Field{800.0, 800.0};
  cfg.max_speed_mps = 15.0;
  // Two managers over the same seed realize identical trajectories, so the
  // batched API can be checked against the lazy one without interference.
  sim::RngManager rng(42);
  mobility::MobilityManager batched(20, cfg, rng);
  mobility::MobilityManager lazy(20, cfg, rng);

  for (int step = 0; step <= 40; ++step) {
    const auto t = sim::seconds_f(0.7 * step);
    const auto snap = batched.snapshot(t);
    ASSERT_EQ(snap.size(), 20u);
    for (std::uint32_t id = 0; id < 20; ++id) {
      EXPECT_EQ(snap[id], lazy.position(id, t))
          << "node " << id << " at t=" << t.seconds();
    }
  }
}

TEST(MobilitySnapshot, ExposesSpeedBound) {
  mobility::MobilityConfig cfg;
  cfg.max_speed_mps = 12.5;
  sim::RngManager rng(1);
  mobility::MobilityManager mgr(5, cfg, rng);
  EXPECT_DOUBLE_EQ(mgr.max_speed_mps(), 12.5);
}

// ---------------------------------------------------------------------------
// Neighbor index == brute force, across models and configurations
// ---------------------------------------------------------------------------

struct IndexCase {
  std::uint64_t seed;
  std::size_t num_nodes;
  double field_m;
  double max_speed_mps;
  double range_m;
  std::string mobility = "waypoint";
};

/// The core index == brute-force property, shared by the parameterized
/// synthetic-model cases and the trace-replay cases.
///
/// The indexed channel and the brute-force oracle (tests/neighbor_oracle.hpp)
/// run on two managers over one seed, so the position queries the index
/// skips (sure entries) cannot hide behind the oracle's queries.  Each window
/// opens a fresh snapshot, then queries at several instants inside that one
/// epoch — up to exactly one epoch after the snapshot, where drift is widest
/// — with the odd nodes first queried mid-epoch and a different node order
/// every time, so each per-node list is reused across queries.
void check_index_equivalence(const IndexCase& p) {
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(p.mobility);
  wcfg.field = mobility::Field{p.field_m, p.field_m};
  wcfg.max_speed_mps = p.max_speed_mps;
  sim::RngManager rng(p.seed);
  mobility::MobilityManager indexed_mgr(p.num_nodes, wcfg, rng);
  mobility::MobilityManager oracle_mgr(p.num_nodes, wcfg, rng);

  channel::ChannelConfig ccfg;
  ccfg.range_m = p.range_m;
  channel::ChannelModel indexed(ccfg, indexed_mgr, rng);
  const auto& index = indexed.neighbor_index();
  const bool moving = indexed_mgr.max_speed_mps() > 0.0;

  const auto epoch = channel::NeighborIndex::kRebuildEpoch;
  const std::vector<sim::Time> offsets{
      sim::Time::zero(), sim::milliseconds(40), sim::milliseconds(131),
      epoch - sim::nanoseconds(1), epoch};
  std::vector<std::uint32_t> order(p.num_nodes);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937_64 shuffle_rng(p.seed);

  for (int window = 0; window < 60; ++window) {
    // Windows start more than an epoch apart, so each one re-snapshots.
    const auto t0 = sim::milliseconds(370) * window;
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      const auto t = t0 + offsets[k];
      std::shuffle(order.begin(), order.end(), shuffle_rng);
      for (const auto node : order) {
        if (k == 0 && node % 2 == 1) continue;  // first seen mid-epoch
        ASSERT_EQ(indexed.neighbors_of(node, t),
                  oracle::neighbors_of(oracle_mgr, node, t, p.range_m))
            << "node " << node << " at t=" << t.seconds() << " (seed "
            << p.seed << ", n=" << p.num_nodes << ", field=" << p.field_m
            << ", mobility=" << p.mobility << ")";
      }
      if (moving) {
        ASSERT_EQ(index.snapshot_time(), t0);
      }
    }
  }
  if (moving) {
    EXPECT_EQ(index.rebuild_count(), 60u) << "one snapshot per window";
  } else {
    EXPECT_EQ(index.rebuild_count(), 1u) << "a static network snapshots once";
  }
}

class NeighborIndexEquivalence : public ::testing::TestWithParam<IndexCase> {};

TEST_P(NeighborIndexEquivalence, GridMatchesBruteForceOverTime) {
  check_index_equivalence(GetParam());
}

TEST(TraceNeighborIndex, GridMatchesBruteForceOverTime) {
  // The trace model's data-derived max_speed_mps() is the exact bound its
  // replayed chord velocities realize, so the index's staleness slack — and
  // with it the index == brute bit-identity — must hold unmodified.
  mobility::MobilityConfig src = mobility::parse_mobility_spec("gauss-markov");
  src.field = mobility::Field{1000.0, 1000.0};
  src.max_speed_mps = 25.0;
  const sim::RngManager rng(61);
  const auto model = mobility::make_mobility_model(60, src, rng);
  const auto path = (std::filesystem::temp_directory_path() /
                     "rica_scale_trace.trace")
                        .string();
  // Cover the 30 s query sweep; a coarse-ish dt leaves real chord motion.
  mobility::write_bonnmotion_trace(*model, sim::seconds(31),
                                   sim::milliseconds(400), path);

  check_index_equivalence(
      IndexCase{67, 60, 1000.0, 25.0, 250.0, "trace:file=" + path});
  std::remove(path.c_str());
}

TEST(TraceNeighborIndex, BandEdgePairsMatchBruteForce) {
  // Static pairs at exactly range_m, at range_m +- 1e-7, and where hypot()
  // and the squared distance round to opposite sides of range_m.  The slack
  // is zero, so only the index's epsilon margin keeps its squared-distance
  // sure/band/out split consistent with the exact hypot() check.
  const std::string spec =
      "trace:file=" RICA_TEST_DATA_DIR "/neighbor_band_edge.bonnmotion";
  check_index_equivalence(IndexCase{71, 17, 3000.0, 0.0, 250.0, spec});

  // The fixture's premises, read through the indexed path.
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(spec);
  wcfg.field = mobility::Field{3000.0, 3000.0};
  const sim::RngManager rng(71);
  mobility::MobilityManager mgr(17, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  const auto t = sim::seconds(5);
  using Ids = std::vector<std::uint32_t>;
  EXPECT_EQ(channel.neighbors_of(0, t), (Ids{1, 16}));  // exactly 250 m
  EXPECT_EQ(channel.neighbors_of(3, t), (Ids{2}));      // 3-4-5 diagonal
  EXPECT_EQ(channel.neighbors_of(5, t), Ids{});         // 250 m + 1e-7
  EXPECT_EQ(channel.neighbors_of(6, t), (Ids{7}));      // 250 m - 1e-7
  EXPECT_EQ(channel.neighbor_index().slack_m(), 0.0);
}

TEST(TraceNeighborIndex, HeadOnPairsFlipWhereBruteForceDoes) {
  // Two pairs cross range_m mid-epoch at the full 2 * max_speed closing
  // rate: one comes into range at exactly 0.1 s, one leaves after exactly
  // 0.375 s.  The index must flip at the very ns the brute-force scan does,
  // so a decision held a ns too long (a 1 * max_speed rate, no kEpsilonM in
  // the expiry) answers wrong at the crossing.
  const std::string spec =
      "trace:file=" RICA_TEST_DATA_DIR "/neighbor_head_on.bonnmotion";
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(spec);
  wcfg.field = mobility::Field{3000.0, 3000.0};
  const sim::RngManager rng(73);
  mobility::MobilityManager indexed_mgr(4, wcfg, rng);
  mobility::MobilityManager oracle_mgr(4, wcfg, rng);
  ASSERT_EQ(indexed_mgr.max_speed_mps(), 10.0);
  const channel::ChannelConfig ccfg;
  channel::ChannelModel indexed(ccfg, indexed_mgr, rng);
  const auto brute = [&](std::uint32_t node, sim::Time t) {
    return oracle::neighbors_of(oracle_mgr, node, t, ccfg.range_m);
  };

  const auto closing = sim::milliseconds(100);
  const auto parting = sim::milliseconds(375);
  std::vector<sim::Time> times;
  for (int ms = 0; ms <= 600; ++ms) times.push_back(sim::milliseconds(ms));
  for (const auto crossing : {closing, parting}) {
    for (int ns = -64; ns <= 64; ++ns) {
      times.push_back(crossing + sim::nanoseconds(ns));
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  using Ids = std::vector<std::uint32_t>;
  for (const auto t : times) {
    for (std::uint32_t node = 0; node < 4; ++node) {
      const auto want = brute(node, t);
      ASSERT_EQ(indexed.neighbors_of(node, t), want)
          << "node " << node << " at t = " << t.nanos() << " ns";
    }
    // The fixture's premises: each brute-force answer flips at its ns.
    if (t == closing - sim::nanoseconds(1)) {
      ASSERT_EQ(brute(0, t), Ids{});
    }
    if (t == closing) {
      ASSERT_EQ(brute(0, t), Ids{1});
    }
    if (t == parting) {
      ASSERT_EQ(brute(2, t), Ids{3});
    }
    if (t == parting + sim::nanoseconds(1)) {
      ASSERT_EQ(brute(2, t), Ids{});
    }
  }
  EXPECT_GT(indexed.neighbor_index().rebuild_count(), 2u);
}

/// Index == brute force when every node is queried at its own random
/// instants, 1 to 3 ms apart to the ns, in global time order: decisions
/// expire at arbitrary ns, and each expired one is re-decided from a query
/// time rather than a snapshot.  Returns the number of queries whose answer
/// differed from the node's previous one.
std::size_t check_random_time_equivalence(const IndexCase& p,
                                          sim::Time horizon) {
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(p.mobility);
  wcfg.field = mobility::Field{p.field_m, p.field_m};
  wcfg.max_speed_mps = p.max_speed_mps;
  sim::RngManager rng(p.seed);
  mobility::MobilityManager indexed_mgr(p.num_nodes, wcfg, rng);
  mobility::MobilityManager oracle_mgr(p.num_nodes, wcfg, rng);
  channel::ChannelConfig ccfg;
  ccfg.range_m = p.range_m;
  channel::ChannelModel indexed(ccfg, indexed_mgr, rng);

  std::mt19937_64 gen(p.seed);
  std::uniform_int_distribution<std::int64_t> gap_ns(1'000'000, 3'000'000);
  std::vector<sim::Time> next(p.num_nodes);
  for (auto& t : next) t = sim::nanoseconds(gap_ns(gen) - 1'000'000);
  std::vector<std::vector<std::uint32_t>> last(p.num_nodes);
  std::size_t flips = 0;
  for (;;) {
    const auto it = std::min_element(next.begin(), next.end());
    const auto t = *it;
    if (t > horizon) break;
    const auto node = static_cast<std::uint32_t>(it - next.begin());
    auto got = indexed.neighbors_of(node, t);
    const auto want = oracle::neighbors_of(oracle_mgr, node, t, p.range_m);
    EXPECT_EQ(got, want) << "node " << node << " at t = " << t.nanos()
                         << " ns (" << p.mobility << ")";
    if (got != want) return flips;
    if (got != last[node]) ++flips;
    last[node] = std::move(got);
    *it = t + sim::nanoseconds(gap_ns(gen));
  }
  return flips;
}

class NeighborIndexRandomTimes : public ::testing::TestWithParam<IndexCase> {
};

TEST_P(NeighborIndexRandomTimes, GridMatchesBruteForceAtEveryQuery) {
  EXPECT_GT(check_random_time_equivalence(GetParam(), sim::seconds(4)), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMobilityModels, NeighborIndexRandomTimes,
    ::testing::Values(IndexCase{79, 60, 1000.0, 25.0, 250.0, "waypoint"},
                      IndexCase{83, 60, 1000.0, 25.0, 250.0, "walk"},
                      IndexCase{89, 60, 1000.0, 25.0, 250.0, "gauss-markov"},
                      IndexCase{97, 60, 1000.0, 25.0, 250.0, "group"},
                      IndexCase{101, 60, 1000.0, 25.0, 250.0, "manhattan"},
                      IndexCase{103, 40, 1414.2, 35.0, 150.0, "walk:leg=3"}));

TEST(TraceNeighborIndex, RandomTimesMatchBruteForce) {
  mobility::MobilityConfig src = mobility::parse_mobility_spec("gauss-markov");
  src.field = mobility::Field{1000.0, 1000.0};
  src.max_speed_mps = 25.0;
  const sim::RngManager rng(107);
  const auto model = mobility::make_mobility_model(60, src, rng);
  const auto path = (std::filesystem::temp_directory_path() /
                     "rica_scale_random_times.trace")
                        .string();
  mobility::write_bonnmotion_trace(*model, sim::seconds(5),
                                   sim::milliseconds(400), path);
  EXPECT_GT(check_random_time_equivalence(
                IndexCase{109, 60, 1000.0, 25.0, 250.0, "trace:file=" + path},
                sim::seconds(4)),
            0u);
  std::remove(path.c_str());

  // The head-on fixture, queried at random instants too.
  EXPECT_GT(check_random_time_equivalence(
                IndexCase{113, 4, 3000.0, 0.0, 250.0,
                          "trace:file=" RICA_TEST_DATA_DIR
                          "/neighbor_head_on.bonnmotion"},
                sim::seconds(2)),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedConfigs, NeighborIndexEquivalence,
    ::testing::Values(
        IndexCase{3, 1, 500.0, 10.0, 250.0},     // degenerate single node
        IndexCase{5, 25, 1414.2, 0.0, 250.0},    // static sparse-rural
        IndexCase{7, 60, 1000.0, 25.0, 250.0},   // fast paper-density
        IndexCase{11, 40, 2000.0, 15.0, 100.0},  // short range, big field
        IndexCase{13, 120, 1000.0, 40.0, 250.0},  // dense-urban, very fast
        IndexCase{17, 300, 1000.0, 0.0, 250.0}    // static, dense
        ));

INSTANTIATE_TEST_SUITE_P(
    AllMobilityModels, NeighborIndexEquivalence,
    ::testing::Values(
        IndexCase{19, 60, 1000.0, 25.0, 250.0, "walk"},
        IndexCase{23, 60, 1000.0, 25.0, 250.0, "gauss-markov"},
        IndexCase{29, 60, 1000.0, 25.0, 250.0, "group"},
        IndexCase{31, 60, 1000.0, 25.0, 250.0, "manhattan"},
        IndexCase{37, 40, 1414.2, 35.0, 150.0, "walk:leg=3"},
        IndexCase{41, 40, 1414.2, 35.0, 150.0,
                  "gauss-markov:alpha=0.2,step=0.4"},
        IndexCase{43, 40, 1414.2, 35.0, 150.0, "group:size=4,radius=120"},
        IndexCase{47, 40, 1414.2, 35.0, 150.0,
                  "manhattan:spacing=150,turn=0.5"},
        IndexCase{53, 30, 800.0, 0.0, 250.0, "group"}  // static group
        ));

class IndexedStackEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexedStackEquivalence, InRangeAndSampleMatchBruteChannel) {
  // The index prefilter is what keeps it invisible to every protocol: it
  // may only skip pairs the exact check would reject.  A wrongly skipped
  // pair would read out of range and skip its draw, so `in_range` and the
  // presence of a sample matching the oracle's range decision on a second
  // same-seed manager means the indexed stack observes the brute-force
  // channel, draw for draw.
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(GetParam());
  wcfg.max_speed_mps = 20.0;
  sim::RngManager rng(99);
  mobility::MobilityManager mgr(40, wcfg, rng);
  mobility::MobilityManager oracle_mgr(40, wcfg, rng);
  const channel::ChannelConfig ccfg;
  channel::ChannelModel indexed(ccfg, mgr, rng);

  std::size_t in_range = 0;
  for (int step = 0; step <= 20; ++step) {
    const auto t = sim::seconds_f(0.9 * step);
    for (std::uint32_t a = 0; a < 40; ++a) {
      for (std::uint32_t b = 0; b < 40; ++b) {
        const bool want = oracle::in_range(oracle_mgr, a, b, t, ccfg.range_m);
        ASSERT_EQ(indexed.in_range(a, b, t), want)
            << a << "-" << b << " at t=" << t.seconds();
        ASSERT_EQ(indexed.sample(a, b, t).has_value(), want)
            << a << "-" << b << " at t=" << t.seconds();
        in_range += want;
      }
    }
  }
  EXPECT_GT(in_range, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModels, IndexedStackEquivalence,
                         ::testing::Values("waypoint", "walk", "gauss-markov",
                                           "group", "manhattan"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Hashed per-cell trial seeds
// ---------------------------------------------------------------------------

TEST(TrialSeed, DeterministicAndCellIndependent) {
  harness::ScenarioConfig cfg;
  EXPECT_EQ(harness::trial_seed(cfg, 0), harness::trial_seed(cfg, 0));
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(cfg, 1));

  // The old seed, seed+1, ... scheme made trial 1 of base seed 1 collide
  // with trial 0 of base seed 2.  The hashed scheme must not.
  harness::ScenarioConfig shifted = cfg;
  shifted.seed = cfg.seed + 1;
  EXPECT_NE(harness::trial_seed(cfg, 1), harness::trial_seed(shifted, 0));

  // Every cell coordinate feeds the hash.
  harness::ScenarioConfig other = cfg;
  other.protocol = harness::ProtocolKind::kAodv;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.mean_speed_kmh += 14.4;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.pkts_per_s *= 2.0;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.num_nodes = 200;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.mobility = "gauss-markov";
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
}

// ---------------------------------------------------------------------------
// Scenario presets
// ---------------------------------------------------------------------------

TEST(Presets, KnownPopulations) {
  EXPECT_EQ(harness::preset_config("paper").num_nodes, 50u);
  EXPECT_EQ(harness::preset_config("dense-urban").num_nodes, 200u);
  EXPECT_EQ(harness::preset_config("sparse-rural").num_nodes, 25u);
  EXPECT_EQ(harness::preset_config("metro").num_nodes, 500u);
  EXPECT_EQ(harness::preset_config("large-scale").num_nodes, 10000u);
  EXPECT_NEAR(harness::preset_config("sparse-rural").field_m, 1414.2, 0.1);
  EXPECT_NEAR(harness::preset_config("metro").field_m, 1732.1, 0.1);
  EXPECT_NEAR(harness::preset_config("large-scale").field_m, 14142.1, 0.1);
  EXPECT_EQ(harness::scenario_presets().size(), 5u);
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW({ auto cfg = harness::preset_config("metropolis"); (void)cfg; },
               std::invalid_argument);
}

TEST(Presets, PairsScaleWithPopulation) {
  EXPECT_EQ(harness::preset_config("paper").num_pairs, 10u);
  EXPECT_EQ(harness::preset_config("dense-urban").num_pairs, 40u);
  EXPECT_EQ(harness::preset_config("large-scale").num_pairs, 2000u);
}

// ---------------------------------------------------------------------------
// Parallel sweep == serial sweep, bit for bit
// ---------------------------------------------------------------------------

void expect_identical(const harness::ScenarioResult& a,
                      const harness::ScenarioResult& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivery_pct, b.delivery_pct);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.overhead_kbps, b.overhead_kbps);
  EXPECT_EQ(a.avg_link_tput_kbps, b.avg_link_tput_kbps);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_EQ(a.control_collisions, b.control_collisions);
  EXPECT_EQ(a.tput_kbps_series, b.tput_kbps_series);
  EXPECT_EQ(a.stream_hash, b.stream_hash);
}

TEST(ParallelSweep, BitIdenticalToSerial) {
  harness::BenchScale serial{};
  serial.trials = 2;
  serial.sim_s = 4.0;
  serial.seed = 7;
  serial.threads = 1;
  serial.verbose = false;

  // Workers claim cells from the back of the grid; each cell still lands in
  // its own slot, so every pool size returns the serial grid.
  const std::vector<double> speeds{0.0, 36.0};
  const std::vector<double> loads{10.0, 20.0};
  const auto grid_serial = harness::run_speed_sweep(speeds, loads, serial);
  ASSERT_EQ(grid_serial.size(),
            speeds.size() * loads.size() * harness::kAllProtocols.size());
  for (const int threads : {2, 4}) {
    harness::BenchScale parallel = serial;
    parallel.threads = threads;
    const auto grid_parallel =
        harness::run_speed_sweep(speeds, loads, parallel);
    ASSERT_EQ(grid_serial.size(), grid_parallel.size());
    for (std::size_t i = 0; i < grid_serial.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i) + ", " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(grid_serial[i].protocol, grid_parallel[i].protocol);
      EXPECT_EQ(grid_serial[i].mean_speed_kmh,
                grid_parallel[i].mean_speed_kmh);
      EXPECT_EQ(grid_serial[i].pkts_per_s, grid_parallel[i].pkts_per_s);
      expect_identical(grid_serial[i].result, grid_parallel[i].result);
    }
  }
}

TEST(ParallelSweep, RicaVariantsEveryTrialBitIdenticalToSerial) {
  // run_cells takes any list of configs, settings the sweep grid never
  // varies included: every trial of every RICA variant hashes the same at
  // 1 and 4 workers.
  harness::ScenarioConfig base = harness::preset_config("paper");
  base.protocol = harness::ProtocolKind::kRica;
  base.mean_speed_kmh = 72.0;
  base.sim_s = 3.0;
  base.seed = 5;
  std::vector<harness::ScenarioConfig> cells;
  for (const auto period : {sim::milliseconds(500), sim::seconds(4)}) {
    cells.push_back(base);
    cells.back().rica.check_period = period;
  }
  cells.push_back(base);
  cells.back().rica.csi_jitter = sim::Time::zero();
  cells.push_back(base);
  cells.back().rica.discovery_timeout = sim::milliseconds(50);
  cells.push_back(base);

  const auto serial = harness::run_cells(cells, 2, 1);
  const auto parallel = harness::run_cells(cells, 2, 4);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ASSERT_EQ(serial[i].trials.size(), 2u);
    ASSERT_EQ(parallel[i].trials.size(), 2u);
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(serial[i].trials[t].stream_hash,
                parallel[i].trials[t].stream_hash)
          << "trial " << t;
    }
    expect_identical(serial[i].result, parallel[i].result);
  }
  // The variants really differ: a 4 s checking period is another run.
  EXPECT_NE(serial[1].result.stream_hash, serial[4].result.stream_hash);
}

TEST(ParallelSweep, RunCellsRethrowsACellsError) {
  harness::ScenarioConfig good = harness::preset_config("paper");
  good.sim_s = 1.0;
  harness::ScenarioConfig bad = good;
  bad.sim_s = -1.0;
  EXPECT_THROW((void)harness::run_cells({good, bad, good}, 1, 3),
               std::invalid_argument);
}

TEST(ParallelSweep, MobilityAxisBitIdenticalToSerial) {
  // The new mobility axis must preserve the determinism guarantee: a
  // parallel sweep over every model equals the serial enumeration.
  harness::BenchScale serial{};
  serial.trials = 1;
  serial.sim_s = 2.0;
  serial.seed = 11;
  serial.threads = 1;
  serial.verbose = false;

  harness::BenchScale parallel = serial;
  parallel.threads = 4;

  const std::vector<double> speeds{36.0};
  const std::vector<double> loads{10.0};
  const auto& models = mobility::known_mobility_models();
  const auto grid_serial =
      harness::run_speed_sweep(speeds, loads, models, serial);
  const auto grid_parallel =
      harness::run_speed_sweep(speeds, loads, models, parallel);

  ASSERT_EQ(grid_serial.size(), grid_parallel.size());
  ASSERT_EQ(grid_serial.size(),
            models.size() * speeds.size() * loads.size() *
                harness::kAllProtocols.size());
  for (std::size_t i = 0; i < grid_serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                 grid_serial[i].mobility + ")");
    EXPECT_EQ(grid_serial[i].protocol, grid_parallel[i].protocol);
    EXPECT_EQ(grid_serial[i].mobility, grid_parallel[i].mobility);
    expect_identical(grid_serial[i].result, grid_parallel[i].result);
  }
}

TEST(ParallelSweep, UnknownPresetThrowsBeforeRunning) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  scale.preset = "no-such-preset";
  EXPECT_THROW(harness::run_speed_sweep({0.0}, {10.0}, scale),
               std::invalid_argument);
}

TEST(ParallelSweep, UnknownMobilityThrowsBeforeRunning) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  EXPECT_THROW(
      harness::run_speed_sweep({0.0}, {10.0}, {"teleport"}, scale),
      std::invalid_argument);
}

TEST(ParallelSweep, UnreadableTraceThrowsBeforeRunning) {
  // The up-front validation loads trace files, so a bad path aborts the
  // sweep before any (potentially minutes-long) synthetic cell runs.
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  EXPECT_THROW(
      harness::run_speed_sweep(
          {0.0}, {10.0},
          {"waypoint", "trace:file=/nonexistent/rica-no-such.trace"}, scale),
      std::invalid_argument);
}

}  // namespace
}  // namespace rica
