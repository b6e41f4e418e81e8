// Harness units: flag parsing, table rendering, bench scales, the RICA
// settings plumbed through the scenario config, the --warmup measurement
// window (epoch-reset semantics: a warmed-up run's counters equal the
// post-window deltas of a cold run), and the strict trace/spec error paths
// (file:line diagnostics, never a silent clamp).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "mobility/trace.hpp"
#include "net/network.hpp"
#include "routing/linkstate/linkstate.hpp"

namespace rica::harness {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValues) {
  const auto f = parse({"--trials", "7", "--sim-time", "250.5"});
  EXPECT_EQ(f.get("trials", 0), 7);
  EXPECT_DOUBLE_EQ(f.get("sim-time", 0.0), 250.5);
}

TEST(Flags, EqualsSeparatedValues) {
  const auto f = parse({"--seed=99", "--protocol=bgca"});
  EXPECT_EQ(f.get("seed", std::uint64_t{0}), 99u);
  EXPECT_EQ(f.get("protocol", std::string{}), "bgca");
}

TEST(Flags, BareBooleanFlag) {
  const auto f = parse({"--paper-scale"});
  EXPECT_TRUE(f.has("paper-scale"));
  EXPECT_FALSE(f.has("trials"));
}

TEST(Flags, ListParsing) {
  const auto f = parse({"--speeds", "0,14.4,72"});
  const auto v = f.get_list("speeds", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 14.4);
  EXPECT_DOUBLE_EQ(v[2], 72.0);
}

TEST(Flags, ListFallback) {
  const auto f = parse({});
  const auto v = f.get_list("speeds", {1.0, 2.0});
  ASSERT_EQ(v.size(), 2u);
}

TEST(Flags, PositionalArgumentRejected) {
  EXPECT_THROW(parse({"oops"}), std::invalid_argument);
}

TEST(Flags, RequireKnownAcceptsListedAndRejectsOthers) {
  EXPECT_NO_THROW(parse({"--sim-time", "5", "--verbose"})
                      .require_known({"sim-time", "verbose", "seed"}));
  try {
    parse({"--sim-tme", "5"}).require_known({"sim-time"});
    FAIL() << "a misspelled flag must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --sim-tme");
  }
}

TEST(Flags, StringListSkipsEmptyItemsAndFallsBack) {
  const auto f = parse({"--models", ",walk,,cbr:jitter=0.2,"});
  EXPECT_EQ(f.get_strings("models", {"unused"}),
            (std::vector<std::string>{"walk", "cbr:jitter=0.2"}));
  EXPECT_EQ(f.get_strings("absent", {"waypoint"}),
            std::vector<std::string>{"waypoint"});
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get("trials", 5), 5);
  EXPECT_EQ(f.get("name", std::string{"x"}), "x");
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string rejection(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(Flags, MalformedNumbersNameTheFlagAndTheValue) {
  const auto f = parse({"--threads", "abc", "--trials", "3abc", "--sim-time",
                        "2.5s", "--seed", "-1", "--speeds", "0,abc,72",
                        "--rate", "1e999"});
  EXPECT_EQ(rejection([&f] { (void)f.get("threads", 0); }),
            "--threads: 'abc' is not an integer");
  EXPECT_EQ(rejection([&f] { (void)f.get("trials", 0); }),
            "--trials: '3abc' is not an integer");
  EXPECT_EQ(rejection([&f] { (void)f.get("sim-time", 0.0); }),
            "--sim-time: '2.5s' is not a number");
  EXPECT_EQ(rejection([&f] { (void)f.get("seed", std::uint64_t{1}); }),
            "--seed: '-1' is not a non-negative integer");
  EXPECT_EQ(rejection([&f] { (void)f.get_list("speeds", {}); }),
            "--speeds: 'abc' is not a number");
  EXPECT_EQ(rejection([&f] { (void)f.get("rate", 10.0); }),
            "--rate: '1e999' is not a number");  // out of double range
  // Whole values, including the non-finite spellings validate_scenario
  // rejects with its own message, still parse.
  const auto ok = parse({"--trials", "-3", "--sim-time", "nan", "--seed",
                         "18446744073709551615", "--rate", "1e300"});
  EXPECT_EQ(ok.get("trials", 0), -3);
  EXPECT_TRUE(std::isnan(ok.get("sim-time", 0.0)));
  EXPECT_EQ(ok.get("seed", std::uint64_t{1}),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(ok.get("rate", 0.0), 1e300);
}

TEST(BenchScale, CountsBelowTheirRangeAreRejected) {
  EXPECT_EQ(rejection([] { (void)bench_scale(parse({"--trials", "0"}), 3,
                                             100.0); }),
            "--trials must be >= 1, got 0");
  EXPECT_EQ(rejection([] { (void)bench_scale(parse({"--trials", "-3"}), 3,
                                             100.0); }),
            "--trials must be >= 1, got -3");
  EXPECT_EQ(rejection([] { (void)bench_scale(parse({"--threads", "-2"}), 3,
                                             100.0); }),
            "--threads must be >= 0 (0 = one per core), got -2");
  EXPECT_EQ(rejection([] { (void)bench_scale(parse({"--threads", "abc"}), 3,
                                             100.0); }),
            "--threads: 'abc' is not an integer");
  const auto s = bench_scale(parse({"--trials", "1", "--threads", "0"}), 3,
                             100.0);
  EXPECT_EQ(s.trials, 1);
  EXPECT_EQ(s.threads, 0);
}

TEST(BenchScale, DefaultsApply) {
  const auto f = parse({});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.trials, 3);
  EXPECT_DOUBLE_EQ(s.sim_s, 100.0);
  EXPECT_EQ(s.seed, 1u);
}

TEST(BenchScale, PaperScaleShorthand) {
  const auto f = parse({"--paper-scale"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.trials, 25);
  EXPECT_DOUBLE_EQ(s.sim_s, 500.0);
}

TEST(BenchScale, ExplicitOverridesBeatPaperScale) {
  const auto f = parse({"--paper-scale", "--trials", "2"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.trials, 2);
  EXPECT_DOUBLE_EQ(s.sim_s, 500.0);
}

TEST(BenchScale, MobilityAndPauseDefaults) {
  const auto f = parse({});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.mobility, "waypoint");
  EXPECT_DOUBLE_EQ(s.pause_s, 3.0);
}

TEST(BenchScale, MobilitySpecWithParamsParses) {
  const auto f = parse({"--mobility", "gauss-markov:alpha=0.9,step=0.5",
                        "--pause", "0"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.mobility, "gauss-markov:alpha=0.9,step=0.5");
  EXPECT_DOUBLE_EQ(s.pause_s, 0.0);
}

TEST(BenchScale, UnknownMobilityModelFailsFastListingModels) {
  const auto f = parse({"--mobility", "teleport"});
  try {
    (void)bench_scale(f, 3, 100.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("waypoint"), std::string::npos);
    EXPECT_NE(msg.find("manhattan"), std::string::npos);
    // The trace replay spelling is advertised alongside the synthetic
    // models, so users discover `--mobility trace:file=...` from the error.
    EXPECT_NE(msg.find("trace:file="), std::string::npos);
  }
}

TEST(BenchScale, NegativePauseRejected) {
  const auto f = parse({"--pause", "-1"});
  EXPECT_THROW((void)bench_scale(f, 3, 100.0), std::invalid_argument);
}

TEST(BenchScale, TrafficDefaultsToPoisson) {
  const auto s = bench_scale(parse({}), 3, 100.0);
  EXPECT_EQ(s.traffic, "poisson");
}

TEST(BenchScale, TrafficSpecWithParamsParses) {
  const auto f =
      parse({"--traffic", "onoff:on=0.5,off=2,pattern=hotspot,hotspots=4"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.traffic, "onoff:on=0.5,off=2,pattern=hotspot,hotspots=4");
}

TEST(BenchScale, UnknownTrafficModelFailsFastListingModels) {
  const auto f = parse({"--traffic", "warpdrive"});
  try {
    (void)bench_scale(f, 3, 100.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("poisson"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reqresp"), std::string::npos) << msg;
  }
}

TEST(BenchScale, BadTrafficParamFailsFast) {
  const auto f = parse({"--traffic", "cbr:jitter=2"});
  EXPECT_THROW((void)bench_scale(f, 3, 100.0), std::invalid_argument);
}

TEST(ScenarioTraffic, SpecFlowsIntoRunnableConfig) {
  ScenarioConfig cfg;
  cfg.traffic = "cbr:jitter=0.1,pattern=sink";
  cfg.sim_s = 2.0;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.generated, 0u);
  cfg.traffic = "cbr:jitter=-1";
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

TEST(ScenarioTraffic, OverfullPairRequestFailsWithClearMessage) {
  // The 2*pairs <= nodes guard used to be a debug assert that vanished in
  // Release builds and fed uniform_int an inverted range; it must now be a
  // thrown error in every build type, carrying the arithmetic.
  ScenarioConfig cfg;
  cfg.num_nodes = 50;
  cfg.num_pairs = 26;
  cfg.sim_s = 1.0;
  try {
    (void)run_scenario(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("random"), std::string::npos) << msg;
    EXPECT_NE(msg.find("26"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
  }
}

TEST(BenchScale, WarmupDefaultsToPresetCappedAtTwentyPercent) {
  // Long run: the paper preset's 20 s default applies whole.
  EXPECT_DOUBLE_EQ(bench_scale(parse({}), 3, 500.0).warmup_s, 20.0);
  // Short smoke run: capped at 20% of the simulated time.
  EXPECT_DOUBLE_EQ(bench_scale(parse({}), 3, 10.0).warmup_s, 2.0);
  // Bigger presets warm up longer.
  const auto f = parse({"--preset", "sparse-rural"});
  EXPECT_DOUBLE_EQ(bench_scale(f, 3, 500.0).warmup_s, 30.0);
}

TEST(BenchScale, ExplicitWarmupWinsAndIsValidated) {
  EXPECT_DOUBLE_EQ(bench_scale(parse({"--warmup", "7"}), 3, 100.0).warmup_s,
                   7.0);
  EXPECT_DOUBLE_EQ(bench_scale(parse({"--warmup", "0"}), 3, 100.0).warmup_s,
                   0.0);
  EXPECT_THROW((void)bench_scale(parse({"--warmup", "-2"}), 3, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)bench_scale(parse({"--warmup", "100"}), 3, 100.0),
               std::invalid_argument);
}

TEST(ScenarioMobility, SpecFlowsIntoRunnableConfig) {
  // A non-default spec must produce a runnable scenario (exercised end to
  // end by the sweep tests); a bad spec must fail at scenario build time.
  ScenarioConfig cfg;
  cfg.mobility = "group:size=5,radius=80";
  cfg.sim_s = 2.0;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.generated, 0u);
  cfg.mobility = "group:radius=-4";
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Warmup semantics: one epoch-reset event, counters == post-window deltas
// ---------------------------------------------------------------------------

TEST(Warmup, CountersEqualPostWindowDeltasOfColdRun) {
  // A run to time w is the exact prefix of a run to time T (traffic and
  // protocol events are generated lazily), so the cold run's counter deltas
  // over (w, T] are recoverable from two finalizations — and a warmed-up
  // run must reproduce them exactly, because the epoch reset only zeroes
  // accumulators without touching the event stream.  Seed 13 adds a window
  // with discovery failures, which seed 5 lacks.
  std::set<std::string> moved;  // owned counters with a nonzero window
  for (const std::uint64_t seed : {5u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScenarioConfig base;
    base.protocol = ProtocolKind::kRica;
    base.mean_speed_kmh = 36.0;
    base.seed = seed;

    ScenarioConfig prefix = base;
    prefix.sim_s = 8.0;
    ScenarioConfig total = base;
    total.sim_s = 20.0;
    ScenarioConfig warmed = total;
    warmed.warmup_s = 8.0;

    const auto rp = run_scenario(prefix);
    const auto rt = run_scenario(total);
    const auto rw = run_scenario(warmed);

    EXPECT_EQ(rw.measure_start, sim::seconds(8));
    EXPECT_EQ(rw.generated, rt.generated - rp.generated);
    EXPECT_EQ(rw.delivered, rt.delivered - rp.delivered);
    EXPECT_EQ(rw.control_transmissions,
              rt.control_transmissions - rp.control_transmissions);
    EXPECT_EQ(rw.control_collisions,
              rt.control_collisions - rp.control_collisions);
    for (std::size_t i = 0; i < stats::kNumDropReasons; ++i) {
      EXPECT_EQ(rw.drops[i], rt.drops[i] - rp.drops[i]) << "drop reason " << i;
    }
    // Every owned registry counter is window-scoped as well: protocol
    // diagnostics, MAC failures and the discovery-failure tally all equal
    // the cold run's post-window delta.
    for (const auto& [name, sample] : rt.stats) {
      if (!name.starts_with("rica.") && !name.starts_with("mac.") &&
          name != "routing.discovery_failed") {
        continue;
      }
      EXPECT_EQ(rw.stat(name), sample.value - rp.stat(name)) << name;
      if (rw.stat(name) > 0.0) moved.insert(name);
    }
    // Function-backed kernel stats read the kernel for the whole run: the
    // whole warmup machinery is a single extra event.
    EXPECT_EQ(rw.stat("kernel.events_executed"),
              rt.stat("kernel.events_executed") + 1);
    // Overhead is the delta of control+ACK bits over the 12 s window (kbps
    // * seconds = kbits; reconstructed, so compare with a rounding
    // tolerance).
    const double window_kbits =
        rt.overhead_kbps * total.sim_s - rp.overhead_kbps * prefix.sim_s;
    EXPECT_NEAR(rw.overhead_kbps,
                window_kbits / (total.sim_s - warmed.warmup_s),
                1e-9 * (1.0 + rw.overhead_kbps));
  }
  for (const char* name :
       {"rica.discovery", "mac.unicast_fail", "routing.discovery_failed"}) {
    EXPECT_TRUE(moved.contains(name)) << name << " never moved in a window";
  }
}

TEST(RunTrials, FoldsProtocolDiagnosticsAcrossTrials) {
  // Diagnostics are registry counters, so the multi-trial fold sums them
  // like every other counter instead of dropping them.
  ScenarioConfig cfg;
  cfg.sim_s = 5.0;
  double per_trial_sum = 0.0;
  for (int t = 0; t < 2; ++t) {
    ScenarioConfig trial = cfg;
    trial.seed = trial_seed(cfg, t);
    per_trial_sum += run_scenario(trial).stat("rica.discovery");
  }
  const auto folded = run_trials(cfg, 2);
  EXPECT_GT(folded.stat("rica.discovery"), 0.0);
  EXPECT_EQ(folded.stat("rica.discovery"), per_trial_sum);
}

TEST(Warmup, ZeroWarmupIsBitIdenticalToDefaultRun) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::kAodv;
  cfg.sim_s = 6.0;
  cfg.seed = 11;
  const auto plain = run_scenario(cfg);
  cfg.warmup_s = 0.0;
  const auto zero = run_scenario(cfg);
  EXPECT_EQ(plain.stream_hash, zero.stream_hash);
  EXPECT_EQ(plain.generated, zero.generated);
  EXPECT_EQ(plain.delivered, zero.delivered);
  EXPECT_EQ(plain.overhead_kbps, zero.overhead_kbps);
  EXPECT_EQ(plain.stats, zero.stats);
  EXPECT_EQ(plain.measure_start, sim::Time::zero());
  EXPECT_EQ(zero.measure_start, sim::Time::zero());
}

TEST(Warmup, BoundaryEventsStayOutsideTheWindow) {
  // The measured window is (w, sim_end]: an event at exactly t == w belongs
  // to the transient.  run_scenario arms the reset first (lowest tie-break
  // seq at its timestamp) but at w + 1 ns, so it still fires after every
  // event stamped w.  Replicate that arming order around a hand-scheduled
  // boundary event.
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  const sim::Time w = sim::seconds(2);
  sim.at(w + sim::Time{1}, [&] { metrics.reset_epoch(w); });
  sim.at(w, [&] { metrics.on_control_tx(100); });          // boundary
  sim.at(w + sim::Time{1}, [&] { metrics.on_control_tx(300); });  // same
  // timestamp as the reset but armed later -> fires after it: in-window.
  sim.at(sim::seconds(3), [&] { metrics.on_control_tx(500); });
  sim.run_until(sim::seconds(4));

  EXPECT_EQ(metrics.epoch_start(), w);
  const auto s = metrics.finalize(sim::seconds(4));
  EXPECT_EQ(s.control_transmissions, 2u);  // 300 + 500; the t==w tx is gone
  EXPECT_DOUBLE_EQ(s.overhead_kbps * (4.0 - 2.0), 0.8);  // kbits over (w, T]
}

TEST(Warmup, InvalidWindowsRejected) {
  ScenarioConfig cfg;
  cfg.sim_s = 10.0;
  cfg.warmup_s = -1.0;
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
  cfg.warmup_s = 10.0;  // no measurement window left
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
  cfg.warmup_s = 12.0;
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

TEST(Warmup, FlowsThroughSweepCells) {
  BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 3.0;
  scale.seed = 2;
  scale.threads = 1;
  scale.warmup_s = 1.0;
  scale.verbose = false;
  const auto grid = run_speed_sweep({36.0}, {10.0}, scale);
  ASSERT_EQ(grid.size(), kAllProtocols.size());
  for (const auto& cell : grid) {
    EXPECT_EQ(cell.result.measure_start, sim::seconds(1))
        << to_string(cell.protocol);
  }
}

TEST(Interval, StudentTOverTrials) {
  // mean 3, s = sqrt(2.5), t(0.975, 4) = 2.7764.
  const Interval ci = t_interval({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.half, 2.7764 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_TRUE((Interval{1.0, 0.5}.below(Interval{2.0, 0.4})));
  EXPECT_FALSE((Interval{1.0, 0.5}.below(Interval{2.0, 0.6})));

  // One sample has no spread estimate: the mean alone.
  EXPECT_EQ(t_interval({7.0}).half, 0.0);
  EXPECT_DOUBLE_EQ(t_interval({7.0}).mean, 7.0);

  // Past the table: twenty -1s, twenty +1s and one 0 have mean 0 and
  // s = 1, so s/sqrt(n) = 1/sqrt(41); t(0.975, 40) = 2.0211.
  std::vector<double> xs(41, 1.0);
  for (std::size_t i = 0; i < 20; ++i) xs[i] = -1.0;
  xs[40] = 0.0;
  const Interval wide = t_interval(xs);
  const double se = 1.0 / std::sqrt(41.0);
  EXPECT_NEAR(wide.half / se, 2.0211, 1e-3);
}

TEST(Interval, SweepCellsKeepEveryTrial) {
  BenchScale scale{};
  scale.trials = 3;
  scale.sim_s = 3.0;
  scale.seed = 4;
  scale.threads = 1;
  scale.verbose = false;
  const auto grid = run_speed_sweep({36.0}, {10.0}, scale);
  for (const auto& cell : grid) {
    ASSERT_EQ(cell.trials.size(), 3u) << to_string(cell.protocol);
    // The interval's mean is the folded result's mean, bit for bit.
    const auto delay = [](const ScenarioResult& r) { return r.avg_delay_ms; };
    EXPECT_EQ(cell.interval(delay).mean, cell.result.avg_delay_ms);
    EXPECT_EQ(format_interval(cell, delay, 1),
              fmt(cell.interval(delay).mean, 1) + "+-" +
                  fmt(cell.interval(delay).half, 1));
    // The bulky per-run parts stay in the folded result only.
    EXPECT_TRUE(cell.trials[0].stats.empty());
    EXPECT_TRUE(cell.trials[0].histograms.empty());
  }
}

// ---------------------------------------------------------------------------
// Trace error paths: file:line diagnostics, never a silent clamp
// ---------------------------------------------------------------------------

/// Writes `content` to a temp trace file and returns the path.
class TraceErrorPaths : public ::testing::Test {
 protected:
  std::string write_trace(const std::string& content) {
    const auto path =
        (std::filesystem::temp_directory_path() /
         ("rica_harness_trace_" + std::to_string(counter_++) + ".trace"))
            .string();
    std::ofstream(path) << content;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& path : paths_) std::remove(path.c_str());
  }

  /// Expects load_trace to throw an invalid_argument whose message carries
  /// the offending `file:line:` location plus `detail`.
  void expect_error(const std::string& content, int line,
                    const std::string& detail) {
    const auto path = write_trace(content);
    try {
      (void)mobility::load_trace(path, mobility::Field{1000.0, 1000.0});
      FAIL() << "expected std::invalid_argument for: " << detail;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
      if (line > 0) {
        EXPECT_NE(msg.find(":" + std::to_string(line) + ":"),
                  std::string::npos)
            << "expected line " << line << " in: " << msg;
      }
      EXPECT_NE(msg.find(detail), std::string::npos) << msg;
    }
  }

 private:
  int counter_ = 0;
  std::vector<std::string> paths_;
};

TEST_F(TraceErrorPaths, BonnMotionMalformedNumber) {
  expect_error("0.0 10.0 10.0 5.0 twenty 10.0\n", 1, "expected a number");
}

TEST_F(TraceErrorPaths, BonnMotionTripleCount) {
  expect_error("0.0 10.0 10.0\n0.0 20.0\n", 2, "triples");
}

TEST_F(TraceErrorPaths, BonnMotionNonMonotonicTimestamps) {
  expect_error("0.0 10.0 10.0 8.0 20.0 20.0 4.0 30.0 30.0\n", 1,
               "non-monotonic timestamp");
}

TEST_F(TraceErrorPaths, BonnMotionEqualTimestampTeleportRejected) {
  expect_error("0.0 10.0 10.0 5.0 20.0 20.0 5.0 90.0 90.0\n", 1,
               "non-monotonic timestamp");
}

TEST_F(TraceErrorPaths, BonnMotionNegativeTimestamp) {
  expect_error("-1.0 10.0 10.0\n", 1, "negative timestamp");
}

TEST_F(TraceErrorPaths, BonnMotionTimestampPastTheTimeRange) {
  // 1e300 s overflows int64 nanoseconds: a located range error, not an
  // undefined cast read back as a "non-monotonic" negative time.
  expect_error("0 10 10 1e300 20 20\n", 1,
               "timestamp 1e+300 s is past the 2^63 ns");
}

TEST_F(TraceErrorPaths, BonnMotionOutOfArenaCoordinate) {
  expect_error("0.0 10.0 10.0 5.0 1200.0 10.0\n", 1, "outside the");
}

TEST_F(TraceErrorPaths, SetdestUnrecognizedLine) {
  expect_error("$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\nwarp 0 99\n", 3,
               "unrecognized line");
}

TEST_F(TraceErrorPaths, SetdestMalformedCommand) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) teleport 5 5 1\"\n",
      3, "setdest");
}

TEST_F(TraceErrorPaths, SetdestBeforeInitialPosition) {
  expect_error("$ns_ at 1.0 \"$node_(0) setdest 5.0 5.0 1.0\"\n", 1,
               "before its initial");
}

TEST_F(TraceErrorPaths, SetdestNonMonotonicCommandTimes) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 9.0 \"$node_(0) setdest 5.0 5.0 1.0\"\n"
      "$ns_ at 3.0 \"$node_(0) setdest 9.0 9.0 1.0\"\n",
      4, "non-monotonic command time");
}

TEST_F(TraceErrorPaths, SetdestNonPositiveSpeed) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) setdest 5.0 5.0 0\"\n",
      3, "speed must be > 0");
}

TEST_F(TraceErrorPaths, SetdestCommandTimePastTheTimeRange) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1e300 \"$node_(0) setdest 5.0 5.0 1.0\"\n",
      3, "command time 1e+300 s is past the 2^63 ns");
}

TEST_F(TraceErrorPaths, SetdestTravelTimePastTheTimeRange) {
  // 4 m at 1e-300 m/s: the leg's travel time is past the time range.
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) setdest 5.0 1.0 1e-300\"\n",
      3, "travel time 4e+300 s is past the 2^63 ns");
}

TEST_F(TraceErrorPaths, SetdestArrivalPastTheTimeRange) {
  // Command and travel times are each in range; their sum, 1.3e10 s, is not.
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 9e9 \"$node_(0) setdest 5.0 1.0 1e-9\"\n",
      3, "arrival time is past the 2^63 ns");
}

TEST_F(TraceErrorPaths, SetdestOutOfArenaDestination) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) setdest 5000.0 5.0 1.0\"\n",
      3, "outside the");
}

TEST_F(TraceErrorPaths, SetdestRepeatedPlacementRejected) {
  // A second `set X_`/`set Y_` would teleport the node around the knot log
  // (and dodge the arena check): strict error, not a silent rewrite.
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$node_(0) set X_ 5000.0\n",
      3, "position set twice");
}

TEST_F(TraceErrorPaths, SetdestNodeIdHole) {
  // Node 1 is placed but node 0 never is: the id space has a hole.
  expect_error("$node_(1) set X_ 1.0\n$node_(1) set Y_ 1.0\n", 0,
               "no initial position");
}

TEST(TraceScenario, MissingFileAndShortTracesFailLoudly) {
  ScenarioConfig cfg;
  cfg.mobility = "trace:file=/nonexistent/rica-no-such.trace";
  cfg.sim_s = 1.0;
  try {
    (void)run_scenario(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open trace file"),
              std::string::npos);
  }

  // A trace with fewer nodes than the scenario population is an error, not
  // a silent reuse of trajectories.
  const auto path = (std::filesystem::temp_directory_path() /
                     "rica_harness_short.trace")
                        .string();
  std::ofstream(path) << "0.0 10.0 10.0\n0.0 20.0 20.0\n";
  cfg.mobility = "trace:file=" + path;
  try {
    (void)run_scenario(cfg);  // paper default: 50 nodes
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace covers 2 node(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(TraceScenario, SpecWithoutFileRejectedEagerly) {
  EXPECT_THROW((void)mobility::parse_mobility_spec("trace"),
               std::invalid_argument);
  EXPECT_THROW((void)mobility::parse_mobility_spec("trace:file="),
               std::invalid_argument);
  EXPECT_THROW((void)mobility::parse_mobility_spec("trace:dt=5"),
               std::invalid_argument);
  // The flags layer validates eagerly too, before any cell runs.
  const auto f = parse({"--mobility", "trace"});
  EXPECT_THROW((void)bench_scale(f, 3, 100.0), std::invalid_argument);
}

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"xxxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
}

// ---------------------------------------------------------------------------
// validate_scenario: one thrown pass for population, time and warmup bounds,
// with messages naming the offending value (run_scenario calls this before
// any construction).
// ---------------------------------------------------------------------------

// Captures the exception message so tests can pin its content.
std::string validation_error(const ScenarioConfig& cfg) {
  try {
    validate_scenario(cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ValidateScenario, DefaultAndPresetConfigsPass) {
  EXPECT_NO_THROW(validate_scenario(ScenarioConfig{}));
  for (const auto& preset : scenario_presets()) {
    EXPECT_NO_THROW(validate_scenario(preset_config(preset.name)));
  }
}

TEST(ValidateScenario, RejectsEmptyAndOversizedPopulations) {
  ScenarioConfig cfg;
  cfg.num_nodes = 0;
  EXPECT_THROW(validate_scenario(cfg), std::invalid_argument);
  cfg.num_nodes = (std::size_t{1} << 24) + 1;
  const auto msg = validation_error(cfg);
  EXPECT_NE(msg.find("16777217"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2^24"), std::string::npos) << msg;
  cfg.num_nodes = std::size_t{1} << 24;  // the limit itself is legal
  EXPECT_NO_THROW(validate_scenario(cfg));
}

TEST(ValidateScenario, RejectsWarmupOutsideTheRun) {
  ScenarioConfig cfg;
  cfg.warmup_s = -1.0;
  EXPECT_THROW(validate_scenario(cfg), std::invalid_argument);
  cfg.warmup_s = cfg.sim_s;
  const auto msg = validation_error(cfg);
  EXPECT_NE(msg.find("measurement window"), std::string::npos) << msg;
}

TEST(ValidateScenario, RejectsTimesOutsideTheNanosecondRange) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        -5.0,
                        -1e-9,
                        1e300,
                        9.3e9};
  const std::pair<const char*, double ScenarioConfig::*> fields[] = {
      {"sim_s", &ScenarioConfig::sim_s},
      {"warmup_s", &ScenarioConfig::warmup_s},
      {"sample_dt_s", &ScenarioConfig::sample_dt_s},
      {"pause_s", &ScenarioConfig::pause_s}};
  for (const auto& [name, field] : fields) {
    for (const double v : bad) {
      ScenarioConfig cfg;
      cfg.*field = v;
      const auto msg = validation_error(cfg);
      EXPECT_NE(msg.find(name), std::string::npos)
          << name << " = " << v << ": " << msg;
    }
  }
  // The range's edges: zero and just under 2^63 ns are legal.
  ScenarioConfig cfg;
  cfg.sample_dt_s = 0.0;
  cfg.sim_s = 9.2e9;
  EXPECT_NO_THROW(validate_scenario(cfg));
}

TEST(ValidateScenario, RejectsOfferedLoadOutsideTheRange) {
  // Each of these hung the run (or silently generated nothing): the mean
  // gap 1/rate is negative, infinite, NaN or below the 1 ns clock tick.
  const std::pair<double, const char*> bad[] = {
      {-5.0, "-5"},
      {0.0, "= 0 "},
      {1e300, "1e+300"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {1.5e9, "1.5e+09"}};
  for (const auto& [rate, shown] : bad) {
    ScenarioConfig cfg;
    cfg.pkts_per_s = rate;
    const auto msg = validation_error(cfg);
    EXPECT_NE(msg.find("pkts_per_s"), std::string::npos)
        << rate << ": " << msg;
    EXPECT_NE(msg.find(shown), std::string::npos) << rate << ": " << msg;
  }
  // The range's edges: 1e9 pkt/s and a slow trickle are legal, for every
  // model (reqresp ignores the rate but obeys the same rule).
  ScenarioConfig cfg;
  cfg.pkts_per_s = 1e9;
  EXPECT_NO_THROW(validate_scenario(cfg));
  cfg.pkts_per_s = 1e-3;
  cfg.traffic = "reqresp";
  EXPECT_NO_THROW(validate_scenario(cfg));
}

TEST(InstallProtocols, LinkStateStartsFromTheAccurateTimeZeroView) {
  // §III-A: every link-state terminal starts with the topology as each
  // terminal senses it at t = 0, its own row included.
  ScenarioConfig scenario;
  scenario.protocol = ProtocolKind::kLinkState;
  scenario.num_nodes = 20;
  net::NetworkConfig cfg;
  cfg.num_nodes = scenario.num_nodes;
  cfg.mobility.field = mobility::Field{600.0, 600.0};
  cfg.mobility.max_speed_mps = 10.0;
  cfg.seed = 3;
  net::Network network(cfg);
  install_protocols(network, scenario);
  std::size_t links = 0;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const auto& proto = static_cast<const routing::LinkStateProtocol&>(
        network.node(id).protocol());
    EXPECT_EQ(proto.own_row(), network.channel().links_of(id, sim::Time{}))
        << "terminal " << id;
    links += proto.own_row().size();
  }
  EXPECT_GT(links, 0u) << "a disconnected layout would make this vacuous";
}

TEST(RicaConfigPlumbing, CheckPeriodAffectsOverhead) {
  ScenarioConfig slow;
  slow.protocol = ProtocolKind::kRica;
  slow.mean_speed_kmh = 36.0;
  slow.sim_s = 30.0;
  slow.rica.check_period = sim::seconds(4);
  ScenarioConfig fast = slow;
  fast.rica.check_period = sim::milliseconds(250);
  const auto rs = run_scenario(slow);
  const auto rf = run_scenario(fast);
  EXPECT_GT(rf.overhead_kbps, rs.overhead_kbps);
}

}  // namespace
}  // namespace rica::harness
