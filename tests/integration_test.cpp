// Full-stack integration: the harness scenarios the paper's figures are
// built from, at reduced scale.  These check cross-module behaviour — that
// each protocol actually moves traffic through the mobile fading network —
// plus the comparative properties the paper's conclusions rest on.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace rica::harness {
namespace {

ScenarioConfig quick(ProtocolKind proto, double speed_kmh, double rate,
                     std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.protocol = proto;
  cfg.mean_speed_kmh = speed_kmh;
  cfg.pkts_per_s = rate;
  cfg.sim_s = 30.0;
  cfg.seed = seed;
  return cfg;
}

TEST(ProtocolNames, RoundTrip) {
  for (const auto kind : kAllProtocols) {
    EXPECT_EQ(protocol_from_string(std::string(to_string(kind))), kind);
  }
  EXPECT_EQ(protocol_from_string("link-state"), ProtocolKind::kLinkState);
  EXPECT_EQ(protocol_from_string("ls"), ProtocolKind::kLinkState);
  EXPECT_THROW((void)protocol_from_string("ospf"), std::invalid_argument);
}

TEST(Integration, EveryProtocolDeliversUnderMobility) {
  for (const auto kind : kAllProtocols) {
    const auto r = run_scenario(quick(kind, 36.0, 10.0));
    EXPECT_GT(r.delivery_pct, 50.0) << to_string(kind);
    EXPECT_GT(r.avg_delay_ms, 0.0) << to_string(kind);
    EXPECT_GE(r.avg_hops, 1.0) << to_string(kind);
  }
}

TEST(Integration, StaticNetworkDeliversAlmostEverything) {
  // At zero mobility with connected pairs, the channel-adaptive protocols
  // and link state are near-lossless (paper Fig. 3 at speed 0).
  for (const auto kind : {ProtocolKind::kRica, ProtocolKind::kBgca,
                          ProtocolKind::kLinkState}) {
    const auto r = run_scenario(quick(kind, 0.0, 10.0));
    EXPECT_GT(r.delivery_pct, 95.0) << to_string(kind);
  }
}

TEST(Integration, LinkStateIsQuietWhenStatic) {
  // A frozen channel generates no LSUs after t=0: link-state overhead at
  // zero mobility must be far below its mobile overhead (paper Fig. 4).
  const auto still = run_scenario(quick(ProtocolKind::kLinkState, 0.0, 10.0));
  const auto moving =
      run_scenario(quick(ProtocolKind::kLinkState, 72.0, 10.0));
  EXPECT_LT(still.overhead_kbps * 5.0, moving.overhead_kbps);
}

TEST(Integration, LinkStateCollapsesUnderMobility) {
  const auto still = run_scenario(quick(ProtocolKind::kLinkState, 0.0, 10.0));
  const auto moving =
      run_scenario(quick(ProtocolKind::kLinkState, 72.0, 10.0));
  EXPECT_GT(still.delivery_pct, moving.delivery_pct + 10.0);
}

TEST(Integration, RicaBeatsAodvOnDelayAndQuality) {
  // The paper's headline: channel adaptivity shortens delay and picks
  // higher-throughput links.  Average over three seeds to kill noise.
  double rica_delay = 0;
  double aodv_delay = 0;
  double rica_tput = 0;
  double aodv_tput = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto cfg = quick(ProtocolKind::kRica, 54.0, 10.0, seed);
    cfg.sim_s = 60.0;  // long enough to get past the cold-start transient
    const auto r = run_scenario(cfg);
    cfg.protocol = ProtocolKind::kAodv;
    const auto a = run_scenario(cfg);
    rica_delay += r.avg_delay_ms;
    aodv_delay += a.avg_delay_ms;
    rica_tput += r.avg_link_tput_kbps;
    aodv_tput += a.avg_link_tput_kbps;
  }
  EXPECT_LT(rica_delay, aodv_delay);
  EXPECT_GT(rica_tput, aodv_tput);
}

TEST(Integration, ChannelAdaptiveProtocolsPickBetterLinks) {
  const auto rica = run_scenario(quick(ProtocolKind::kRica, 72.0, 10.0));
  const auto abr = run_scenario(quick(ProtocolKind::kAbr, 72.0, 10.0));
  EXPECT_GT(rica.avg_link_tput_kbps, abr.avg_link_tput_kbps);
}

TEST(Integration, RicaOverheadExceedsAodv) {
  // The price of the periodic CSI-checking floods (paper Fig. 4).
  const auto rica = run_scenario(quick(ProtocolKind::kRica, 36.0, 10.0));
  const auto aodv = run_scenario(quick(ProtocolKind::kAodv, 36.0, 10.0));
  EXPECT_GT(rica.overhead_kbps, aodv.overhead_kbps);
}

TEST(Integration, LinkStateOverheadDwarfsEverything) {
  const auto ls = run_scenario(quick(ProtocolKind::kLinkState, 36.0, 10.0));
  const auto rica = run_scenario(quick(ProtocolKind::kRica, 36.0, 10.0));
  EXPECT_GT(ls.overhead_kbps, 3.0 * rica.overhead_kbps);
}

TEST(Integration, DeterministicAcrossRuns) {
  const auto a = run_scenario(quick(ProtocolKind::kRica, 36.0, 10.0, 9));
  const auto b = run_scenario(quick(ProtocolKind::kRica, 36.0, 10.0, 9));
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_DOUBLE_EQ(a.overhead_kbps, b.overhead_kbps);
}

TEST(Integration, ThroughputSeriesCoversRun) {
  const auto r = run_scenario(quick(ProtocolKind::kRica, 36.0, 20.0));
  // 30 s in 4 s buckets: at least 7 buckets with data.
  EXPECT_GE(r.tput_kbps_series.size(), 7u);
  double total = 0;
  for (const double kbps : r.tput_kbps_series) total += kbps;
  EXPECT_GT(total, 0.0);
}

TEST(Integration, AverageCombinesTrials) {
  ScenarioResult a;
  a.generated = 100;
  a.delivered = 90;
  a.delivery_pct = 90;
  a.avg_delay_ms = 100;
  a.tput_kbps_series = {10, 20};
  ScenarioResult b;
  b.generated = 100;
  b.delivered = 70;
  b.delivery_pct = 70;
  b.avg_delay_ms = 200;
  b.tput_kbps_series = {30};
  const auto avg = average({a, b});
  EXPECT_EQ(avg.generated, 200u);
  EXPECT_DOUBLE_EQ(avg.delivery_pct, 80.0);
  EXPECT_DOUBLE_EQ(avg.avg_delay_ms, 150.0);
  ASSERT_EQ(avg.tput_kbps_series.size(), 2u);
  EXPECT_DOUBLE_EQ(avg.tput_kbps_series[0], 20.0);
  EXPECT_DOUBLE_EQ(avg.tput_kbps_series[1], 10.0);
}

TEST(Integration, RunTrialsAveragesDistinctSeeds) {
  ScenarioConfig cfg = quick(ProtocolKind::kAodv, 36.0, 10.0);
  cfg.sim_s = 15.0;
  const auto avg = run_trials(cfg, 2);
  const auto one = run_scenario(cfg);
  // Two-trial aggregate counts roughly twice the packets of one run.
  EXPECT_GT(avg.generated, one.generated + one.generated / 2);
}

}  // namespace
}  // namespace rica::harness
