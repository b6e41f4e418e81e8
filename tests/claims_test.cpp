// Paper-claims gate: the orderings the paper's figures 2-6 state, and the
// two RICA mechanisms they rest on, checked on a reduced fixed-seed grid
// with 95% Student-t intervals over trials (the multi-trial comparison
// method of arXiv:1410.4700).
//
// Every claim is "cell A beats cell B on metric M", judged per comparison:
//   * the intervals separate in the claimed direction: the claim holds;
//   * the intervals overlap: a tie, which asserts nothing;
//   * the intervals separate the other way: the claim is contradicted,
//     and the gate fails.
// A pinned comparison must also hold, so a change that turns a clear win
// into a tie fails too.  Only comparisons that separate with room to spare
// are pinned; e.g. RICA vs BGCA delay at 0 km/h, 10 pkt/s is a tie and is
// left unpinned.  Golden hashes prove a run is the same as before; this
// gate checks that a deliberate re-record still says what the paper says.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/sweep.hpp"

namespace rica::harness {
namespace {

using Metric = std::function<double(const ScenarioResult&)>;

constexpr double kStill = 0.0;
constexpr double kMid = 36.0;
constexpr double kFast = 72.0;

/// A RICA cell with one mechanism turned down from its default.
enum class Variant { kDefault, kCheckEvery4s, kNoCsiJitter };
constexpr std::size_t kVariants = 2;

/// The reduced grid: three speeds x both loads x all five protocols, 16
/// trials x 30 s each (6 s warmup, the 20% cap bench_scale applies).  At
/// 8 trials the pinned comparisons separated at seed 1 only; 16 keeps them
/// separated at seeds 1-8, so the gate judges a re-record, not its seed.
/// After the grid come its RICA cell at 72 km/h, 10 pkt/s once per
/// non-default Variant, in enum order, on the same pool.  trial_seed does
/// not hash RicaConfig, so every variant trial replays the mobility,
/// channel and traffic of the grid trial it is compared with.
const std::vector<SweepPoint>& points() {
  static const std::vector<SweepPoint> all = [] {
    BenchScale scale{};
    scale.trials = 16;
    scale.sim_s = 30.0;
    scale.warmup_s = 6.0;
    scale.seed = 1;
    scale.verbose = false;
    auto cells = sweep_cells({kStill, kMid, kFast}, {10.0, 20.0},
                             {scale.mobility}, {scale.traffic}, scale);
    const ScenarioConfig rica = *std::find_if(
        cells.begin(), cells.end(), [](const ScenarioConfig& c) {
          return c.protocol == ProtocolKind::kRica &&
                 c.mean_speed_kmh == kFast && c.pkts_per_s == 10.0;
        });
    cells.push_back(rica);
    cells.back().rica.check_period = sim::seconds(4);
    cells.push_back(rica);
    cells.back().rica.csi_jitter = sim::Time::zero();
    return run_cells(cells, scale.trials, scale.threads);
  }();
  return all;
}

struct Cell {
  ProtocolKind proto;
  double speed;
  double load;
  Variant variant = Variant::kDefault;
};

const SweepPoint& find(const Cell& c) {
  const auto& all = points();
  const std::size_t grid_size = all.size() - kVariants;
  if (c.variant != Variant::kDefault) {
    return all[grid_size - 1 + static_cast<std::size_t>(c.variant)];
  }
  for (std::size_t i = 0; i < grid_size; ++i) {
    const SweepPoint& p = all[i];
    if (p.protocol == c.proto && p.mean_speed_kmh == c.speed &&
        p.pkts_per_s == c.load) {
      return p;
    }
  }
  throw std::logic_error("cell not in the claims grid");
}

std::string describe(const Cell& c) {
  std::ostringstream os;
  os << to_string(c.proto) << "@" << c.speed << "km/h," << c.load << "pkt/s";
  if (c.variant == Variant::kCheckEvery4s) os << ",check=4s";
  if (c.variant == Variant::kNoCsiJitter) os << ",csi_jitter=0";
  return os.str();
}

/// One claimed ordering between two cells.
struct Comparison {
  std::string claim;
  Metric metric;
  bool lower_is_better;
  Cell better;
  Cell worse;
  bool pinned;
};

/// Compares every comparison and reports contradictions and unmet pins.
void judge(const std::vector<Comparison>& comparisons) {
  for (const auto& c : comparisons) {
    const Interval a = find(c.better).interval(c.metric);
    const Interval b = find(c.worse).interval(c.metric);
    const bool holds = c.lower_is_better ? a.below(b) : b.below(a);
    const bool contradicted = c.lower_is_better ? b.below(a) : a.below(b);
    std::ostringstream os;
    os << c.claim << ": " << describe(c.better) << " " << a.mean << "+-"
       << a.half << " vs " << describe(c.worse) << " " << b.mean << "+-"
       << b.half << (holds ? " holds" : contradicted ? " CONTRADICTED" : " tie")
       << (c.pinned ? " (pinned)" : "");
    std::cout << os.str() << '\n';
    EXPECT_FALSE(contradicted) << os.str();
    if (c.pinned) {
      EXPECT_TRUE(holds) << os.str();
    }
  }
}

/// Pinned cells of a protocol comparison, as {other protocol, speed, load}.
using Pins = std::set<std::tuple<ProtocolKind, double, double>>;

/// Every (speed, load) cell of the grid for each of `others`.
Pins every(const std::vector<ProtocolKind>& others,
           const std::vector<double>& speeds) {
  Pins pins;
  for (const auto other : others) {
    for (const double speed : speeds) {
      for (const double load : {10.0, 20.0}) pins.insert({other, speed, load});
    }
  }
  return pins;
}

/// `better` beats each of `others` at every (speed, load) of the grid in
/// `speeds`; the cells in `pins` must separate.
std::vector<Comparison> across_protocols(
    const std::string& claim, const Metric& metric, bool lower_is_better,
    ProtocolKind better, const std::vector<ProtocolKind>& others,
    const std::vector<double>& speeds, const Pins& pins) {
  std::vector<Comparison> out;
  for (const auto other : others) {
    for (const double speed : speeds) {
      for (const double load : {10.0, 20.0}) {
        out.push_back(Comparison{claim, metric, lower_is_better,
                                 Cell{better, speed, load},
                                 Cell{other, speed, load},
                                 pins.count({other, speed, load}) > 0});
      }
    }
  }
  return out;
}

const Metric kDelay = [](const ScenarioResult& r) { return r.avg_delay_ms; };
const Metric kDelivery = [](const ScenarioResult& r) {
  return r.delivery_pct;
};
const Metric kOverhead = [](const ScenarioResult& r) {
  return r.overhead_kbps;
};
const Metric kLinkTput = [](const ScenarioResult& r) {
  return r.avg_link_tput_kbps;
};
/// Aggregate throughput over the measurement window, as packets delivered
/// (every cell of the grid shares one window and packet size).
const Metric kDelivered = [](const ScenarioResult& r) {
  return static_cast<double>(r.delivered);
};

constexpr auto kRica = ProtocolKind::kRica;
constexpr auto kAodv = ProtocolKind::kAodv;
constexpr auto kBgca = ProtocolKind::kBgca;
constexpr auto kAbr = ProtocolKind::kAbr;
constexpr auto kLs = ProtocolKind::kLinkState;

TEST(PaperClaims, Fig2RicaHasTheShortestOnDemandDelay) {
  // Unpinned, because the margin is inside the noise: AODV and BGCA at
  // 0 km/h (a static channel leaves adaptivity little to exploit), and
  // AODV at 72 km/h, 10 pkt/s.
  Pins pins = every({kAbr}, {kStill, kMid, kFast});
  pins.insert({{kAodv, kMid, 10.0},
               {kAodv, kMid, 20.0},
               {kAodv, kFast, 20.0},
               {kBgca, kMid, 10.0},
               {kBgca, kFast, 10.0},
               {kBgca, kFast, 20.0}});
  judge(across_protocols("fig2 delay", kDelay, /*lower_is_better=*/true,
                         kRica, {kAodv, kBgca, kAbr}, {kStill, kMid, kFast},
                         pins));
}

TEST(PaperClaims, Fig3RicaDeliversAtLeastAsMuchAsTheOnDemandProtocols) {
  // The gap opens under load; at 10 pkt/s every protocol delivers ~90%.
  judge(across_protocols("fig3 delivery", kDelivery,
                         /*lower_is_better=*/false, kRica,
                         {kAodv, kBgca, kAbr}, {kStill, kMid, kFast},
                         {{kAodv, kFast, 20.0},
                          {kAbr, kStill, 20.0},
                          {kAbr, kMid, 20.0},
                          {kAbr, kFast, 20.0}}));
}

TEST(PaperClaims, Fig3LinkStateDeliveryFallsUnderMobility) {
  std::vector<Comparison> cs;
  for (const double load : {10.0, 20.0}) {
    // At 20 pkt/s a static link-state network already loses ~15% to
    // congestion, so only the 10 pkt/s fall is pinned.
    cs.push_back(Comparison{"fig3 link-state delivery", kDelivery, false,
                            Cell{kLs, kStill, load}, Cell{kLs, kFast, load},
                            load == 10.0});
  }
  judge(cs);
}

TEST(PaperClaims, Fig4LinkStateOverheadDwarfsTheOthersOnceNodesMove) {
  const std::vector<ProtocolKind> others = {kAodv, kRica, kBgca, kAbr};
  auto cs = across_protocols("fig4 overhead", kOverhead,
                             /*lower_is_better=*/false, kLs, others,
                             {kMid, kFast}, every(others, {kMid, kFast}));
  for (const double load : {10.0, 20.0}) {
    cs.push_back(Comparison{"fig4 link-state overhead", kOverhead, false,
                            Cell{kLs, kFast, load}, Cell{kLs, kStill, load},
                            true});
  }
  judge(cs);
}

TEST(PaperClaims, Fig4RicaPaysForItsCsiChecksInOverhead) {
  judge(across_protocols("fig4 overhead", kOverhead,
                         /*lower_is_better=*/false, kRica, {kAodv},
                         {kStill, kMid, kFast},
                         every({kAodv}, {kStill, kMid, kFast})));
}

TEST(PaperClaims, Fig5ChannelAdaptiveRoutesUseFasterLinks) {
  judge(across_protocols("fig5 link throughput", kLinkTput,
                         /*lower_is_better=*/false, kRica, {kAodv, kAbr},
                         {kFast}, every({kAodv, kAbr}, {kFast})));
}

TEST(PaperClaims, Fig6RicaCarriesTheMostAggregateThroughput) {
  // Fig 6's 36 km/h, 20 pkt/s point, measured after the grid's warmup.
  // BGCA is unpinned: it ties RICA on half of seeds 1-8.
  std::vector<Comparison> cs;
  for (const auto other : {kAodv, kBgca, kAbr, kLs}) {
    cs.push_back(Comparison{"fig6 aggregate throughput", kDelivered, false,
                            Cell{kRica, kMid, 20.0}, Cell{other, kMid, 20.0},
                            other != kBgca});
  }
  judge(cs);
}

TEST(PaperClaims, RicaDeliveryRestsOnTheOneSecondCheckingPeriod) {
  // §II-C: the destination's periodic CSI checks keep the route on good
  // links.  Checking every 4 s instead of the paper's 1 s loses delivery.
  judge({Comparison{"II-C checking period delivery", kDelivery, false,
                    Cell{kRica, kFast, 10.0},
                    Cell{kRica, kFast, 10.0, Variant::kCheckEvery4s}, true}});
}

TEST(PaperClaims, CsiProportionalFloodJitterElectsFasterLinks) {
  // §II-B: deferring each flood copy in proportion to its link's CSI hop
  // distance makes the first copy the CSI-shortest one.  Without the
  // deferral first copies race at uniform speed and routes use slower links.
  judge({Comparison{"II-B flood jitter link throughput", kLinkTput, false,
                    Cell{kRica, kFast, 10.0},
                    Cell{kRica, kFast, 10.0, Variant::kNoCsiJitter}, true}});
}

}  // namespace
}  // namespace rica::harness
