// rica_bench: runs one workload of the repo benchmark and prints one JSON
// line holding its metrics and the outcome of its output checks.
//
//   rica_bench --workload NAME --seed N --seconds S --trace 0|1 [--scale D]
//
// --trace 0 measures the end-to-end metrics: one discarded warm-up run, then
// timed repeats until S seconds are spent (at least three), each metric
// reported as the median with its min, max and sample count.  --trace 1
// measures the per-layer metrics from one separate traced pass.  Every
// layer is measured from outside, by timing calls into the library's public
// functions; no file of the library is instrumented.  --scale divides every
// simulated duration (the smoke run uses 20).
//
// benchmark/run.py builds this program and turns its line into the
// benchmark's result; benchmark/README.md documents the workloads and
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "channel/channel_model.hpp"
#include "core/rica.hpp"
#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mac/common_channel.hpp"
#include "mobility/mobility_model.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/linkstate/linkstate.hpp"
#include "routing/protocol.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "traffic/traffic_model.hpp"

namespace {

using namespace rica;
using harness::ProtocolKind;
using harness::ScenarioConfig;
using harness::ScenarioResult;
using Clock = std::chrono::steady_clock;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr std::string_view kBuildType = "release";
#else
constexpr std::string_view kBuildType = "debug";
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// -- host-speed calibration ----------------------------------------------------
// Shared hosts switch cores between speed states for tens of seconds at a
// time (the same code runs ~25% slower in one), which no median over a
// 20-second run can remove.  So every timed repeat is bracketed by a fixed
// compute kernel that does not touch the library, run on as many threads
// as the workload uses, and the end-to-end times are scaled by
// kReferenceCalibrationS over the kernel's mean time around the repeat:
// they read as seconds on cores that run the kernel in
// kReferenceCalibrationS.  The raw times are reported beside them.

constexpr double kReferenceCalibrationS = 1e-3;

std::atomic<std::uint64_t> calibration_sink{0};

// Sorts 16k keys and scatters them into a 128 KiB table, both
// cache-resident, twice; returns the second pass's time.  The first pass
// refills the caches the workload just used, so the time reads core speed.
double calibration_pass() {
  std::vector<std::uint64_t> keys(1 << 14);
  std::vector<std::uint32_t> table(1 << 15);
  double elapsed = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto t0 = Clock::now();
    std::uint64_t x = 1;
    for (auto& k : keys) {
      x ^= x << 13;  // xorshift64
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    std::sort(keys.begin(), keys.end());
    for (unsigned shift = 0; shift < 8; ++shift) {
      for (const auto k : keys) {
        table[(k >> shift) & (table.size() - 1)] += static_cast<std::uint32_t>(k);
      }
    }
    elapsed = seconds_since(t0);
  }
  calibration_sink.fetch_add(table[keys[0] & (table.size() - 1)],
                             std::memory_order_relaxed);
  return elapsed;
}

// Mean kernel time over `threads` concurrent copies.
double calibration_s(unsigned threads) {
  std::vector<double> elapsed(threads, 0.0);
  std::vector<std::jthread> pool;  // joins on every exit path
  for (unsigned i = 1; i < threads; ++i) {
    pool.emplace_back([&elapsed, i] { elapsed[i] = calibration_pass(); });
  }
  elapsed[0] = calibration_pass();
  for (auto& t : pool) t.join();
  return std::accumulate(elapsed.begin(), elapsed.end(), 0.0) / threads;
}

// Runs `fn` and returns the factor that scales the times taken inside it
// to the reference core: kReferenceCalibrationS over the mean calibration
// time, on `threads` cores, before and after it.
template <typename F>
double host_factor(unsigned threads, F&& fn) {
  const double before = calibration_s(threads);
  fn();
  return kReferenceCalibrationS / (0.5 * (before + calibration_s(threads)));
}

// -- workloads ---------------------------------------------------------------
// Why each workload exists is recorded in BENCHMARK.json and README.md.

// A workload is one cell of `trials` trials seeded as run_trials seeds
// them, or (sweep) the run_speed_sweep grid with `trials` per cell.
struct Workload {
  std::string_view name;
  std::string_view preset;
  double sim_s;
  int trials;
  bool sweep;
  // Single-cell workloads only.
  ProtocolKind protocol = ProtocolKind::kRica;
  double speed_kmh = 0.0;
  double pkts_per_s = 0.0;
};

// Simulated durations are short so that a run's median rests on many
// repeats: the hosts this runs on are noisy, and one long repeat is one
// sample.  Event counts grow linearly with sim time on every workload.
// metro-static-ls runs three layouts, because its work depends on the
// static topology: one layout's event count is up to 7% off another's.
constexpr std::array<Workload, 3> kWorkloads = {{
    {"dense-urban", "dense-urban", 10.0, 1, false, ProtocolKind::kRica, 36.0,
     10.0},
    {"metro-static-ls", "metro", 20.0, 3, false, ProtocolKind::kLinkState,
     0.0, 10.0},
    {"paper-sweep", "paper", 20.0, 1, true},
}};

// paper-sweep: paper_speeds() x these loads x the five protocols.  Cells
// measure from t = 0 (no warmup), so the per-flow conservation check holds
// for every cell.
const std::vector<double> kSweepLoads = {10.0, 20.0};

constexpr std::size_t kMinRepeats = 3;
// Set-up takes milliseconds, so it is sampled on its own for this long, in
// batches of set-ups lasting kSetupBatchSeconds between calibrations.
constexpr double kSetupSeconds = 2.0;
constexpr double kSetupBatchSeconds = 0.02;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
};

Options parse_options(int argc, char** argv) {
  const harness::Flags flags(argc, argv);
  for (const auto& [name, value] : flags.all()) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "scale") {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
  Options opt;
  const std::string name = flags.get("workload", std::string());
  for (const auto& w : kWorkloads) {
    if (w.name == name) opt.workload = &w;
  }
  if (opt.workload == nullptr) {
    throw std::invalid_argument(
        "--workload must be dense-urban, metro-static-ls or paper-sweep");
  }
  opt.seed = flags.get("seed", std::uint64_t{1});
  opt.seconds = flags.get("seconds", 10.0);
  opt.trace = flags.get("trace", 0) != 0;
  opt.scale = flags.get("scale", 1.0);
  if (!(opt.seconds > 0.0) || !(opt.scale >= 1.0)) {
    throw std::invalid_argument("--seconds must be > 0 and --scale >= 1");
  }
  return opt;
}

ScenarioConfig cell_config(const Options& opt) {
  const Workload& w = *opt.workload;
  ScenarioConfig cfg = harness::preset_config(w.preset);
  cfg.protocol = w.protocol;
  cfg.mean_speed_kmh = w.speed_kmh;
  cfg.pkts_per_s = w.pkts_per_s;
  cfg.sim_s = w.sim_s / opt.scale;
  cfg.seed = opt.seed;
  return cfg;
}

harness::BenchScale sweep_scale(const Options& opt) {
  harness::BenchScale s{};
  s.trials = opt.workload->trials;
  s.sim_s = opt.workload->sim_s / opt.scale;
  s.seed = opt.seed;
  s.threads = static_cast<int>(
      std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
  s.preset = std::string(opt.workload->preset);
  s.verbose = false;
  return s;
}

// The configuration run_speed_sweep gives a cell, before trial seeding.
ScenarioConfig cell_config(const harness::BenchScale& s,
                           const harness::SweepPoint& p) {
  ScenarioConfig cfg = harness::preset_config(s.preset);
  cfg.protocol = p.protocol;
  cfg.mobility = p.mobility;
  cfg.traffic = p.traffic;
  cfg.mean_speed_kmh = p.mean_speed_kmh;
  cfg.pkts_per_s = p.pkts_per_s;
  cfg.pause_s = s.pause_s;
  cfg.sim_s = s.sim_s;
  cfg.seed = s.seed;
  return cfg;
}

std::vector<ScenarioConfig> trial_configs(const ScenarioConfig& cell,
                                          int trials) {
  std::vector<ScenarioConfig> out;
  for (int t = 0; t < trials; ++t) {
    out.push_back(cell);
    out.back().seed = harness::trial_seed(cell, t);
  }
  return out;
}

// -- output checks -----------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  // Records one checked run; it failed when `problems` is not empty.
  void record(const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    failures.insert(failures.end(), problems.begin(), problems.end());
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Traffic was generated, and per flow no packet is both delivered and
// dropped, or counted twice.
void check_result(const ScenarioResult& r, const std::string& what,
                  std::vector<std::string>& problems) {
  if (r.generated == 0) problems.push_back(what + ": no packet generated");
  for (const auto& f : r.flow_summaries) {
    if (f.generated < f.delivered + f.dropped) {
      problems.push_back(what + ": flow " + std::to_string(f.flow) +
                         " delivered + dropped exceeds generated");
    }
  }
}

void check_hash(std::uint64_t got, std::uint64_t want, const std::string& what,
                std::vector<std::string>& problems) {
  if (got != want) {
    problems.push_back(what + ": stream hash " + hex(got) + " != " +
                       hex(want));
  }
}

// -- routing layer, timed from outside ----------------------------------------

enum Callback : std::size_t {
  kControl,
  kForward,
  kOriginate,
  kLinkBreak,
  kNumCallbacks
};

struct RoutingTally {
  std::array<std::uint64_t, kNumCallbacks> calls{};
  std::array<double, kNumCallbacks> ns{};
  int depth = 0;  // routing calls in progress (a callback can re-enter)
};

// Counts every call; times only the outermost call of a nest, so time spent
// in a re-entered callback is not counted twice.
class CallScope {
 public:
  CallScope(RoutingTally& tally, Callback kind) : tally_(tally), kind_(kind) {
    ++tally_.calls[kind];
    if (tally_.depth++ == 0) start_ = Clock::now();
  }
  ~CallScope() {
    if (--tally_.depth == 0) {
      tally_.ns[kind_] +=
          std::chrono::duration<double, std::nano>(Clock::now() - start_)
              .count();
    }
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  RoutingTally& tally_;
  Callback kind_;
  Clock::time_point start_{};
};

// Forwards every callback to the real protocol and times it.
class TimedProtocol final : public routing::Protocol {
 public:
  TimedProtocol(routing::ProtocolHost& host,
                std::unique_ptr<routing::Protocol> inner, RoutingTally& tally)
      : Protocol(host), inner_(std::move(inner)), tally_(tally) {}

  void start() override { inner_->start(); }
  void handle_data(net::DataPacket pkt, net::NodeId from) override {
    const CallScope scope(tally_, from == host().id() ? kOriginate : kForward);
    inner_->handle_data(std::move(pkt), from);
  }
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override {
    const CallScope scope(tally_, kControl);
    inner_->on_control(pkt, from);
  }
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override {
    const CallScope scope(tally_, kLinkBreak);
    inner_->on_link_break(neighbor, std::move(stranded));
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] double table_load() const override {
    return inner_->table_load();
  }

 private:
  std::unique_ptr<routing::Protocol> inner_;
  RoutingTally& tally_;
};

// -- replica of harness::run_scenario ----------------------------------------
// The same steps, in the same order, through public calls only, so each
// phase can be timed.  Its stream hashes are checked against the
// harness's (run_trials, run_speed_sweep) for the same trials.
// No workload uses a warmup, observability sink or sharded kernel, so the
// replica has none.

std::unique_ptr<routing::Protocol> make_protocol(net::Node& node,
                                                 const ScenarioConfig& cfg) {
  switch (cfg.protocol) {
    case ProtocolKind::kRica:
      return std::make_unique<core::RicaProtocol>(node, cfg.rica);
    case ProtocolKind::kAodv:
      return std::make_unique<routing::AodvProtocol>(node);
    case ProtocolKind::kBgca: {
      routing::BgcaConfig bgca;
      bgca.flow_rate_bps = cfg.pkts_per_s * cfg.packet_bytes * 8.0;
      return std::make_unique<routing::BgcaProtocol>(node, bgca);
    }
    case ProtocolKind::kAbr:
      return std::make_unique<routing::AbrProtocol>(node);
    case ProtocolKind::kLinkState: {
      routing::LinkStateConfig ls;
      ls.num_nodes = cfg.num_nodes;
      return std::make_unique<routing::LinkStateProtocol>(node, ls);
    }
  }
  throw std::logic_error("unknown protocol");
}

// The accurate t = 0 topology every link-state terminal starts from.
routing::LinkStateProtocol::Topology snapshot_topology(net::Network& network) {
  routing::LinkStateProtocol::Topology topo(network.size());
  for (std::uint32_t a = 0; a < network.size(); ++a) {
    for (std::uint32_t b = 0; b < network.size(); ++b) {
      if (a == b) continue;
      if (const auto s = network.channel().sample(a, b, sim::Time::zero())) {
        topo[a].emplace_back(b, s->csi);
      }
    }
    std::sort(topo[a].begin(), topo[a].end());
  }
  return topo;
}

void install_protocols(net::Network& network, const ScenarioConfig& cfg,
                       RoutingTally* tally) {
  std::vector<routing::LinkStateProtocol*> link_state;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    net::Node& node = network.node(id);
    auto protocol = make_protocol(node, cfg);
    if (cfg.protocol == ProtocolKind::kLinkState) {
      link_state.push_back(
          static_cast<routing::LinkStateProtocol*>(protocol.get()));
    }
    if (tally != nullptr) {
      protocol =
          std::make_unique<TimedProtocol>(node, std::move(protocol), *tally);
    }
    node.set_protocol(std::move(protocol));
  }
  if (!link_state.empty()) {
    const auto topo = snapshot_topology(network);
    for (auto* protocol : link_state) protocol->install_topology(topo);
  }
}

// Flows whose endpoints are connected at t = 0, drawn as the harness does.
std::vector<traffic::Flow> connected_flows(net::Network& network,
                                           const ScenarioConfig& cfg,
                                           const traffic::TrafficConfig& tcfg) {
  const auto n = static_cast<std::uint32_t>(network.size());
  std::vector<std::uint32_t> comp(n, n);
  std::uint32_t next_comp = 0;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (comp[start] != n) continue;
    comp[start] = next_comp;
    stack.push_back(start);
    while (!stack.empty()) {
      const auto u = stack.back();
      stack.pop_back();
      for (const auto v :
           network.channel().neighbors_of(u, sim::Time::zero())) {
        if (comp[v] == n) {
          comp[v] = next_comp;
          stack.push_back(v);
        }
      }
    }
    ++next_comp;
  }
  auto flow_rng = network.rng().stream("flows");
  std::vector<traffic::Flow> flows;
  for (int attempt = 0; attempt < 64; ++attempt) {
    flows = traffic::make_flows(tcfg, cfg.num_pairs, cfg.num_nodes,
                                cfg.pkts_per_s, flow_rng);
    if (std::all_of(flows.begin(), flows.end(),
                    [&comp](const traffic::Flow& f) {
                      return comp[f.src] == comp[f.dst];
                    })) {
      break;
    }
  }
  return flows;
}

// Wall time of each phase of one scenario run, seconds.
struct Phases {
  double build = 0.0;     // net::Network construction
  double install = 0.0;   // Node::set_protocol on every node, LS topology
  double flows = 0.0;     // flow draw and make_traffic_model
  double start = 0.0;     // Network::start and the generator's start
  double run = 0.0;       // Simulator::run_until
  double finalize = 0.0;  // MetricsCollector::finalize, Registry snapshots

  [[nodiscard]] double setup() const { return build + install + flows + start; }
  void add(const Phases& o, double factor) {
    build += o.build * factor;
    install += o.install * factor;
    flows += o.flows * factor;
    start += o.start * factor;
    run += o.run * factor;
    finalize += o.finalize * factor;
  }
};

// What a traced run records beyond the result.
struct LayerTrace {
  RoutingTally routing;
  std::vector<double> slice_ms;  // wall time per simulated second
  double table_load = 0.0;       // routing tables only
  std::uint64_t live_pairs = 0;

  // Adds one run's trace, its times scaled by `factor` (see host_factor).
  void add(const LayerTrace& run, double factor) {
    for (std::size_t c = 0; c < kNumCallbacks; ++c) {
      routing.calls[c] += run.routing.calls[c];
      routing.ns[c] += run.routing.ns[c] * factor;
    }
    for (const double ms : run.slice_ms) slice_ms.push_back(ms * factor);
    table_load = std::max(table_load, run.table_load);
    live_pairs += run.live_pairs;
  }
};

struct Run {
  ScenarioResult result;
  Phases t;
  double wall = 0.0;  // the whole call, teardown included
};

// One scenario.  With `trace` the routing calls are timed and the run
// advances one simulated second at a time; `setup_only` stops before the
// first event.
Run run_replica(const ScenarioConfig& cfg, LayerTrace* trace,
                bool setup_only = false) {
  const auto begin = Clock::now();
  Run out;
  {
    harness::validate_scenario(cfg);
    const auto tcfg = traffic::parse_traffic_spec(cfg.traffic);
    auto t0 = Clock::now();
    const auto lap = [&t0](double& phase) {
      const auto now = Clock::now();
      phase = std::chrono::duration<double>(now - t0).count();
      t0 = now;
    };
    net::NetworkConfig ncfg;
    ncfg.num_nodes = cfg.num_nodes;
    ncfg.mobility = harness::scenario_mobility_config(cfg);
    ncfg.channel.range_m = cfg.radio_range_m;
    ncfg.seed = cfg.seed;
    net::Network network(ncfg);
    lap(out.t.build);

    install_protocols(network, cfg,
                      trace != nullptr ? &trace->routing : nullptr);
    lap(out.t.install);

    const sim::Time end = sim::seconds_f(cfg.sim_s);
    auto flows = connected_flows(network, cfg, tcfg);
    const auto generator = traffic::make_traffic_model(
        tcfg, network, std::move(flows), cfg.packet_bytes, end,
        network.rng().stream("traffic"));
    lap(out.t.flows);

    network.start();
    generator->start();
    lap(out.t.start);
    if (setup_only) return out;

    if (trace == nullptr) {
      network.simulator().run_until(end);
    } else {
      for (sim::Time upto = sim::seconds(1); ; upto += sim::seconds(1)) {
        const sim::Time slice_end = std::min(upto, end);
        const auto s0 = Clock::now();
        network.simulator().run_until(slice_end);
        trace->slice_ms.push_back(1e3 * seconds_since(s0));
        if (slice_end == end) break;
      }
    }
    lap(out.t.run);

    out.result = network.metrics().finalize(end);
    for (auto& s : network.registry().snapshot()) {
      out.result.stats.emplace(s.name, std::move(s));
    }
    for (const auto& [name, h] : network.registry().histogram_snapshot()) {
      out.result.histograms.insert_or_assign(name, h);
    }
    lap(out.t.finalize);

    if (trace != nullptr) {
      trace->live_pairs += network.channel().live_pairs();
      for (net::NodeId id = 0; id < network.size(); ++id) {
        trace->table_load = std::max(
            trace->table_load, network.node(id).protocol().table_load());
      }
    }
  }
  out.wall = seconds_since(begin);
  return out;
}

// -- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;  // samples behind a median
  double min = 0.0;
  double max = 0.0;
};

Metric summarize(std::string name, const std::vector<double>& xs,
                 std::string unit) {
  return Metric{std::move(name), median(xs), std::move(unit), xs.size(),
                *std::min_element(xs.begin(), xs.end()),
                *std::max_element(xs.begin(), xs.end())};
}

Metric reading(std::string name, double value, std::string unit) {
  return Metric{std::move(name), value, std::move(unit), 1, value, value};
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double stat(const ScenarioResult& r, const std::string& name) {
  const auto it = r.stats.find(name);
  return it == r.stats.end() ? 0.0 : it->second.value;
}

// Repeats `one` until `seconds` are spent, at least kMinRepeats times; a
// repeat that would overrun the budget by its own last length is skipped.
// Returns each repeat's host_factor on `threads` cores.
template <typename F>
std::vector<double> repeat_for(double seconds, unsigned threads, F&& one) {
  std::vector<double> factors;
  const auto t0 = Clock::now();
  double last = 0.0;
  for (std::size_t n = 0; n < kMinRepeats || seconds_since(t0) + last <= seconds;
       ++n) {
    const auto t = Clock::now();
    factors.push_back(host_factor(threads, [&] { one(n); }));
    last = seconds_since(t);
  }
  return factors;
}

// Timings taken inside repeat_for, each tagged with its repeat.
struct Timings {
  std::vector<std::size_t> repeat;
  std::vector<double> raw;

  void add(std::size_t n, double seconds) {
    repeat.push_back(n);
    raw.push_back(seconds);
  }
  [[nodiscard]] std::vector<double> scaled(
      const std::vector<double>& factors) const {
    std::vector<double> out(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      out[i] = raw[i] * factors[repeat[i]];
    }
    return out;
  }
};

// The end-to-end metrics from a run's timings, raw ones for reference.
std::vector<Metric> e2e_metrics(const Timings& wall,
                                const std::vector<double>& wall_factors,
                                const Timings& setup,
                                const std::vector<double>& setup_factors) {
  return {summarize("wall_s", wall.scaled(wall_factors), "s"),
          summarize("setup_s", setup.scaled(setup_factors), "s"),
          reading("peak_rss_mb", peak_rss_mb(), "MB"),
          summarize("raw_wall_s", wall.raw, "s"),
          summarize("raw_setup_s", setup.raw, "s"),
          summarize("host_factor", wall_factors, "ratio")};
}

// -- end-to-end ----------------------------------------------------------------

// A cell's trials through the replica, folded as run_trials folds them.
ScenarioResult replica_trials(const ScenarioConfig& cell, int trials) {
  std::vector<ScenarioResult> results;
  for (const auto& cfg : trial_configs(cell, trials)) {
    results.push_back(run_replica(cfg, nullptr).result);
  }
  return harness::average(results);
}

// Samples the set-up of `configs` (each built, then dropped before its
// first event) for kSetupSeconds into `setup`; returns the host factors of
// its batches.
std::vector<double> sample_setup(const std::vector<ScenarioConfig>& configs,
                                 Timings& setup) {
  return repeat_for(kSetupSeconds, 1, [&](std::size_t n) {
    const auto t0 = Clock::now();
    do {
      double sum = 0.0;
      for (const auto& cfg : configs) {
        sum += run_replica(cfg, nullptr, true).t.setup();
      }
      setup.add(n, sum);
    } while (seconds_since(t0) < kSetupBatchSeconds);
  });
}

std::vector<Metric> single_e2e(const Options& opt, Checks& checks) {
  const ScenarioConfig cell = cell_config(opt);
  const int trials = opt.workload->trials;
  // Warm-up, discarded: also the reference the replica must reproduce.
  const ScenarioResult ref = harness::run_trials(cell, trials);
  std::vector<std::string> problems;
  check_result(ref, "run_trials", problems);
  checks.record(problems);

  Timings wall;
  const auto wall_factors = repeat_for(opt.seconds, 1, [&](std::size_t n) {
    const auto t0 = Clock::now();
    const ScenarioResult r = replica_trials(cell, trials);
    wall.add(n, seconds_since(t0));
    std::vector<std::string> p;
    const std::string what = "repeat " + std::to_string(n);
    check_result(r, what, p);
    check_hash(r.stream_hash, ref.stream_hash, what, p);
    checks.record(p);
  });
  Timings setup;
  const auto setup_factors = sample_setup(trial_configs(cell, trials), setup);
  return e2e_metrics(wall, wall_factors, setup, setup_factors);
}

void check_grid(const std::vector<harness::SweepPoint>& grid,
                const std::vector<harness::SweepPoint>& ref,
                const std::string& what, std::vector<std::string>& problems) {
  if (grid.size() != ref.size()) {
    problems.push_back(what + ": grid size differs");
    return;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string cell = what + " cell " + std::to_string(i);
    check_result(grid[i].result, cell, problems);
    check_hash(grid[i].result.stream_hash, ref[i].result.stream_hash, cell,
               problems);
  }
}

std::vector<Metric> sweep_e2e(const Options& opt, Checks& checks) {
  const harness::BenchScale scale = sweep_scale(opt);
  const auto speeds = harness::paper_speeds();
  const auto ref = harness::run_speed_sweep(speeds, kSweepLoads, scale);
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    check_result(ref[i].result, "warm-up cell " + std::to_string(i), problems);
  }
  checks.record(problems);

  Timings wall;
  const auto workers = static_cast<unsigned>(scale.threads);
  const auto wall_factors = repeat_for(opt.seconds, workers, [&](std::size_t n) {
    const auto t0 = Clock::now();
    const auto grid = harness::run_speed_sweep(speeds, kSweepLoads, scale);
    wall.add(n, seconds_since(t0));
    std::vector<std::string> p;
    check_grid(grid, ref, "repeat " + std::to_string(n), p);
    checks.record(p);
  });
  // The sweep's set-up: every trial of every cell, in grid order.
  std::vector<ScenarioConfig> configs;
  for (const auto& p : ref) {
    for (auto& cfg : trial_configs(cell_config(scale, p), scale.trials)) {
      configs.push_back(std::move(cfg));
    }
  }
  Timings setup;
  const auto setup_factors = sample_setup(configs, setup);
  return e2e_metrics(wall, wall_factors, setup, setup_factors);
}

// -- probes --------------------------------------------------------------------
// Each drives one layer alone at the workload's operating point.

// Kernel cost per event at the workload's queue depth: `pending` timers,
// each re-arming itself after an exponential gap of the workload's mean.
double probe_ns_per_event(std::size_t pending, double mean_gap_s,
                          std::uint64_t seed) {
  if (pending == 0 || !(mean_gap_s > 0.0)) return 0.0;
  constexpr double kTargetEvents = 2e6;
  sim::Simulator sim;
  sim::RandomStream rng = sim::RngManager(seed).stream("bench.sim");
  struct Rearm {
    sim::Simulator* sim;
    sim::RandomStream* rng;
    double mean_ns;
    void operator()() const {
      sim->after(sim::Time{static_cast<std::int64_t>(rng->exponential(mean_ns))},
                 *this);
    }
  };
  const Rearm rearm{&sim, &rng, mean_gap_s * 1e9};
  for (std::size_t i = 0; i < pending; ++i) rearm();
  const double span_s =
      kTargetEvents * mean_gap_s / static_cast<double>(pending);
  const auto t0 = Clock::now();
  sim.run_until(sim::seconds_f(span_s));
  return ratio(seconds_since(t0) * 1e9,
               static_cast<double>(sim.events_executed()));
}

// CSMA MAC cost per control transmission: a MAC-only stack (Simulator,
// mobility, ChannelModel, CommonChannelMac) at the workload's population,
// field and speed, every node broadcasting RREQ frames as a Poisson stream
// at the workload's measured per-node control rate.
double probe_ns_per_tx(const ScenarioConfig& cfg, double per_node_rate) {
  if (!(per_node_rate > 0.0)) return 0.0;
  constexpr double kTargetTx = 40000.0;
  sim::Simulator sim;
  const sim::RngManager rng(cfg.seed);
  mobility::MobilityManager mobility(
      cfg.num_nodes, harness::scenario_mobility_config(cfg), rng);
  channel::ChannelConfig ccfg;
  ccfg.range_m = cfg.radio_range_m;
  channel::ChannelModel channel(ccfg, mobility, rng);
  stats::MetricsCollector metrics;
  mac::CommonChannelMac mac(sim, channel, rng, metrics, {});
  for (net::NodeId id = 0; id < cfg.num_nodes; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  sim::RandomStream arrivals = rng.stream("bench.mac");
  struct Arrival {
    sim::Simulator* sim;
    mac::CommonChannelMac* mac;
    sim::RandomStream* rng;
    double mean_gap_ns;
    net::NodeId id;
    void operator()() const {
      mac->send(id, net::make_control(net::kBroadcastId,
                                      net::RreqMsg{id, id, 0, 0.0, 0}));
      arm();
    }
    void arm() const {
      sim->after(
          sim::Time{static_cast<std::int64_t>(rng->exponential(mean_gap_ns))},
          *this);
    }
  };
  for (net::NodeId id = 0; id < cfg.num_nodes; ++id) {
    Arrival{&sim, &mac, &arrivals, 1e9 / per_node_rate, id}.arm();
  }
  const sim::Time span = sim::seconds_f(
      kTargetTx / (per_node_rate * static_cast<double>(cfg.num_nodes)));
  const auto t0 = Clock::now();
  sim.run_until(span);
  const double wall = seconds_since(t0);
  return ratio(wall * 1e9, static_cast<double>(
                               metrics.finalize(span).control_transmissions));
}

struct ChannelProbe {
  double sample_ns = 0.0;
  double neighbors_ns = 0.0;
  double snapshot_ns = 0.0;
};

// ChannelModel::neighbors_of over every node and ChannelModel::sample over
// every in-range pair, and MobilityManager::snapshot, with time advancing
// 10 ms per round.
ChannelProbe probe_channel(const ScenarioConfig& cfg) {
  constexpr double kBudgetS = 0.15;
  const sim::RngManager rng(cfg.seed);
  const auto mcfg = harness::scenario_mobility_config(cfg);
  mobility::MobilityManager mobility(cfg.num_nodes, mcfg, rng);
  channel::ChannelConfig ccfg;
  ccfg.range_m = cfg.radio_range_m;
  channel::ChannelModel channel(ccfg, mobility, rng);
  const auto n = static_cast<std::uint32_t>(cfg.num_nodes);

  ChannelProbe out;
  double nbr_s = 0.0;
  double sample_s = 0.0;
  double nbr_calls = 0.0;
  double sample_calls = 0.0;
  std::vector<std::uint32_t> nbrs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (int round = 0; nbr_s + sample_s < kBudgetS; ++round) {
    const sim::Time t = sim::milliseconds(10) * round;
    pairs.clear();
    auto t0 = Clock::now();
    for (std::uint32_t a = 0; a < n; ++a) {
      channel.neighbors_of(a, t, nbrs);
      for (const auto b : nbrs) {
        if (a < b) pairs.emplace_back(a, b);
      }
    }
    nbr_s += seconds_since(t0);
    nbr_calls += n;
    t0 = Clock::now();
    for (const auto& [a, b] : pairs) (void)channel.sample(a, b, t);
    sample_s += seconds_since(t0);
    sample_calls += static_cast<double>(pairs.size());
  }
  out.neighbors_ns = ratio(nbr_s * 1e9, nbr_calls);
  out.sample_ns = ratio(sample_s * 1e9, sample_calls);

  mobility::MobilityManager fresh(cfg.num_nodes, mcfg, rng);
  std::vector<mobility::Vec2> positions;
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kBudgetS / 2) {
    fresh.snapshot(sim::milliseconds(10) * static_cast<std::int64_t>(calls),
                   positions);
    ++calls;
  }
  out.snapshot_ns = ratio(seconds_since(t0) * 1e9, static_cast<double>(calls));
  return out;
}

// -- per-layer -----------------------------------------------------------------

// Sums (counters) and maxima (gauges) over the runs of a traced pass.
struct LayerTotals {
  double sim_s = 0.0;
  double events = 0.0;
  double batched = 0.0;
  double heap_fallbacks = 0.0;
  double peak_pending = 0.0;
  double slab_high_water = 0.0;
  double control_tx = 0.0;
  double collided_rx = 0.0;
  double control_bytes = 0.0;
  double tx_attempts = 0.0;
  double delivered_hops = 0.0;
  double generated = 0.0;
  double delivered = 0.0;
  std::array<double, stats::kNumDropReasons> drops{};
  double data_header_bytes = 0.0;
  double pool_high_water = 0.0;
  Phases t;
  double wall = 0.0;

  // Adds one run; its times are scaled by `factor` (see host_factor).
  void add(const Run& run, double run_sim_s, double factor) {
    const ScenarioResult& r = run.result;
    sim_s += run_sim_s;
    events += stat(r, "kernel.events_executed");
    batched += stat(r, "kernel.batched_fires");
    heap_fallbacks += stat(r, "kernel.heap_fallbacks");
    peak_pending = std::max(peak_pending, stat(r, "kernel.peak_pending"));
    slab_high_water =
        std::max(slab_high_water, stat(r, "kernel.slab_high_water"));
    control_tx += static_cast<double>(r.control_transmissions);
    collided_rx += static_cast<double>(r.control_collisions);
    control_bytes += stat(r, "net.control_bytes_on_air");
    const auto airtime = r.histograms.find("airtime_ns");
    if (airtime != r.histograms.end()) {
      tx_attempts += static_cast<double>(airtime->second.count());
    }
    delivered_hops += static_cast<double>(r.delivered) * r.avg_hops;
    generated += static_cast<double>(r.generated);
    delivered += static_cast<double>(r.delivered);
    for (std::size_t i = 0; i < drops.size(); ++i) {
      drops[i] += static_cast<double>(r.drops[i]);
    }
    data_header_bytes += stat(r, "net.data_header_bytes");
    pool_high_water =
        std::max(pool_high_water, stat(r, "stack.pool_high_water"));
    t.add(run.t, factor);
    wall += run.wall * factor;
  }
};

// Longest-cell-first schedule of the measured cell costs on `workers`.
double ideal_makespan(std::vector<double> costs, std::size_t workers) {
  std::sort(costs.begin(), costs.end(), std::greater<>());
  std::vector<double> load(std::max<std::size_t>(workers, 1), 0.0);
  for (const double c : costs) *std::min_element(load.begin(), load.end()) += c;
  return *std::max_element(load.begin(), load.end());
}

struct TracedPass {
  std::vector<double> cell_s;  // each cell, timed serially via the harness
  std::size_t workers = 1;
  double wall = 0.0;           // median untraced wall of the workload
  double serial_wall = 0.0;    // untraced, serial: what the traced pass redoes
  LayerTotals totals;
  LayerTrace trace;
  ScenarioConfig probe_site;   // population the layer probes reproduce
};

std::vector<Metric> layer_metrics(const TracedPass& p) {
  const LayerTotals& x = p.totals;
  const LayerTrace& tr = p.trace;
  const RoutingTally& rt = tr.routing;
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back(reading(std::move(name), value, std::move(unit)));
  };
  const auto scaled_probe = [](const auto& probe) {
    double ns = 0.0;
    return host_factor(1, [&] { ns = probe(); }) * ns;
  };

  const double cell_sum =
      std::accumulate(p.cell_s.begin(), p.cell_s.end(), 0.0);
  const double makespan = ideal_makespan(p.cell_s, p.workers);
  add("harness.cells", static_cast<double>(p.cell_s.size()), "count");
  add("harness.cell_s.p50", median(p.cell_s), "s");
  add("harness.cell_s.max",
      *std::max_element(p.cell_s.begin(), p.cell_s.end()), "s");
  add("harness.ideal_makespan_s", makespan, "s");
  add("harness.dispatch_eff", ratio(makespan, p.wall), "ratio");
  add("harness.speedup", ratio(cell_sum, p.wall), "ratio");

  add("net.build_s", x.t.build, "s");
  add("routing.install_s", x.t.install, "s");
  add("traffic.flows_s", x.t.flows, "s");
  add("net.start_s", x.t.start, "s");

  std::vector<double> slices = tr.slice_ms;
  add("sim.events", x.events, "count");
  add("sim.peak_pending", x.peak_pending, "count");
  add("sim.slab_high_water", x.slab_high_water, "count");
  add("sim.heap_fallbacks", x.heap_fallbacks, "count");
  add("sim.events_per_s", ratio(x.events, x.t.run), "1/s");
  add("sim.batched_frac", ratio(x.batched, x.events), "ratio");
  add("sim.slice_ms.p50", median(slices), "ms");
  add("sim.slice_ms.max",
      slices.empty() ? 0.0 : *std::max_element(slices.begin(), slices.end()),
      "ms");
  // Each pending timer re-arms after peak_pending inter-event gaps.
  const double mean_gap_s = ratio(x.peak_pending * x.sim_s, x.events);
  add("sim.probe_ns_per_event", scaled_probe([&] {
        return probe_ns_per_event(static_cast<std::size_t>(x.peak_pending),
                                  mean_gap_s, p.probe_site.seed);
      }),
      "ns");

  // Receptions that reached a protocol are the on_control calls.
  const double received = static_cast<double>(rt.calls[kControl]);
  const double per_node_rate =
      ratio(x.control_tx,
            static_cast<double>(p.probe_site.num_nodes) * x.sim_s);
  const double ns_per_tx = scaled_probe(
      [&] { return probe_ns_per_tx(p.probe_site, per_node_rate); });
  add("mac.control_tx", x.control_tx, "count");
  add("mac.collided_rx", x.collided_rx, "count");
  add("mac.control_bytes", x.control_bytes, "B");
  add("mac.collided_frac", ratio(x.collided_rx, x.collided_rx + received),
      "ratio");
  add("mac.probe_ns_per_tx", ns_per_tx, "ns");
  add("mac.est_share", ratio(ns_per_tx * 1e-9 * x.control_tx, x.t.run),
      "ratio");

  ChannelProbe ch;
  const double ch_factor =
      host_factor(1, [&] { ch = probe_channel(p.probe_site); });
  add("channel.live_pairs", static_cast<double>(tr.live_pairs), "count");
  add("channel.probe_sample_ns", ch.sample_ns * ch_factor, "ns");
  add("channel.probe_neighbors_ns", ch.neighbors_ns * ch_factor, "ns");
  add("mobility.probe_snapshot_ns", ch.snapshot_ns * ch_factor, "ns");

  add("link.tx_attempts", x.tx_attempts, "count");
  add("link.useful_frac", ratio(x.delivered_hops, x.tx_attempts), "ratio");
  add("net.generated", x.generated, "count");
  add("net.delivered", x.delivered, "count");
  add("net.delivery_pct", 100.0 * ratio(x.delivered, x.generated), "%");
  for (std::size_t i = 0; i < x.drops.size(); ++i) {
    add("net.drops." +
            std::string(stats::to_string(static_cast<stats::DropReason>(i))),
        x.drops[i], "count");
  }
  add("net.data_header_bytes", x.data_header_bytes, "B");
  add("net.pool_high_water", x.pool_high_water, "count");

  const auto per_call = [&rt](Callback c) {
    return ratio(rt.ns[c], static_cast<double>(rt.calls[c]));
  };
  add("routing.control.calls", static_cast<double>(rt.calls[kControl]),
      "count");
  add("routing.control.ns", per_call(kControl), "ns");
  add("routing.forward.calls", static_cast<double>(rt.calls[kForward]),
      "count");
  add("routing.forward.ns", per_call(kForward), "ns");
  add("routing.originate.calls", static_cast<double>(rt.calls[kOriginate]),
      "count");
  add("routing.originate.ns", per_call(kOriginate), "ns");
  add("routing.link_break.calls", static_cast<double>(rt.calls[kLinkBreak]),
      "count");
  const double routing_ns = std::accumulate(rt.ns.begin(), rt.ns.end(), 0.0);
  add("routing.share", ratio(routing_ns * 1e-9, x.wall), "ratio");
  add("routing.table_load", tr.table_load, "ratio");

  add("stats.finalize_s", x.t.finalize, "s");
  add("trace.overhead_pct", 100.0 * (ratio(x.wall, p.serial_wall) - 1.0), "%");
  return m;
}

// One cell in the traced run: serially through run_trials (its cost, and
// its hash against `want`), then every trial through the traced replica.
// The two run back to back, so the tracing overhead compares like with like.
void trace_cell(const ScenarioConfig& cell, int trials, std::uint64_t want,
                const std::string& what, TracedPass& pass,
                std::vector<std::string>& problems) {
  ScenarioResult serial;
  double cell_s = 0.0;
  const double f = host_factor(1, [&] {
    const auto t0 = Clock::now();
    serial = harness::run_trials(cell, trials);
    cell_s = seconds_since(t0);
  });
  pass.cell_s.push_back(cell_s * f);
  pass.serial_wall += cell_s * f;
  check_result(serial, what + " serial", problems);
  check_hash(serial.stream_hash, want, what + " serial", problems);

  std::vector<ScenarioResult> results;
  for (const auto& cfg : trial_configs(cell, trials)) {
    Run run;
    LayerTrace trace;
    const double tf = host_factor(1, [&] { run = run_replica(cfg, &trace); });
    pass.totals.add(run, cfg.sim_s, tf);
    pass.trace.add(trace, tf);
    results.push_back(std::move(run.result));
  }
  check_hash(harness::average(results).stream_hash, want, what + " traced",
             problems);
}

std::vector<Metric> single_layers(const Options& opt, Checks& checks) {
  const ScenarioConfig cell = cell_config(opt);
  const int trials = opt.workload->trials;
  TracedPass pass;
  pass.probe_site = cell;
  // Untraced: a warm-up that is also the reference, then the median wall.
  const ScenarioResult ref = harness::run_trials(cell, trials);
  std::vector<std::string> problems;
  std::vector<double> untraced;
  for (std::size_t n = 0; n < kMinRepeats; ++n) {
    ScenarioResult r;
    double wall = 0.0;
    const double f = host_factor(1, [&] {
      const auto t0 = Clock::now();
      r = replica_trials(cell, trials);
      wall = seconds_since(t0);
    });
    untraced.push_back(wall * f);
    check_hash(r.stream_hash, ref.stream_hash,
               "untraced " + std::to_string(n), problems);
  }
  pass.wall = median(untraced);
  trace_cell(cell, trials, ref.stream_hash, "cell", pass, problems);
  checks.record(problems);
  return layer_metrics(pass);
}

std::vector<Metric> sweep_layers(const Options& opt, Checks& checks) {
  const harness::BenchScale scale = sweep_scale(opt);
  const auto speeds = harness::paper_speeds();
  TracedPass pass;
  pass.workers = static_cast<std::size_t>(scale.threads);
  // Untraced, parallel: a warm-up, then the median wall the harness is
  // judged by.
  const auto ref = harness::run_speed_sweep(speeds, kSweepLoads, scale);
  std::vector<std::string> problems;
  // Scaled by one core's speed, like the serial cells below, so that the
  // workers' contention with each other stays in the harness ratios.
  std::vector<double> parallel;
  for (std::size_t n = 0; n < kMinRepeats; ++n) {
    std::vector<harness::SweepPoint> grid;
    double wall = 0.0;
    const double f = host_factor(1, [&] {
      const auto t0 = Clock::now();
      grid = harness::run_speed_sweep(speeds, kSweepLoads, scale);
      wall = seconds_since(t0);
    });
    parallel.push_back(wall * f);
    check_grid(grid, ref, "parallel " + std::to_string(n), problems);
  }
  pass.wall = median(parallel);

  // Every cell serially and traced; parallel == serial == traced.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    trace_cell(cell_config(scale, ref[i]), scale.trials,
               ref[i].result.stream_hash, "cell " + std::to_string(i), pass,
               problems);
  }
  checks.record(problems);

  // Layer probes at the grid's middle speed.
  pass.probe_site = harness::preset_config(scale.preset);
  pass.probe_site.mean_speed_kmh = speeds[speeds.size() / 2];
  pass.probe_site.seed = opt.seed;
  return layer_metrics(pass);
}

// -- output --------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void print_result(const Options& opt, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"workload\":" + json_string(opt.workload->name) +
                  ",\"seed\":" + std::to_string(opt.seed) +
                  ",\"trace\":" + (opt.trace ? "1" : "0") +
                  ",\"build_type\":" + json_string(kBuildType) +
                  ",\"correct\":" + (checks.failed == 0 ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(checks.attempted) +
                  ",\"failed\":" + std::to_string(checks.failed) +
                  ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    s += (i ? "," : "") + json_string(checks.failures[i]);
  }
  s += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i ? "," : "") + json_string(m.name) +
         ":{\"value\":" + json_number(m.value) +
         ",\"unit\":" + json_string(m.unit) +
         ",\"n\":" + std::to_string(m.n) + ",\"min\":" + json_number(m.min) +
         ",\"max\":" + json_number(m.max) + "}";
  }
  s += "}}\n";
  std::fputs(s.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    if (kBuildType != "release") {
      std::fprintf(stderr,
                   "error: rica_bench is not a Release build; its timings "
                   "would be meaningless\n");
      return 2;
    }
    Checks checks;
    std::vector<Metric> metrics;
    if (opt.trace) {
      metrics = opt.workload->sweep ? sweep_layers(opt, checks)
                                    : single_layers(opt, checks);
    } else {
      metrics = opt.workload->sweep ? sweep_e2e(opt, checks)
                                    : single_e2e(opt, checks);
    }
    print_result(opt, checks, metrics);
    return checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
