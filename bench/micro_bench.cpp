// Engine micro-benchmarks (google-benchmark): event queue, channel sampling,
// mobility evaluation, Dijkstra, and a full-stack end-to-end run.  Not a
// paper figure — these guard the simulator's performance so the paper-scale
// sweeps (25 trials x 500 s x 5 protocols) stay tractable.
#include <benchmark/benchmark.h>

#include "channel/channel_model.hpp"
#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/event_engine.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace rica;

/// Field side for a population, taken from the scenario preset with that
/// population (paper/dense-urban/large-scale) so bench density tracks any
/// preset retuning.
double field_for(std::int64_t num_nodes) {
  for (const auto& preset : harness::scenario_presets()) {
    if (preset.num_nodes == static_cast<std::size_t>(num_nodes)) {
      return preset.field_m;
    }
  }
  return 1000.0;
}

// -- event-kernel benchmarks -------------------------------------------------
// The slab-backed binary-heap engine on a mixed-delay schedule/pop workload
// (64 events in flight, delays spread over the protocol stack's 0..1 ms
// range) and on the Timer rearm churn pattern.  These rows are the
// perf-regression guard's inputs (scripts/check_bench_regression.py vs
// BENCH_scale.json).

void BM_EventEngineScheduleAndPop(benchmark::State& state) {
  sim::EventEngine q;
  sim::RandomStream rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.schedule(sim::Time{t + rng.uniform_int(0, 1'000'000)}, [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto fired = q.fire_next();
      t = fired.at.nanos();
      benchmark::DoNotOptimize(fired.id);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventEngineScheduleAndPop);

// The hold model: about 500 pending events, and each firing re-arms one,
// as a carrier-sense poll or a periodic timer does.  The re-arm takes over
// the fired event's heap root (one sift down instead of a pop and a push).

void BM_EventEngineHold(benchmark::State& state) {
  constexpr int kPending = 512;
  sim::EventEngine q;
  sim::RandomStream rng(5);
  struct Rearm {
    sim::EventEngine* q;
    sim::RandomStream* rng;
    std::int64_t at;
    void operator()() const {
      const std::int64_t next = at + rng->uniform_int(1, 1'000'000);
      q->schedule(sim::Time{next}, Rearm{q, rng, next});
    }
  };
  for (int i = 0; i < kPending; ++i) {
    const std::int64_t at = rng.uniform_int(0, 1'000'000);
    q.schedule(sim::Time{at}, Rearm{&q, &rng, at});
  }
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.fire_next().id);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventEngineHold);

// Cancel-heavy churn: the protocol stack's Timer rearm pattern (schedule,
// cancel, schedule again).  Cancel frees the slot at once; the stale heap
// entry stays until it reaches the top, so this row also pays for sifting
// past cancelled entries.

void BM_EventEngineCancelChurn(benchmark::State& state) {
  sim::EventEngine q;
  sim::RandomStream rng(3);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      const auto id =
          q.schedule(sim::Time{t + rng.uniform_int(0, 1'000'000)}, [] {});
      q.cancel(id);
      q.schedule(sim::Time{t + rng.uniform_int(0, 1'000'000)}, [] {});
    }
    for (int i = 0; i < 32; ++i) t = q.fire_next().at.nanos();
  }
  state.SetItemsProcessed(state.iterations() * 96);
}
BENCHMARK(BM_EventEngineCancelChurn);

void BM_SimulatorTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 1000) sim.after(sim::microseconds(10), tick);
    };
    sim.after(sim::microseconds(10), tick);
    sim.run_until(sim::seconds(1));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerChain);

void BM_MobilityPositionQuery(benchmark::State& state) {
  sim::RngManager rng(7);
  mobility::MobilityConfig cfg;
  cfg.max_speed_mps = 20.0;
  mobility::MobilityManager mgr(50, cfg, rng);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1'000'000;  // 1 ms forward
    for (std::uint32_t n = 0; n < 50; ++n) {
      benchmark::DoNotOptimize(mgr.position(n, sim::Time{t}));
    }
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_MobilityPositionQuery);

// Per-model snapshot() cost at the neighbor index's rebuild cadence
// (250 ms epochs, 200 nodes): what one index rebuild pays for mobility
// evaluation under each trajectory model.
void BM_MobilitySnapshot(benchmark::State& state, const char* spec) {
  sim::RngManager rng(7);
  auto cfg = mobility::parse_mobility_spec(spec);
  cfg.max_speed_mps = 20.0;
  mobility::MobilityManager mgr(200, cfg, rng);
  std::vector<mobility::Vec2> out;
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 250'000'000;  // one rebuild epoch forward
    mgr.snapshot(sim::Time{t}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK_CAPTURE(BM_MobilitySnapshot, waypoint, "waypoint");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, walk, "walk");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, gauss_markov, "gauss-markov");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, group, "group");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, manhattan, "manhattan");

void BM_ChannelSample(benchmark::State& state) {
  sim::RngManager rng(11);
  mobility::MobilityConfig wcfg;
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(50, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  std::int64_t t = 0;
  std::uint32_t a = 0;
  for (auto _ : state) {
    t += 100'000;  // 0.1 ms
    a = (a + 1) % 49;
    benchmark::DoNotOptimize(channel.sample(a, a + 1, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSample);

void BM_NeighborScan(benchmark::State& state) {
  sim::RngManager rng(13);
  mobility::MobilityConfig wcfg;
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(50, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1'000'000;
    benchmark::DoNotOptimize(channel.neighbors_of(0, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborScan);

// Neighbor query scaling: the per-epoch neighbor lists at 50/200/500 nodes
// (paper / dense-urban / large-scale densities).
void BM_NeighborQueryGrid(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  sim::RngManager rng(13);
  mobility::MobilityConfig wcfg;
  wcfg.field = mobility::Field{field_for(n), field_for(n)};
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(static_cast<std::size_t>(n), wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  std::int64_t t = 0;
  std::uint32_t node = 0;
  for (auto _ : state) {
    t += 1'000'000;  // 1 ms forward: amortizes index rebuilds as a run does
    node = (node + 1) % static_cast<std::uint32_t>(n);
    benchmark::DoNotOptimize(channel.neighbors_of(node, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborQueryGrid)->Arg(50)->Arg(200)->Arg(500);

void BM_FullStackScenario(benchmark::State& state) {
  // One second of simulated network per iteration, full 50-node stack.
  const auto proto = static_cast<harness::ProtocolKind>(state.range(0));
  for (auto _ : state) {
    harness::ScenarioConfig cfg;
    cfg.protocol = proto;
    cfg.sim_s = 1.0;
    cfg.mean_speed_kmh = 36.0;
    const auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_FullStackScenario)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

// The contention-heavy end-to-end row: one second of the dense-urban preset
// (200 nodes / 1 km², RICA).  This is where batch-firing and the pooled/flat
// memory paths earn their keep, and a key perf-regression-guard input.
void BM_FullStackDenseUrban(benchmark::State& state) {
  for (auto _ : state) {
    harness::ScenarioConfig cfg = harness::preset_config("dense-urban");
    cfg.sim_s = 1.0;
    const auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_FullStackDenseUrban)->Unit(benchmark::kMillisecond);

// Sweep throughput: the 5-protocol grid slice at two speeds, on `range(0)`
// worker threads.  Measures the parallel harness's wall-clock scaling, so
// real time (not CPU time) is the meaningful axis.
void BM_SweepThroughput(benchmark::State& state) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.threads = static_cast<int>(state.range(0));
  scale.verbose = false;
  const std::vector<double> speeds{0.0, 36.0};
  const std::vector<double> loads{10.0};
  for (auto _ : state) {
    const auto grid = harness::run_speed_sweep(speeds, loads, scale);
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetItemsProcessed(state.iterations() * speeds.size() * loads.size() *
                          harness::kAllProtocols.size());
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The metro end-to-end row: half a second of the metro preset (500 nodes /
// 3 km², RICA) on the serial kernel.  Throughput is kernel events per
// wall-clock second; cores are spent across runs (BM_SweepThroughput), never
// inside one.
void BM_FullStackMetro(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::ScenarioConfig cfg = harness::preset_config("metro");
    cfg.sim_s = 0.5;
    const auto r = harness::run_scenario(cfg);
    events += static_cast<std::uint64_t>(r.stat("kernel.events_executed"));
    benchmark::DoNotOptimize(r.delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FullStackMetro)->Unit(benchmark::kMillisecond)->UseRealTime();

// The static link-state row: half a second of the metro preset at 0 km/h
// under LinkState, where the t = 0 topology install, each terminal's first
// link sensing and its first SPF carry the work.  BM_FullStackMetro runs
// RICA at the preset speed, so it never takes the static path.
void BM_FullStackMetroLinkState(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::ScenarioConfig cfg = harness::preset_config("metro");
    cfg.protocol = harness::ProtocolKind::kLinkState;
    cfg.mean_speed_kmh = 0.0;
    cfg.sim_s = 0.5;
    const auto r = harness::run_scenario(cfg);
    events += static_cast<std::uint64_t>(r.stat("kernel.events_executed"));
    benchmark::DoNotOptimize(r.delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FullStackMetroLinkState)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main: stamp the *simulator's* build type into the benchmark
// context.  google-benchmark's own "library_build_type" field reports how
// the system libbenchmark was compiled (debug on some distro packages),
// which says nothing about rica_core's optimization level; the regression
// guard keys off this marker and refuses debug numbers.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("rica_build_type", "release");
#else
  benchmark::AddCustomContext("rica_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
