#include "obs/anomaly.hpp"

#include <cmath>

#include "obs/flight_recorder.hpp"

namespace rica::obs {

namespace {

/// The evaluation period: every monitor judges one window of this length.
constexpr double kWindowS = 1.0;

/// The window's share of a cumulative registry count.  A total below the
/// last one means the collector opened a fresh measurement epoch (warmup
/// reset), so the whole new total is the window's.
std::uint64_t in_window(const Registry& registry, const char* name,
                        std::uint64_t& last) {
  const auto total = static_cast<std::uint64_t>(registry.read(name));
  const std::uint64_t delta = total >= last ? total - last : total;
  last = total;
  return delta;
}

}  // namespace

AnomalyMonitor::AnomalyMonitor(const AnomalyConfig& cfg, Registry& registry,
                               StalledFlowsFn stalled_flows)
    : cfg_(cfg),
      registry_(registry),
      count_stalled_(std::move(stalled_flows)),
      drop_spike_(registry.counter("anomaly.drop_spike")),
      discovery_storm_(registry.counter("anomaly.discovery_storm")),
      stalled_flows_(registry.counter("anomaly.stalled_flows")),
      queue_backlog_(registry.counter("anomaly.queue_backlog")),
      dumps_(registry.counter("anomaly.dumps")) {}

void AnomalyMonitor::start(sim::Simulator& sim, sim::Time end) {
  end_ = end;
  arm(sim);
}

void AnomalyMonitor::arm(sim::Simulator& sim) {
  const sim::Time window = sim::seconds_f(kWindowS);
  if (sim.now() + window > end_) return;
  sim.after(window, [this, &sim] {
    tick(sim);
    arm(sim);
  });
}

void AnomalyMonitor::fire(std::string_view monitor, Counter& counter,
                          sim::Time now) {
  counter.add(1);
  if (dumped_ || recorder_ == nullptr || dump_path_.empty()) return;
  // First violation only: the onset window is what a postmortem wants, and
  // a single artifact per run keeps reruns byte-comparable.
  recorder_->dump(dump_path_, monitor, now);
  dumps_.add(1);
  dumped_ = true;
}

void AnomalyMonitor::tick(sim::Simulator& sim) {
  const sim::Time now = sim.now();
  const std::uint64_t drops = in_window(registry_, "net.dropped", last_drops_);
  if (cfg_.drop_rate_per_s > 0.0 &&
      drops >= static_cast<std::uint64_t>(
                   std::ceil(cfg_.drop_rate_per_s * kWindowS))) {
    fire("drop_spike", drop_spike_, now);
  }
  const std::uint64_t failures = in_window(
      registry_, "routing.discovery_failed", last_discovery_failures_);
  if (cfg_.discovery_failures > 0 && failures >= cfg_.discovery_failures) {
    fire("discovery_storm", discovery_storm_, now);
  }
  if (cfg_.stall_s > 0.0) {
    const sim::Time bound = sim::seconds_f(cfg_.stall_s);
    if (now >= bound && count_stalled_(now - bound) > 0) {
      fire("stalled_flows", stalled_flows_, now);
    }
  }
  if (cfg_.queue_backlog > 0 &&
      static_cast<std::uint64_t>(registry_.read("stack.buffered_packets")) >=
          cfg_.queue_backlog) {
    fire("queue_backlog", queue_backlog_, now);
  }
}

}  // namespace rica::obs
