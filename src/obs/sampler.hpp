// Time-series sampling and the kernel profiling probe.
//
// `SeriesSampler` dumps a periodic per-run CSV (`--sample-dt S`) in long
// format, `t_s,stat,value`: at each sample, one row per registered
// obs::Registry scalar, in name order.  A new registration adds its rows
// with no edit here.  Rates are deltas between samples (e.g. delivery rate
// from `net.delivered`, control overhead from `net.control_bytes_on_air`).
// The sampler schedules *real* simulation events — a run with sampling
// enabled executes more kernel events than one without
// (kernel.events_executed moves) but never touches the metrics stream
// hash, because the sample callback only reads.
//
// `KernelProbe` adapts the Simulator's `sim::KernelObserver` hook to the
// trace layer: each observation window becomes a JSONL kernel record and
// one Perfetto counter sample per registered scalar on the "kernel"
// process track.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace rica::obs {

class SeriesSampler {
 public:
  /// Opens `path` and writes the CSV header; `registry` must outlive the
  /// sampler.  Throws std::runtime_error when the file cannot be opened.
  SeriesSampler(const std::string& path, const Registry& registry);
  ~SeriesSampler();
  SeriesSampler(const SeriesSampler&) = delete;
  SeriesSampler& operator=(const SeriesSampler&) = delete;

  /// Arms periodic sampling every `dt` until `end` (inclusive), starting at
  /// `dt`.  Must be called before the run.
  void start(sim::Simulator& sim, sim::Time dt, sim::Time end);

  /// Flushes buffered rows (also done on destruction).
  void flush();

 private:
  void sample(sim::Time now);
  void arm(sim::Simulator& sim);

  std::FILE* file_ = nullptr;
  const Registry& registry_;
  sim::Timer timer_;
  sim::Time dt_{};
  sim::Time end_{};
};

/// Bridges sim::KernelObserver into the trace layer.  Install with
/// Simulator::set_kernel_observer(&probe, interval).
class KernelProbe final : public sim::KernelObserver {
 public:
  /// Either sink may be null; the probe feeds whichever are present.
  /// `registry` supplies the Perfetto counter tracks and must outlive the
  /// probe.
  KernelProbe(Tracer* tracer, PerfettoWriter* perfetto,
              const Registry& registry)
      : tracer_(tracer), perfetto_(perfetto), registry_(registry) {}

  void on_kernel_window(sim::Time now, std::uint64_t events_executed,
                        std::size_t pending) override;

 private:
  Tracer* tracer_;
  PerfettoWriter* perfetto_;
  const Registry& registry_;
};

}  // namespace rica::obs
