// Periodic registry sampling: the one path from obs::Registry to every
// time-stamped output.
//
// A `Sampler` schedules a real simulation event at t = k·dt for every
// k >= 1 with t <= end.  Each tick reads `registry.snapshot()` once and
// writes it to whichever outputs are present:
//
//   * the series CSV (`--series-out`, `--sample-dt S`), long format
//     `t_s,stat,value`: one row per registered scalar, in name order;
//   * the Perfetto profile: one counter sample per scalar on the *kernel*
//     process track (PerfettoWriter::kKernelPid);
//   * the trace: one JSONL `kernel` record (events executed, pending
//     events) when the tracer's kernel records are on.
//
// So the three outputs carry the same instants, and a new registration
// reaches all of them with no edit here.  Rates are deltas between samples
// (e.g. delivery rate from `net.delivered`, control overhead from
// `net.control_bytes_on_air`).  The sampler's events are real — a sampled
// run executes more kernel events than a bare one (kernel.events_executed
// moves) — but the callback only reads, so the metrics stream hash never
// moves.
#pragma once

#include <cstdio>
#include <string>

#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace rica::obs {

class Sampler {
 public:
  /// Any output may be absent: an empty `series_path`, a null `perfetto`,
  /// a null `tracer` (or one whose kernel records are off).  Opens
  /// `series_path` and writes the CSV header when given; throws
  /// std::runtime_error when it cannot be opened.  `registry` and the
  /// outputs must outlive the sampler.
  Sampler(const Registry& registry, const std::string& series_path,
          PerfettoWriter* perfetto, Tracer* tracer);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Arms periodic sampling every `dt` until `end` (inclusive), starting at
  /// `dt`.  Must be called before the run.
  void start(sim::Simulator& sim, sim::Time dt, sim::Time end);

 private:
  void sample(const sim::Simulator& sim);
  void arm(sim::Simulator& sim);

  const Registry& registry_;
  std::FILE* file_ = nullptr;
  PerfettoWriter* perfetto_;
  Tracer* tracer_;
  sim::Timer timer_;
  sim::Time dt_{};
  sim::Time end_{};
};

}  // namespace rica::obs
