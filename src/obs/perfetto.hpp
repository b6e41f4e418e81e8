// Chrome trace_event / Perfetto JSON export of a run's kernel and channel
// activity, openable in chrome://tracing or ui.perfetto.dev.
//
// Track layout (chosen so no track ever holds overlapping "X" slices):
//
//   pid 0 "kernel"          — counter tracks only: one per registered
//                             obs::Registry scalar, written by obs::Sampler
//                             at the series CSV's instants.
//   pid 1 "control-channel" — one thread per terminal; the common channel
//                             is half-duplex per node, so a node's control
//                             transmissions never overlap.
//   pid 2 "data-plane"      — one thread per directed link; each
//                             LinkTransmitter is a serial server, so a
//                             link's data transmissions never overlap.
//
// Timestamps come from integer sim-time nanoseconds formatted as fixed
// ".3f" microseconds by integer arithmetic — no floating point, no locale,
// so the JSON is byte-identical across runs for a fixed seed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace rica::obs {

class PerfettoWriter {
 public:
  /// Process ids for the three fixed tracks.
  static constexpr std::uint32_t kKernelPid = 0;
  static constexpr std::uint32_t kControlPid = 1;
  static constexpr std::uint32_t kDataPid = 2;

  /// Opens `path` and writes the JSON preamble plus process metadata.
  /// Throws std::runtime_error when the file cannot be opened.
  explicit PerfettoWriter(const std::string& path);
  ~PerfettoWriter();
  PerfettoWriter(const PerfettoWriter&) = delete;
  PerfettoWriter& operator=(const PerfettoWriter&) = delete;

  /// A complete ("X") duration slice on (pid, tid) from `start` for `dur`.
  /// `category` groups slices in the UI (e.g. the protocol name); `name` is
  /// the slice label.  Emits a thread_name metadata record the first time a
  /// (pid, tid) pair appears.
  void slice(std::uint32_t pid, std::uint32_t tid, std::string_view category,
             std::string_view name, sim::Time start, sim::Time dur);

  /// A counter ("C") sample named `name` on `pid` at `at`; `value` prints
  /// as "%.15g" (integers below 10^15 exactly, byte-stable across runs).
  void counter(std::uint32_t pid, std::string_view name, sim::Time at,
               double value);

  /// Names the thread track (pid, tid) in the UI; idempotent.
  void name_thread(std::uint32_t pid, std::uint32_t tid,
                   std::string_view name);

  /// Returns a stable tid for `label` on `pid`, allocating the next free
  /// one (and emitting its thread_name) on first use.  Track numbering is
  /// allocation-ordered, which is deterministic because track creation
  /// follows the simulation's own event order.
  std::uint32_t track(std::uint32_t pid, const std::string& label);

  /// Writes the closing bracket and flushes; further emissions are invalid.
  /// Called automatically on destruction.
  void close();

 private:
  void comma();

  std::FILE* file_ = nullptr;
  bool first_ = true;
  bool closed_ = false;
  std::map<std::uint64_t, bool> named_threads_;  ///< (pid<<32|tid) seen
  std::map<std::string, std::uint32_t> tracks_;  ///< "pid/label" -> tid
  std::map<std::uint32_t, std::uint32_t> next_tid_;  ///< per-pid allocator
};

}  // namespace rica::obs
