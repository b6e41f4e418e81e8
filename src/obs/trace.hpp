// Structured event tracing: the per-run lifecycle record stream.
//
// Four record families, all stamped with *simulation* time (never wall
// clock, so an enabled trace is byte-identical across runs and machines):
//
//   * packet lifecycle — generated → enqueued → tx_start/tx_end per hop →
//     forwarded → delivered / dropped-with-reason, emitted by the node and
//     the per-link data plane;
//   * route lifecycle — discovery start/retry/failure, every control
//     transmission (RREQ/reply hops, checks, local queries), route
//     established, link break, repair, emitted by the five protocols and
//     the common-channel MAC;
//   * kernel samples — events executed and pending count, emitted by the
//     registry sampler (obs/sampler.hpp) at the series CSV's instants;
//   * causal spans — derived intervals with trace/span/parent ids that
//     decompose a packet's end-to-end delay into discovery-wait, queue,
//     backoff, retry, and airtime components (see obs/span.hpp).
//
// A `Tracer` is the zero-cost-off switchboard: it lives inside the
// MetricsCollector (which every emitting layer already holds) and forwards
// records to an attached `TraceSink` subject to a category filter.  A
// second slot carries the always-on flight recorder (obs/flight_recorder.hpp)
// with its own filter, and a `SpanBook` can tap the packet/route stream to
// derive span records.  With nothing attached — the default — every
// emission site reduces to a few pointer loads and a predicted branch, and
// a run's golden stream hash is untouched either way.
//
// The bundled `JsonlTraceSink` writes one JSON object per line with a fixed
// key order and locale-free integer formatting, so `diff` is a valid trace
// comparator and the byte-identity determinism tests can assert equality of
// whole files.  The per-record formatters are exposed (jsonl_write) so the
// flight recorder's dump emits byte-identical lines.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace rica::obs {

class PerfettoWriter;
class SpanBook;

/// Record-category bitmask selected by `--trace-filter`.
enum class TraceFilter : std::uint8_t {
  kNone = 0,
  kPacket = 1,
  kRoute = 2,
  kKernel = 4,
  kSpan = 8,
  kAll = 15,
};

[[nodiscard]] constexpr TraceFilter operator|(TraceFilter a, TraceFilter b) {
  return static_cast<TraceFilter>(static_cast<std::uint8_t>(a) |
                                  static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr bool has(TraceFilter mask, TraceFilter bit) {
  return (static_cast<std::uint8_t>(mask) & static_cast<std::uint8_t>(bit)) !=
         0;
}

/// Parses "packet", "route", "kernel", "span", "all", or a comma list of
/// them.  Throws std::invalid_argument (naming the known categories) on a
/// typo.
[[nodiscard]] TraceFilter parse_trace_filter(std::string_view spec);

/// One step of a data packet's life.  `stage` is one of: generated,
/// enqueued, tx_start, tx_end, tx_fail, forwarded, delivered, dropped.
struct PacketTrace {
  std::string_view stage;
  sim::Time at{};
  std::uint32_t flow = 0;
  std::uint32_t seq = 0;
  std::uint32_t node = 0;  ///< terminal where the event happened
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::int64_t peer = -1;  ///< next hop / sender, -1 when not applicable
  std::uint16_t hops = 0;
  std::uint32_t bytes = 0;
  std::string_view detail{};  ///< drop reason / failure cause, may be empty
};

/// One step of a route's life.  `stage` is one of: discovery_start,
/// discovery_retry, discovery_failed, control_tx, control_lost,
/// established, repair_start, repaired, link_break, topology_install.
struct RouteTrace {
  std::string_view stage;
  sim::Time at{};
  std::uint32_t node = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t bid = 0;
  double metric = 0.0;        ///< CSI distance / hop count, stage-dependent
  std::string_view protocol{};
  std::string_view msg{};     ///< control message type for control_* stages
  /// Frame bytes on the air for control_tx / control_lost (per-discovery
  /// control-byte attribution joins on (src, dst, bid)); 0 elsewhere.
  std::uint32_t bytes = 0;
};

/// One kernel sample, taken by obs::Sampler at each of its ticks.
struct KernelTrace {
  sim::Time at{};
  std::uint64_t events_executed = 0;
  std::uint64_t pending = 0;
};

/// One causal interval, emitted when it closes (so `t_ns` stays monotone;
/// a parent id may reference a span emitted later).  `kind` is one of:
/// packet (the root, spanning generation → delivery/drop), route_wait,
/// queue, backoff, retry, airtime (children of a packet root), discovery,
/// repair (independent roots keyed by the requesting node).  Ids are
/// allocated in deterministic commit order; 0 is never a valid span id and
/// `parent == 0` marks a root.  For packet-family spans `trace` is the root
/// span's id; root spans have `span == trace`.
struct SpanTrace {
  std::string_view kind;
  sim::Time at{};  ///< close time (== start + dur)
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint32_t flow = 0;
  std::uint32_t seq = 0;
  std::uint32_t node = 0;  ///< terminal the interval was spent at
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  sim::Time start{};
  sim::Time dur{};
  std::string_view detail{};  ///< outcome / wait cause, may be empty
};

/// Receives the structured record stream.  Implementations must not assume
/// wall-clock anything: a sink is part of the determinism contract.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_packet(const PacketTrace& rec) = 0;
  virtual void on_route(const RouteTrace& rec) = 0;
  virtual void on_kernel(const KernelTrace& rec) = 0;
  /// Default no-op so pre-span sinks keep compiling unchanged.
  virtual void on_span(const SpanTrace& rec) { (void)rec; }
};

/// Fixed-key-order JSONL formatters shared by JsonlTraceSink and the
/// flight-recorder dump: one record, one line, locale-free.
void jsonl_write(std::FILE* f, const PacketTrace& rec);
void jsonl_write(std::FILE* f, const RouteTrace& rec);
void jsonl_write(std::FILE* f, const KernelTrace& rec);
void jsonl_write(std::FILE* f, const SpanTrace& rec);

/// JSONL backend: one record per line, fixed key order, integer sim-time
/// stamps (`t_ns`), no locale-dependent formatting — byte-identical across
/// runs for a fixed seed.  Throws std::runtime_error when the file cannot
/// be opened.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;
  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  void on_packet(const PacketTrace& rec) override;
  void on_route(const RouteTrace& rec) override;
  void on_kernel(const KernelTrace& rec) override;
  void on_span(const SpanTrace& rec) override;

  /// Flushes buffered lines to disk (called automatically on destruction).
  void flush();

 private:
  std::FILE* file_ = nullptr;
};

/// The switchboard every emitting layer talks to.  Off by default: with no
/// sink, recorder, or span book attached, the *_on() guards are three
/// pointer loads and the emission bodies are never entered, so the
/// instrumented hot paths cost a few predicted branches.  A PerfettoWriter
/// can ride alongside the sinks (the MAC and data plane feed it duration
/// slices directly).
class Tracer {
 public:
  /// Attaches `sink` with `filter`; pass nullptr to detach.  The sink must
  /// outlive the simulation run.
  void attach(TraceSink* sink, TraceFilter filter) {
    sink_ = sink;
    filter_ = sink ? filter : TraceFilter::kNone;
  }

  /// Attaches the flight-recorder slot (any TraceSink) with its own
  /// filter; pass nullptr to detach.  Records are fed to both slots
  /// independently, so the recorder can run always-on next to (or without)
  /// a primary JSONL sink.
  void attach_recorder(TraceSink* recorder, TraceFilter filter) {
    recorder_ = recorder;
    recorder_filter_ = recorder ? filter : TraceFilter::kNone;
  }

  /// Installs the span derivation tap (see obs/span.hpp); nullptr detaches.
  /// While installed, packet/route emission stays on (the book consumes the
  /// raw stream) and derived span records fan out to any slot whose filter
  /// has kSpan.
  void set_span_book(SpanBook* book) { span_book_ = book; }
  [[nodiscard]] SpanBook* span_book() const { return span_book_; }

  void set_perfetto(PerfettoWriter* writer) { perfetto_ = writer; }
  [[nodiscard]] PerfettoWriter* perfetto() const { return perfetto_; }

  [[nodiscard]] bool packet_on() const {
    return span_book_ != nullptr || want(TraceFilter::kPacket);
  }
  [[nodiscard]] bool route_on() const {
    return span_book_ != nullptr || want(TraceFilter::kRoute);
  }
  [[nodiscard]] bool kernel_on() const { return want(TraceFilter::kKernel); }
  [[nodiscard]] bool span_on() const {
    return span_book_ != nullptr && (has(filter_, TraceFilter::kSpan) ||
                                     has(recorder_filter_, TraceFilter::kSpan));
  }

  // Dispatch bodies live in trace.cpp (they feed the forward-declared
  // SpanBook); the inline guards above keep the disabled path free.
  void packet(const PacketTrace& rec);
  void route(const RouteTrace& rec);
  void kernel(const KernelTrace& rec);
  /// Emits a derived span record to every slot whose filter has kSpan
  /// (called by SpanBook, not by instrumentation sites).
  void span(const SpanTrace& rec);

 private:
  [[nodiscard]] bool want(TraceFilter bit) const {
    return (sink_ != nullptr && has(filter_, bit)) ||
           (recorder_ != nullptr && has(recorder_filter_, bit));
  }

  TraceSink* sink_ = nullptr;
  TraceFilter filter_ = TraceFilter::kNone;
  TraceSink* recorder_ = nullptr;
  TraceFilter recorder_filter_ = TraceFilter::kNone;
  SpanBook* span_book_ = nullptr;
  PerfettoWriter* perfetto_ = nullptr;
};

/// Identity of a control message for route-lifecycle records: the payload's
/// type name plus the (src, dst, bid) triple where the type carries one
/// (0 where it does not, e.g. beacons).
struct ControlInfo {
  std::string_view name;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t bid = 0;
};
[[nodiscard]] ControlInfo control_info(const net::ControlPayload& payload);

}  // namespace rica::obs
