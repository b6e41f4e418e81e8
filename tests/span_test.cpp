// Causal-span, flight-recorder, anomaly-watchdog, and histogram tests:
//   * a packet's child spans form a complete acyclic chain whose durations
//     sum exactly to the root's end-to-end delay,
//   * the flight recorder's dump is byte-identical across reruns and its
//     ring retains exactly the newest `capacity` records,
//   * a crafted drop storm fires the watchdogs deterministically,
//   * LogHistogram bucketing is exact below the linear bound, merge is
//     associative, and percentiles report bucket representatives.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace {

using namespace rica;

/// Collects span records in memory.
class CaptureSink final : public obs::TraceSink {
 public:
  void on_packet(const obs::PacketTrace&) override {}
  void on_route(const obs::RouteTrace&) override {}
  void on_kernel(const obs::KernelTrace&) override {}
  void on_span(const obs::SpanTrace& rec) override {
    spans.push_back(Span{std::string(rec.kind), rec.span, rec.parent,
                         rec.trace, rec.start, rec.dur, rec.at,
                         std::string(rec.detail)});
  }

  struct Span {
    std::string kind;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t trace;
    sim::Time start;
    sim::Time dur;
    sim::Time at;
    std::string detail;
  };
  std::vector<Span> spans;
};

obs::PacketTrace pkt_rec(std::string_view stage, sim::Time at,
                         std::uint32_t node, std::int64_t peer = -1,
                         std::string_view detail = {}) {
  obs::PacketTrace rec;
  rec.stage = stage;
  rec.at = at;
  rec.flow = 7;
  rec.seq = 3;
  rec.node = node;
  rec.src = 1;
  rec.dst = 9;
  rec.peer = peer;
  rec.detail = detail;
  return rec;
}

obs::RouteTrace route_rec(std::string_view stage, sim::Time at,
                          std::uint32_t node) {
  obs::RouteTrace rec;
  rec.stage = stage;
  rec.at = at;
  rec.node = node;
  rec.src = 1;
  rec.dst = 9;
  rec.bid = 42;
  return rec;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// -- span derivation ---------------------------------------------------------

TEST(SpanBook, ChainDecomposesEndToEndDelayExactly) {
  obs::Tracer tracer;
  CaptureSink sink;
  tracer.attach(&sink, obs::TraceFilter::kSpan);
  obs::SpanBook book(tracer);
  tracer.set_span_book(&book);

  const auto ms = [](std::int64_t v) { return sim::milliseconds(v); };
  // Generation, a discovery wait, one failed + retried hop, a relay hop.
  tracer.packet(pkt_rec("generated", ms(0), 1));
  tracer.route(route_rec("discovery_start", ms(0), 1));
  tracer.route(route_rec("established", ms(5), 1));
  tracer.packet(pkt_rec("enqueued", ms(5), 1, 4));
  tracer.packet(pkt_rec("tx_start", ms(6), 1, 4));
  tracer.packet(pkt_rec("tx_fail", ms(8), 1, 4, "no_channel"));
  tracer.packet(pkt_rec("tx_start", ms(10), 1, 4));
  tracer.packet(pkt_rec("tx_end", ms(15), 1, 4));
  tracer.packet(pkt_rec("forwarded", ms(15), 4, 1));
  tracer.packet(pkt_rec("enqueued", ms(16), 4, 9));
  tracer.packet(pkt_rec("tx_start", ms(17), 4, 9));
  tracer.packet(pkt_rec("tx_end", ms(20), 4, 9));
  tracer.packet(pkt_rec("delivered", ms(20), 9));
  tracer.set_span_book(nullptr);
  tracer.attach(nullptr, obs::TraceFilter::kNone);

  const CaptureSink::Span* root = nullptr;
  for (const auto& s : sink.spans) {
    if (s.kind == "packet") root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  EXPECT_EQ(root->trace, root->id);
  EXPECT_EQ(root->dur, sim::milliseconds(20));
  EXPECT_EQ(root->detail, "delivered");

  // Every child: parent is the root (flat chain, acyclic by construction),
  // same trace id, and the durations tile [0, 20ms] exactly.
  sim::Time child_sum = sim::Time::zero();
  std::map<std::string, sim::Time> by_kind;
  sim::Time cursor = root->start;
  for (const auto& s : sink.spans) {
    if (s.kind == "packet" || s.kind == "discovery") continue;
    EXPECT_EQ(s.parent, root->id) << s.kind;
    EXPECT_EQ(s.trace, root->id) << s.kind;
    EXPECT_NE(s.id, root->id);
    EXPECT_EQ(s.start, cursor) << "gap before " << s.kind;
    cursor = s.start + s.dur;
    child_sum = child_sum + s.dur;
    by_kind[s.kind] = by_kind[s.kind] + s.dur;
  }
  EXPECT_EQ(child_sum, root->dur);
  // The decomposition: 5ms discovery wait, 1+1ms queue, 2ms retry (wasted
  // air), 2ms backoff, 5+3ms airtime, 1ms hold at the relay.
  EXPECT_EQ(by_kind["route_wait"], sim::milliseconds(6));
  EXPECT_EQ(by_kind["queue"], sim::milliseconds(2));
  EXPECT_EQ(by_kind["retry"], sim::milliseconds(2));
  EXPECT_EQ(by_kind["backoff"], sim::milliseconds(2));
  EXPECT_EQ(by_kind["airtime"], sim::milliseconds(8));

  // The discovery episode is its own root, closed "established".
  const CaptureSink::Span* disc = nullptr;
  for (const auto& s : sink.spans) {
    if (s.kind == "discovery") disc = &s;
  }
  ASSERT_NE(disc, nullptr);
  EXPECT_EQ(disc->parent, 0u);
  EXPECT_EQ(disc->dur, sim::milliseconds(5));
  EXPECT_EQ(disc->detail, "established");
}

TEST(SpanBook, HoldOverDiscoveryEpisodeIsLabeledDiscovery) {
  obs::Tracer tracer;
  CaptureSink sink;
  tracer.attach(&sink, obs::TraceFilter::kSpan);
  obs::SpanBook book(tracer);
  tracer.set_span_book(&book);

  tracer.packet(pkt_rec("generated", sim::milliseconds(1), 1));
  tracer.route(route_rec("discovery_start", sim::milliseconds(1), 1));
  // "established" closes the episode *before* the pending packet flushes.
  tracer.route(route_rec("established", sim::milliseconds(9), 1));
  tracer.packet(pkt_rec("enqueued", sim::milliseconds(9), 1, 4));
  tracer.set_span_book(nullptr);

  const CaptureSink::Span* wait = nullptr;
  for (const auto& s : sink.spans) {
    if (s.kind == "route_wait") wait = &s;
  }
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->detail, "discovery");
  EXPECT_EQ(wait->dur, sim::milliseconds(8));
}

TEST(SpanBook, FinishFlushesOpenSpansInFlight) {
  obs::Tracer tracer;
  CaptureSink sink;
  tracer.attach(&sink, obs::TraceFilter::kSpan);
  obs::SpanBook book(tracer);
  tracer.set_span_book(&book);

  tracer.packet(pkt_rec("generated", sim::milliseconds(0), 1));
  tracer.route(route_rec("discovery_start", sim::milliseconds(0), 1));
  book.finish(sim::milliseconds(30));
  tracer.set_span_book(nullptr);

  bool packet_flushed = false;
  bool discovery_flushed = false;
  for (const auto& s : sink.spans) {
    if (s.kind == "packet" && s.detail == "in_flight") packet_flushed = true;
    if (s.kind == "discovery" && s.detail == "in_flight") {
      discovery_flushed = true;
    }
    EXPECT_EQ(s.at, sim::milliseconds(30));
  }
  EXPECT_TRUE(packet_flushed);
  EXPECT_TRUE(discovery_flushed);
}

// -- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingRetainsNewestRecords) {
  obs::FlightRecorder rec(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::KernelTrace k;
    k.at = sim::seconds(i);
    k.events_executed = i;
    rec.on_kernel(k);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.retained(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);

  const auto path =
      (std::filesystem::temp_directory_path() / "rica_flight_ring.jsonl")
          .string();
  rec.dump(path, "test", sim::seconds(10));
  const std::string text = slurp(path);
  // Oldest retained is i=6 (records 0..5 were overwritten); newest is i=9.
  EXPECT_NE(text.find("\"trigger\":\"test\""), std::string::npos);
  EXPECT_NE(text.find("\"recorded\":10"), std::string::npos);
  EXPECT_EQ(text.find("\"events_executed\":5,"), std::string::npos);
  const auto first_kept = text.find("\"events_executed\":6");
  const auto last_kept = text.find("\"events_executed\":9");
  EXPECT_NE(first_kept, std::string::npos);
  EXPECT_NE(last_kept, std::string::npos);
  EXPECT_LT(first_kept, last_kept);
  std::filesystem::remove(path);
}

TEST(FlightRecorder, ScenarioDumpIsByteIdenticalAcrossReruns) {
  const auto run = [](const char* name) {
    harness::ScenarioConfig cfg;
    cfg.num_nodes = 12;
    cfg.num_pairs = 3;
    cfg.sim_s = 8.0;
    cfg.seed = 7;
    cfg.flight_recorder = 1 << 12;
    const auto path =
        (std::filesystem::temp_directory_path() / name).string();
    cfg.flight_dump = path;
    (void)harness::run_scenario(cfg);
    return path;
  };
  const auto a = run("rica_flight_a.jsonl");
  const auto b = run("rica_flight_b.jsonl");
  const std::string ta = slurp(a);
  const std::string tb = slurp(b);
  ASSERT_FALSE(ta.empty());
  EXPECT_EQ(ta, tb);
  // The exit dump carries the header and span records (the recorder's kAll
  // filter turns the span book on).
  EXPECT_NE(ta.find("\"trigger\":\"exit\""), std::string::npos);
  EXPECT_NE(ta.find("\"type\":\"span\""), std::string::npos);
  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

// -- anomaly watchdogs -------------------------------------------------------

harness::ScenarioConfig drop_storm_config() {
  // High speed + load on a sparse population: link breaks and buffer
  // overflows are effectively certain within a few seconds.
  harness::ScenarioConfig cfg;
  cfg.num_nodes = 14;
  cfg.num_pairs = 6;
  cfg.pkts_per_s = 40.0;
  cfg.mean_speed_kmh = 120.0;
  cfg.sim_s = 20.0;
  cfg.seed = 11;
  cfg.watchdogs = true;
  cfg.anomaly.drop_rate_per_s = 1.0;  // any drop in a window trips it
  cfg.anomaly.discovery_failures = 1;
  cfg.anomaly.stall_s = 0.0;      // focus the test on the drop monitors
  cfg.anomaly.queue_backlog = 0;  // (disabled thresholds)
  return cfg;
}

TEST(AnomalyWatchdog, DropStormTriggersDeterministically) {
  auto cfg = drop_storm_config();
  cfg.flight_recorder = 1 << 12;
  cfg.flight_dump =
      (std::filesystem::temp_directory_path() / "rica_anomaly_a.jsonl")
          .string();
  const auto a = harness::run_scenario(cfg);
  const std::string dump_a = slurp(cfg.flight_dump);
  std::filesystem::remove(cfg.flight_dump);

  cfg.flight_dump =
      (std::filesystem::temp_directory_path() / "rica_anomaly_b.jsonl")
          .string();
  const auto b = harness::run_scenario(cfg);
  const std::string dump_b = slurp(cfg.flight_dump);
  std::filesystem::remove(cfg.flight_dump);

  ASSERT_GT(a.dropped, 0u) << "the crafted storm must actually drop";
  const auto stat = [](const harness::ScenarioResult& r, const char* name) {
    const auto it = r.stats.find(name);
    return it == r.stats.end() ? -1.0 : it->second.value;
  };
  EXPECT_GT(stat(a, "anomaly.drop_spike"), 0.0);
  EXPECT_EQ(stat(a, "anomaly.dumps"), 1.0);
  // Determinism: identical triggers, counters, and dump bytes on rerun.
  EXPECT_EQ(stat(a, "anomaly.drop_spike"), stat(b, "anomaly.drop_spike"));
  EXPECT_EQ(stat(a, "anomaly.discovery_storm"),
            stat(b, "anomaly.discovery_storm"));
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  ASSERT_FALSE(dump_a.empty());
  EXPECT_EQ(dump_a, dump_b);
  // The dump was triggered by a watchdog, not the exit path.
  EXPECT_EQ(dump_a.find("\"trigger\":\"exit\""), std::string::npos);
}

TEST(AnomalyWatchdog, WatchdogsDoNotPerturbTheStreamHash) {
  auto cfg = drop_storm_config();
  cfg.watchdogs = false;
  const auto plain = harness::run_scenario(cfg);
  cfg.watchdogs = true;
  cfg.flight_recorder = 1 << 10;
  const auto instrumented = harness::run_scenario(cfg);
  EXPECT_EQ(plain.stream_hash, instrumented.stream_hash);
  EXPECT_EQ(plain.delivered, instrumented.delivered);
  EXPECT_EQ(plain.dropped, instrumented.dropped);
}

TEST(AnomalyWatchdog, FlightDumpWithoutRecorderIsRejected) {
  harness::ScenarioConfig cfg;
  cfg.flight_dump = "somewhere.jsonl";
  EXPECT_THROW(harness::validate_scenario(cfg), std::invalid_argument);
}

// -- log-bucketed histograms -------------------------------------------------

TEST(LogHistogram, SmallValuesAreExact) {
  obs::LogHistogram h;
  for (std::int64_t v = 0; v < obs::LogHistogram::kLinearMax; ++v) {
    EXPECT_EQ(obs::LogHistogram::bucket_index(v), v);
    EXPECT_EQ(obs::LogHistogram::representative(v), v);
  }
  h.record(5);
  h.record(5);
  h.record(63);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 73);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 63.0);
}

TEST(LogHistogram, BucketBoundsAreConsistent) {
  // representative(v) is the upper edge of v's bucket: v <= rep(v), the
  // relative error is bounded by 1/32, and rep is idempotent.
  for (std::int64_t v : {64LL, 65LL, 100LL, 1000LL, (1LL << 20) + 123LL,
                         123456789012LL}) {
    const auto rep = obs::LogHistogram::representative(v);
    EXPECT_GE(rep, v);
    EXPECT_LE(rep - v, v / obs::LogHistogram::kSubBuckets + 1);
    EXPECT_EQ(obs::LogHistogram::bucket_index(rep),
              obs::LogHistogram::bucket_index(v));
    EXPECT_EQ(obs::LogHistogram::representative(rep), rep);
  }
}

TEST(LogHistogram, MergeIsExactAndAssociative) {
  const auto fill = [](obs::LogHistogram& h, std::uint64_t seed, int n) {
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      h.record(static_cast<std::int64_t>(x >> 24));
    }
  };
  obs::LogHistogram a, b, c;
  fill(a, 1, 500);
  fill(b, 2, 300);
  fill(c, 3, 700);

  // (a + b) + c == a + (b + c), and the pool sees every sample.
  obs::LogHistogram left = a;
  left.merge(b);
  left.merge(c);
  obs::LogHistogram bc = b;
  bc.merge(c);
  obs::LogHistogram right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  EXPECT_EQ(left.count(), 1500u);
  EXPECT_EQ(left.sum(), a.sum() + b.sum() + c.sum());
  EXPECT_DOUBLE_EQ(left.percentile(95.0), right.percentile(95.0));

  // Merging an empty histogram is the identity.
  obs::LogHistogram with_empty = left;
  with_empty.merge(obs::LogHistogram{});
  EXPECT_EQ(with_empty, left);
}

TEST(LogHistogram, RegistryPoolsAcrossTrials) {
  obs::Registry reg;
  auto& h = reg.histogram("x");
  h.record(10);
  h.record(100);
  const auto snap = reg.histogram_snapshot();
  ASSERT_EQ(snap.count("x"), 1u);
  EXPECT_EQ(snap.at("x").count(), 2u);
  EXPECT_EQ(snap.at("x"), h);
}

TEST(Average, PoolsDelayHistogramsExactly) {
  // Two hand-built trials with very different delay distributions: the
  // pooled p95 must come from the merged histogram, not the per-trial mean.
  stats::MetricsSummary r1;
  stats::MetricsSummary r2;
  obs::LogHistogram h1, h2;
  const std::int64_t ms = 1'000'000;
  for (int i = 0; i < 95; ++i) h1.record(10 * ms);
  for (int i = 0; i < 5; ++i) h1.record(1000 * ms);
  for (int i = 0; i < 100; ++i) h2.record(10 * ms);
  r1.histograms.emplace("delay_ns", h1);
  r2.histograms.emplace("delay_ns", h2);
  r1.delay_p95_ms = h1.percentile(95.0) / 1e6;
  r2.delay_p95_ms = h2.percentile(95.0) / 1e6;

  const auto avg = harness::average({r1, r2});
  obs::LogHistogram pooled = h1;
  pooled.merge(h2);
  // 195/200 samples are ~10ms, so the pooled p95 is the 10ms bucket — a
  // mean of per-trial p95s would have been ~halfway to the 1000ms bucket.
  EXPECT_DOUBLE_EQ(avg.delay_p95_ms, pooled.percentile(95.0) / 1e6);
  EXPECT_DOUBLE_EQ(
      avg.delay_p95_ms,
      static_cast<double>(obs::LogHistogram::representative(10 * ms)) / 1e6);
  ASSERT_EQ(avg.histograms.count("delay_ns"), 1u);
  EXPECT_EQ(avg.histograms.at("delay_ns").count(), 200u);
}

}  // namespace
