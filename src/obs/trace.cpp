#include "obs/trace.hpp"

#include <cassert>
#include <cinttypes>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"

namespace rica::obs {

namespace {

/// All strings reaching the JSONL writer are internal identifiers (stage
/// names, protocol names, drop reasons) — no quotes/backslashes/control
/// characters — so they embed directly.  The debug assert pins that
/// assumption at every emission site.
void check_bare(std::string_view s) {
  for (const char c : s) {
    (void)c;
    assert(c >= 0x20 && c != '"' && c != '\\' &&
           "trace strings must be bare identifiers");
  }
}

}  // namespace

TraceFilter parse_trace_filter(std::string_view spec) {
  auto mask = TraceFilter::kNone;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    const auto token = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    if (token == "packet") {
      mask = mask | TraceFilter::kPacket;
    } else if (token == "route") {
      mask = mask | TraceFilter::kRoute;
    } else if (token == "kernel") {
      mask = mask | TraceFilter::kKernel;
    } else if (token == "span") {
      mask = mask | TraceFilter::kSpan;
    } else if (token == "all") {
      mask = mask | TraceFilter::kAll;
    } else {
      throw std::invalid_argument(
          "unknown trace filter '" + std::string(token) +
          "' (expected packet, route, kernel, span, all, or a comma list)");
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return mask;
}

void jsonl_write(std::FILE* f, const PacketTrace& rec) {
  check_bare(rec.stage);
  check_bare(rec.detail);
  std::fprintf(
      f,
      "{\"type\":\"packet\",\"stage\":\"%.*s\",\"t_ns\":%" PRId64
      ",\"flow\":%" PRIu32 ",\"seq\":%" PRIu32 ",\"node\":%" PRIu32
      ",\"src\":%" PRIu32 ",\"dst\":%" PRIu32 ",\"peer\":%" PRId64
      ",\"hops\":%u,\"bytes\":%" PRIu32 ",\"detail\":\"%.*s\"}\n",
      static_cast<int>(rec.stage.size()), rec.stage.data(), rec.at.nanos(),
      rec.flow, rec.seq, rec.node, rec.src, rec.dst, rec.peer,
      static_cast<unsigned>(rec.hops), rec.bytes,
      static_cast<int>(rec.detail.size()), rec.detail.data());
}

void jsonl_write(std::FILE* f, const RouteTrace& rec) {
  check_bare(rec.stage);
  check_bare(rec.protocol);
  check_bare(rec.msg);
  std::fprintf(
      f,
      "{\"type\":\"route\",\"stage\":\"%.*s\",\"t_ns\":%" PRId64
      ",\"node\":%" PRIu32 ",\"src\":%" PRIu32 ",\"dst\":%" PRIu32
      ",\"bid\":%" PRIu32
      ",\"metric\":%.6f,\"protocol\":\"%.*s\",\"msg\":\"%.*s\",\"bytes\":%"
      PRIu32 "}\n",
      static_cast<int>(rec.stage.size()), rec.stage.data(), rec.at.nanos(),
      rec.node, rec.src, rec.dst, rec.bid, rec.metric,
      static_cast<int>(rec.protocol.size()), rec.protocol.data(),
      static_cast<int>(rec.msg.size()), rec.msg.data(), rec.bytes);
}

void jsonl_write(std::FILE* f, const KernelTrace& rec) {
  std::fprintf(f,
               "{\"type\":\"kernel\",\"t_ns\":%" PRId64
               ",\"events_executed\":%" PRIu64 ",\"pending\":%" PRIu64 "}\n",
               rec.at.nanos(), rec.events_executed, rec.pending);
}

void jsonl_write(std::FILE* f, const SpanTrace& rec) {
  check_bare(rec.kind);
  check_bare(rec.detail);
  std::fprintf(
      f,
      "{\"type\":\"span\",\"kind\":\"%.*s\",\"t_ns\":%" PRId64
      ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"trace\":%" PRIu64
      ",\"flow\":%" PRIu32 ",\"seq\":%" PRIu32 ",\"node\":%" PRIu32
      ",\"src\":%" PRIu32 ",\"dst\":%" PRIu32 ",\"start_ns\":%" PRId64
      ",\"dur_ns\":%" PRId64 ",\"detail\":\"%.*s\"}\n",
      static_cast<int>(rec.kind.size()), rec.kind.data(), rec.at.nanos(),
      rec.span, rec.parent, rec.trace, rec.flow, rec.seq, rec.node, rec.src,
      rec.dst, rec.start.nanos(), rec.dur.nanos(),
      static_cast<int>(rec.detail.size()), rec.detail.data());
}

JsonlTraceSink::JsonlTraceSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open trace output file: " + path);
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void JsonlTraceSink::on_packet(const PacketTrace& rec) {
  jsonl_write(file_, rec);
}

void JsonlTraceSink::on_route(const RouteTrace& rec) {
  jsonl_write(file_, rec);
}

void JsonlTraceSink::on_kernel(const KernelTrace& rec) {
  jsonl_write(file_, rec);
}

void JsonlTraceSink::on_span(const SpanTrace& rec) { jsonl_write(file_, rec); }

// The span book taps the raw stream first (it may emit derived spans at
// this same instant, and those must precede any later-timestamped records
// in the sinks), then the two sink slots receive the record per their own
// filters.
void Tracer::packet(const PacketTrace& rec) {
  if (span_book_ != nullptr) span_book_->on_packet(rec);
  if (sink_ != nullptr && has(filter_, TraceFilter::kPacket)) {
    sink_->on_packet(rec);
  }
  if (recorder_ != nullptr && has(recorder_filter_, TraceFilter::kPacket)) {
    recorder_->on_packet(rec);
  }
}

void Tracer::route(const RouteTrace& rec) {
  if (span_book_ != nullptr) span_book_->on_route(rec);
  if (sink_ != nullptr && has(filter_, TraceFilter::kRoute)) {
    sink_->on_route(rec);
  }
  if (recorder_ != nullptr && has(recorder_filter_, TraceFilter::kRoute)) {
    recorder_->on_route(rec);
  }
}

void Tracer::kernel(const KernelTrace& rec) {
  if (sink_ != nullptr && has(filter_, TraceFilter::kKernel)) {
    sink_->on_kernel(rec);
  }
  if (recorder_ != nullptr && has(recorder_filter_, TraceFilter::kKernel)) {
    recorder_->on_kernel(rec);
  }
}

void Tracer::span(const SpanTrace& rec) {
  if (sink_ != nullptr && has(filter_, TraceFilter::kSpan)) {
    sink_->on_span(rec);
  }
  if (recorder_ != nullptr && has(recorder_filter_, TraceFilter::kSpan)) {
    recorder_->on_span(rec);
  }
}

ControlInfo control_info(const net::ControlPayload& payload) {
  struct Visitor {
    ControlInfo operator()(const net::RreqMsg& m) const {
      return {"rreq", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::RrepMsg& m) const {
      return {"rrep", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::CsiCheckMsg& m) const {
      return {"csi_check", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::RupdMsg& m) const {
      return {"rupd", m.src, m.dst, 0};
    }
    ControlInfo operator()(const net::ReerMsg& m) const {
      return {"reer", m.src, m.dst, 0};
    }
    ControlInfo operator()(const net::BgcaLqMsg& m) const {
      return {"bgca_lq", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::BgcaLqReplyMsg& m) const {
      return {"bgca_lq_reply", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AbrBeaconMsg& m) const {
      return {"abr_beacon", m.origin, 0, 0};
    }
    ControlInfo operator()(const net::AbrBqMsg& m) const {
      return {"abr_bq", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AbrReplyMsg& m) const {
      return {"abr_reply", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AbrLqMsg& m) const {
      return {"abr_lq", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AbrLqReplyMsg& m) const {
      return {"abr_lq_reply", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AbrRnMsg& m) const {
      return {"abr_rn", m.src, m.dst, 0};
    }
    ControlInfo operator()(const net::AodvRreqMsg& m) const {
      return {"aodv_rreq", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AodvRrepMsg& m) const {
      return {"aodv_rrep", m.src, m.dst, m.bid};
    }
    ControlInfo operator()(const net::AodvRerrMsg& m) const {
      return {"aodv_rerr", m.src, m.dst, 0};
    }
    ControlInfo operator()(const net::LsuMsg& m) const {
      return {"lsu", m.origin, 0, m.seq};
    }
  };
  return std::visit(Visitor{}, payload);
}

}  // namespace rica::obs
