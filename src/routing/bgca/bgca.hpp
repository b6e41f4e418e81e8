// BGCA — Bandwidth-Guarded Channel-Adaptive routing [13], as characterized
// in the RICA paper (§I, §III):
//   * discovery is source-initiated with the same CSI-hop metric as RICA
//     (the destination picks the CSI-shortest RREQ copy);
//   * the protocol is "passive/reactive": it leaves a working route alone
//     and acts only when a link's class throughput falls below the flow's
//     bandwidth requirement (deep fade) or the link breaks outright;
//   * the repair is local: the upstream terminal of the offending link
//     issues a TTL-bounded local query (LQ) for a partial route that
//     rejoins the flow's live downstream path (or the destination), and
//     splices the best reply in;
//   * failed local repair escalates to the source, which re-floods.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "sim/timer.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// BGCA tunables.  `flow_rate_bps` must be set by the harness from the
/// offered traffic so the bandwidth guard has a requirement to enforce.
struct BgcaConfig {
  double flow_rate_bps = 41'000.0;     ///< offered bits/s per flow
  sim::Time discovery_timeout = sim::milliseconds(200);
};

class BgcaProtocol final : public Protocol {
 public:
  BgcaProtocol(ProtocolHost& host, const BgcaConfig& cfg = {});

  void start() override;
  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "BGCA"; }
  [[nodiscard]] double table_load() const override;

  /// The bandwidth requirement the guard enforces, bits/s.
  [[nodiscard]] double requirement_bps() const;

  // -- white-box accessors for tests ----------------------------------------
  [[nodiscard]] std::optional<net::NodeId> downstream(net::FlowKey flow) const;

 private:
  using Candidate = CsiCandidate;
  /// Per-flow routing state; a node is source, relay, or both (never for the
  /// same flow).
  struct Entry : RepairRoute {
    sim::Time last_lq{};
    int strikes = 0;  ///< consecutive guard violations observed
  };

  void begin_discovery(net::FlowKey flow);
  /// Floods one RREQ for `flow`; returns its broadcast id.
  std::uint32_t send_rreq(net::FlowKey flow);
  void monitor_links();
  void start_local_query(net::FlowKey flow, bool broken);
  void finish_local_query(net::FlowKey flow, std::uint32_t bid);

  void on_rreq(const net::RreqMsg& msg, net::NodeId from);
  void on_rrep(const net::RrepMsg& msg, net::NodeId from);
  void on_lq(const net::BgcaLqMsg& msg, net::NodeId from);
  void on_lq_reply(const net::BgcaLqReplyMsg& msg, net::NodeId from);
  void on_reer(const net::ReerMsg& msg, net::NodeId from);
  void close_dest_window(net::FlowKey flow);

  void escalate_to_source(net::FlowKey flow, Entry& e);
  void flush_pending(net::FlowKey flow);
  void forward_or_drop(net::DataPacket pkt, Entry& e);

  [[nodiscard]] sim::Time forward_jitter(channel::CsiClass cls);

  BgcaConfig cfg_;
  FloodHistory history_;
  sim::Timer monitor_timer_;  ///< the periodic bandwidth-guard sweep
  util::FlatMap64<Entry> entries_;
  util::FlatMap64<SourceDiscovery> sources_;
  util::FlatMap64<CandidateWindow<Candidate>> dests_;  ///< RREQ windows
  util::FlatMap64<LocalQuery> queries_;  ///< the queries this node started
  RepairHold repair_pending_;
  std::uint32_t next_bid_ = 1;
};

}  // namespace rica::routing
