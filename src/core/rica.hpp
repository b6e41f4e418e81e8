// RICA — Receiver-Initiated Channel-Adaptive routing (the paper's §II).
//
// Route discovery (§II-B): the source floods a RREQ whose hop count
// accumulates CSI-based hop distances (1 / 1.67 / 3.33 / 5 per link class);
// every relay remembers the upstream of the first copy; the destination
// collects the copies arriving over distinct last hops for a short window
// and unicasts a RREP along the CSI-shortest one.
//
// Receiver-initiated adaptation (§II-C): while the flow is active the
// destination periodically broadcasts a TTL-bounded CSI-checking packet.
// Each relay forwards it once, adding the measured CSI distance of the link
// it arrived on, remembers the neighbour it first heard it from (its future
// downstream), and names that neighbour in the rebroadcast so the neighbour
// can overhear and arm its PN-code detection window.  The source gathers the
// checks for 40 ms, picks the CSI-shortest candidate, and — if it differs
// from the current route — unicasts a RUPD to the new first hop and marks
// the next data packet with the update flag; the flag re-anchors each relay
// to its first-check downstream as the packet travels.
//
// Route maintenance (§II-D): per-packet data ACKs detect breaks; REERs are
// forwarded upstream only when they arrive from the terminal's *current*
// downstream (stale reports from abandoned routes are ignored); a source
// receiving a REER switches to the best fresh CSI-check candidate when one
// exists and falls back to a fresh RREQ otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "sim/timer.hpp"
#include "util/flat_table.hpp"

namespace rica::core {

/// RICA tunables.  The default checking period is the paper's 1 s.  The
/// protocol constants the paper fixes (100 ms PN detection window, 40 ms
/// source wait) are named in rica.cpp; the discovery constants shared with
/// the comparators (destination wait, flood TTL, attempts, pending buffer)
/// live in routing/tables.hpp.
struct RicaConfig {
  sim::Time check_period = sim::seconds(1);
  sim::Time discovery_timeout = sim::milliseconds(200);
  /// Forwarding of RREQ/CSI-check floods is deferred proportionally to the
  /// CSI hop distance of the incoming link (plus a small random dither), so
  /// the first copy to arrive anywhere travelled an approximately
  /// CSI-shortest path.  This is how the first-copy-forwarding rule of §II
  /// ends up electing channel-adaptive routes.
  sim::Time csi_jitter = sim::milliseconds(10);
};

class RicaProtocol final : public routing::Protocol {
 public:
  RicaProtocol(routing::ProtocolHost& host, const RicaConfig& cfg = {});

  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "RICA"; }
  [[nodiscard]] double table_load() const override;

  // -- white-box accessors for tests ----------------------------------------
  /// The source's current first hop for (this node -> dst), if valid.
  [[nodiscard]] std::optional<net::NodeId> source_next_hop(
      net::NodeId dst) const;
  /// A relay's current downstream for the flow, if its entry is live.
  [[nodiscard]] std::optional<net::NodeId> relay_downstream(
      net::FlowKey flow) const;
  /// Latest first-check downstream candidate recorded at this relay.
  [[nodiscard]] std::optional<net::NodeId> check_candidate(
      net::FlowKey flow) const;
  /// The overheard possible upstream (§II-C), while its detection window
  /// is open.
  [[nodiscard]] std::optional<net::NodeId> upstream_candidate(
      net::FlowKey flow) const;

 private:
  /// One CSI-check (or RREQ) derived route candidate.
  using Candidate = routing::CsiCandidate;
  struct SourceState {
    bool valid = false;
    net::NodeId next_hop = 0;
    double route_csi_cost = 1e9;    ///< CSI distance of the current route,
                                    ///< refreshed by the checking rounds
    sim::Time update_flag_until{};  ///< tag data packets with the route
                                    ///< update flag until this time (§II-C)
    routing::SourceDiscovery discovery;
    // CSI-check collection
    routing::CandidateWindow<Candidate> checks;
    std::vector<Candidate> last_candidates;  ///< last closed window
    sim::Time last_window_close{};
    sim::Time last_check_seen{};
  };
  /// A relay's entry for one flow.  Entries never expire: `valid` alone
  /// gates forwarding, and only a REER from the downstream or a break of
  /// the downstream link clears it.
  struct RelayState {
    bool valid = false;
    net::NodeId upstream = 0;
    net::NodeId downstream = 0;
    std::uint16_t hops_to_dst = 0;
    // first CSI check of the latest broadcast id seen here
    std::uint32_t check_bid = 0;
    net::NodeId check_next = 0;
    bool check_next_valid = false;
    // overheard possible-upstream (PN detection window bookkeeping)
    net::NodeId cand_upstream = 0;
    sim::Time cand_upstream_expiry{};
  };
  struct DestState {
    /// Periodic §II-C checking timer; armed() means a check is scheduled.
    /// Goes quiet (fires once more, then stays disarmed) when the flow
    /// idles past kFlowActiveTimeout.
    sim::Timer check_timer;
    sim::Time last_data{};
    std::uint16_t route_hops = 4;  ///< TTL basis, refreshed by delivered data
    routing::CandidateWindow<Candidate> rreqs;  ///< RREQ collection window
  };

  // -- source side -----------------------------------------------------------
  void source_send(SourceState& s, net::FlowKey flow, net::DataPacket pkt);
  void begin_discovery(net::FlowKey flow, SourceState& s);
  /// Floods one RREQ for `flow`; returns its broadcast id.
  std::uint32_t send_rreq(net::FlowKey flow);
  void switch_route(net::FlowKey flow, SourceState& s,
                    const Candidate& chosen);
  void close_source_window(net::FlowKey flow);
  bool try_candidate_fallback(net::FlowKey flow, SourceState& s,
                              net::NodeId exclude);
  void flush_pending(net::FlowKey flow, SourceState& s);

  // -- destination side ------------------------------------------------------
  void arm_checks(net::FlowKey flow);
  void broadcast_check(net::FlowKey flow);
  void close_dest_window(net::FlowKey flow);

  // -- message handlers ------------------------------------------------------
  void on_rreq(const net::RreqMsg& msg, net::NodeId from);
  void on_rrep(const net::RrepMsg& msg, net::NodeId from);
  void on_check(const net::CsiCheckMsg& msg, net::NodeId from);
  void on_rupd(const net::RupdMsg& msg, net::NodeId from);
  void on_reer(const net::ReerMsg& msg, net::NodeId from);

  /// CSI-proportional flood-forwarding delay for the link class `cls`.
  [[nodiscard]] sim::Time forward_jitter(channel::CsiClass cls);

  RicaConfig cfg_;
  routing::FloodHistory history_;
  util::FlatMap64<SourceState> sources_;
  util::FlatMap64<RelayState> relays_;
  util::FlatMap64<DestState> dests_;
  std::uint32_t next_bid_ = 1;
  /// CSI checks are keyed (destination, bid) in the flood history, so the
  /// checks of every flow this terminal terminates draw from one counter:
  /// two flows' checks sharing a key would make relays drop the second as a
  /// duplicate of the first.
  std::uint32_t next_check_bid_ = 1;
};

}  // namespace rica::core
