// ABR — Associativity-Based Routing (Toh [12], as used in the paper's
// comparison):
//   * every terminal beacons periodically; a neighbour's "associativity
//     ticks" count consecutive beacons heard, so high ticks mean a stable,
//     long-lived link;
//   * route discovery floods a BQ (broadcast query) that accumulates the
//     aggregate associativity of the links crossed plus the relays' queue
//     load; the destination waits briefly and picks the most stable route
//     (maximum aggregate ticks, ties broken by lower load then fewer hops)
//     — the paper notes such routes tend to be longer than shortest paths;
//   * on a link break, the upstream terminal holds arriving packets and
//     issues a TTL-bounded localized query (LQ) to re-join the remaining
//     path; if that fails it backtracks one hop with an RN (route
//     notification) and the next terminal tries, until the source performs
//     a fresh BQ.  The queue buildup during LQ is what drives ABR's delay
//     growth with mobility in Fig. 2;
//   * channel state is ignored entirely (topological hops only).
#pragma once

#include <cstdint>
#include <vector>

#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "sim/timer.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// ABR tunables.
struct AbrConfig {
  sim::Time discovery_timeout = sim::milliseconds(300);
};

class AbrProtocol final : public Protocol {
 public:
  /// Per-link associativity saturation: links that survived ~20 beacon
  /// periods count as fully stable.
  static constexpr std::uint32_t kTickCap = 20;

  AbrProtocol(ProtocolHost& host, const AbrConfig& cfg = {});

  void start() override;
  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "ABR"; }
  [[nodiscard]] double table_load() const override;

  // -- white-box accessors for tests ----------------------------------------
  /// Current associativity ticks for a neighbour (0 if unknown/expired).
  [[nodiscard]] std::uint32_t ticks(net::NodeId neighbor) const;
  [[nodiscard]] std::optional<net::NodeId> downstream(net::FlowKey flow) const;

 private:
  struct Neighbor {
    std::uint32_t ticks = 0;
    sim::Time last_beacon{};
  };
  struct Candidate {
    net::NodeId first_hop = 0;
    std::uint32_t tick_sum = 0;
    std::uint32_t load_sum = 0;
    std::uint16_t topo_hops = 0;
  };
  using Entry = RepairRoute;

  void send_beacon();

  void begin_discovery(net::FlowKey flow);
  /// Floods one BQ for `flow`; returns its broadcast id.
  std::uint32_t send_bq(net::FlowKey flow);
  void close_dest_window(net::FlowKey flow);
  void start_local_query(net::FlowKey flow);
  void finish_local_query(net::FlowKey flow, std::uint32_t bid);
  void backtrack(net::FlowKey flow, Entry& e);

  void on_beacon(net::NodeId from);
  void on_bq(const net::AbrBqMsg& msg, net::NodeId from);
  void on_reply(const net::AbrReplyMsg& msg, net::NodeId from);
  void on_lq(const net::AbrLqMsg& msg, net::NodeId from);
  void on_lq_reply(const net::AbrLqReplyMsg& msg, net::NodeId from);
  void on_rn(const net::AbrRnMsg& msg, net::NodeId from);

  AbrConfig cfg_;
  FloodHistory history_;
  sim::Timer beacon_timer_;  ///< the node-wide periodic beacon
  util::FlatMap64<Neighbor> neighbors_;
  util::FlatMap64<Entry> entries_;
  util::FlatMap64<SourceDiscovery> sources_;
  util::FlatMap64<CandidateWindow<Candidate>> dests_;  ///< BQ windows
  util::FlatMap64<LocalQuery> queries_;  ///< the queries this node started
  RepairHold repair_pending_;
  std::uint32_t next_bid_ = 1;
};

}  // namespace rica::routing
