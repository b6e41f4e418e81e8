// AODV, as the paper uses it for comparison (§I, §III):
//   * pure on-demand: RREQ flood with per-(src,bid) dedup; each relay
//     remembers the upstream of the FIRST copy (reverse path);
//   * the destination answers only the first RREQ copy — "chooses the path
//     this RREQ has gone through although this route is usually not the
//     shortest one" — with a unicast RREP along the reverse path;
//   * topological hop metric; channel state is ignored entirely;
//   * no hello messages: link breaks surface through the data plane;
//   * on a break, stranded packets are discarded and a RERR travels to the
//     source, which re-floods.
#pragma once

#include <cstdint>

#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// Tunables for the AODV comparator.
struct AodvConfig {
  sim::Time discovery_timeout = sim::milliseconds(200);  ///< RREP wait
};

class AodvProtocol final : public Protocol {
 public:
  AodvProtocol(ProtocolHost& host, const AodvConfig& cfg = {});

  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "AODV"; }
  [[nodiscard]] double table_load() const override;

  /// Forwarding entry for `dst`, if valid and fresh (exposed for tests).
  [[nodiscard]] std::optional<net::NodeId> next_hop(net::NodeId dst) const;

 private:
  struct Route {
    net::NodeId next = 0;
    std::uint16_t hops = 0;
    bool valid = false;
    sim::Time last_used{};
  };

  void begin_discovery(net::NodeId dst);
  /// Floods one RREQ toward `dst`; returns its broadcast id.
  std::uint32_t send_rreq(net::NodeId dst);
  void on_rreq(const net::AodvRreqMsg& msg, net::NodeId from);
  void on_rrep(const net::AodvRrepMsg& msg, net::NodeId from);
  void on_rerr(const net::AodvRerrMsg& msg, net::NodeId from);
  void flush_pending(net::NodeId dst);

  AodvConfig cfg_;
  FloodHistory history_;
  util::FlatMap64<Route> routes_;         // dst -> entry
  util::FlatMap64<SourceDiscovery> discovery_;  // dst -> state
  // Upstream of the most recent data packet per destination; RERRs retrace
  // this path toward the source (a light-weight precursor list).
  util::FlatMap64<net::NodeId> precursor_;
  std::uint32_t next_bid_ = 1;
};

}  // namespace rica::routing
