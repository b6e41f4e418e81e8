// The routing-protocol abstraction.
//
// A Protocol owns all routing state of one terminal and reacts to three
// kinds of events: data packets entering the node (originated locally or
// received from a neighbour), control packets from the common channel, and
// link-break signals from the data plane.  It acts on the world exclusively
// through its ProtocolHost — sending control packets, queueing data toward a
// next hop, querying the local channel state — which keeps every protocol
// implementation independent of the node/MAC plumbing and makes protocols
// unit-testable against a mock host.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "channel/csi.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica::routing {

class FloodLog;

/// Services a node offers to its routing protocol.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  /// This terminal's identifier.
  [[nodiscard]] virtual net::NodeId id() const = 0;

  /// The simulation kernel (for now() and timers).
  virtual sim::Simulator& simulator() = 0;

  /// Per-node random stream for protocol jitter decisions.
  virtual sim::RandomStream& protocol_rng() = 0;

  /// The network's flood log, which holds this terminal's history table
  /// (routing/flood_log.hpp).
  virtual FloodLog& flood_log() = 0;

  /// Queues a control packet on the common channel (CSMA/CA applies).
  virtual void send_control(net::ControlPacket pkt) = 0;

  /// Measures the CSI class of the link to `neighbor` right now
  /// (nullopt if out of range).  This is the "measure the CSI of the link
  /// through which this RREQ comes" primitive of §II-B.
  virtual std::optional<channel::CsiClass> link_csi(net::NodeId neighbor) = 0;

  /// Every link this terminal senses right now: the nodes within
  /// transmission range with their CSI classes, ascending by id (local PHY
  /// knowledge).  Valid until the next call.
  virtual const channel::LinkRow& link_row() = 0;

  /// True when link_row() can never change again: the channel is frozen (no
  /// node moves), so the first row sensed is final.
  [[nodiscard]] virtual bool links_final() const = 0;

  /// Queues a data packet on the link buffer toward `next_hop`.
  virtual void forward_data(net::DataPacket pkt, net::NodeId next_hop) = 0;

  /// The packet reached its destination: record delivery.
  virtual void deliver_local(const net::DataPacket& pkt) = 0;

  /// Discards a data packet, recording the reason.
  virtual void drop_data(const net::DataPacket& pkt,
                         stats::DropReason reason) = 0;

  /// Total data packets buffered at this node (ABR's load metric).
  [[nodiscard]] virtual std::size_t buffered_count() const = 0;

  /// Named diagnostic counter (forwarded to the metrics collector).
  virtual void count(const std::string& name, std::uint64_t by = 1) = 0;

  /// Emits a route-lifecycle trace record (stage: discovery_start,
  /// discovery_retry, discovery_failed, established, repair_start,
  /// repaired, link_break, topology_install).  Default is a no-op so mock
  /// hosts and trace-disabled runs pay nothing; Node forwards to the
  /// metrics collector's tracer, stamping node id, protocol name, and the
  /// current sim time.  `metric` is stage-dependent (CSI distance, hop
  /// count, stability score); `detail` is free-form context (failure cause,
  /// selected relay) landing in the record's `msg` field.
  virtual void trace_route(std::string_view stage, net::NodeId src,
                           net::NodeId dst, std::uint32_t bid = 0,
                           double metric = 0.0, std::string_view detail = {}) {
    (void)stage;
    (void)src;
    (void)dst;
    (void)bid;
    (void)metric;
    (void)detail;
  }
};

/// A routing protocol instance bound to one terminal.
class Protocol {
 public:
  explicit Protocol(ProtocolHost& host) : host_(host) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once at simulation start (arm periodic timers here).
  virtual void start() {}

  /// A data packet entered this node.  `from` equals id() when the packet
  /// was originated locally by the traffic generator.
  virtual void handle_data(net::DataPacket pkt, net::NodeId from) = 0;

  /// A control packet arrived from the common channel.
  virtual void on_control(const net::ControlPacket& pkt, net::NodeId from) = 0;

  /// The data plane declared the link to `neighbor` broken; `stranded` holds
  /// the packets that were queued on it.
  virtual void on_link_break(net::NodeId neighbor,
                             std::vector<net::DataPacket> stranded) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Peak occupancy across this protocol's open-addressing tables (route /
  /// history / upstream maps), 0 when the protocol keeps none.  Surfaced as
  /// the `table_load` observability gauge in MetricsSummary.
  [[nodiscard]] virtual double table_load() const { return 0.0; }

 protected:
  ProtocolHost& host() { return host_; }
  [[nodiscard]] const ProtocolHost& host() const { return host_; }
  /// The simulated clock.
  [[nodiscard]] sim::Time now() const { return host_.simulator().now(); }

 private:
  ProtocolHost& host_;
};

}  // namespace rica::routing
