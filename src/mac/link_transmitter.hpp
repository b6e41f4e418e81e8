// Per-link CDMA data-plane transmitter.
//
// Data packets travel on per-directed-link PN codes (multi-code CDMA, paper
// §II): links do not contend with each other, but each directed link is a
// serial server whose instantaneous rate is the current CSI class throughput
// (ABICM adapts the coding/modulation to the channel).  Every data packet is
// acknowledged on the reverse code PN(B,A); acknowledgement bits count toward
// routing overhead (§III-A).  kMaxRetries consecutive failures (the
// neighbour left transmission range) raise a link-break signal.
//
// The transmitter serves one FCFS queue per next hop with the paper's
//10-packet capacity and 3-second residency bound.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "channel/channel_model.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"
#include "util/flat_table.hpp"
#include "util/pool.hpp"

namespace rica::mac {

/// Data-plane tunables (defaults are the paper's §III-A setting).
struct LinkConfig {
  std::size_t buffer_cap = 10;                  ///< packets per link buffer
  sim::Time buffer_residency = sim::seconds(3); ///< max queueing time
  std::uint16_t hop_cap = 64;  ///< safety bound on routing loops
};

/// Serves all outgoing data links of one node.
class LinkTransmitter {
 public:
  /// Successful delivery into the neighbour: (packet, receiver id).
  using DeliverFn = std::function<void(net::DataPacket, net::NodeId)>;
  /// Link declared broken: (neighbour, packets stranded in its queue).
  using LinkBreakFn =
      std::function<void(net::NodeId, std::vector<net::DataPacket>)>;
  /// A queued packet was dropped (overflow / residency expiry).
  using DropFn = std::function<void(const net::DataPacket&, stats::DropReason)>;

  /// One buffered data packet.
  struct Queued {
    net::DataPacket pkt;
    sim::Time enqueued;
  };
  /// The node pool every link queue draws from.  One pool serves a whole
  /// network (net::Network owns it), so a receiver's enqueue reuses the
  /// node its sender just released.
  using DataPool = util::FreeListPool<Queued>;

  /// `pool` must outlive the transmitter.
  LinkTransmitter(net::NodeId self, sim::Simulator& sim,
                  channel::ChannelModel& channel,
                  stats::MetricsCollector& metrics, DataPool& pool,
                  const LinkConfig& cfg);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_on_break(LinkBreakFn fn) { on_break_ = std::move(fn); }
  void set_on_drop(DropFn fn) { on_drop_ = std::move(fn); }

  /// Enqueues a packet for `next_hop`.  Drops (and reports) on overflow or
  /// when the packet exceeded the hop cap.
  void enqueue(net::DataPacket pkt, net::NodeId next_hop);

  /// Total packets buffered across all links (ABR's load metric).
  [[nodiscard]] std::size_t buffered() const;

  /// Packets buffered toward one neighbour.
  [[nodiscard]] std::size_t queue_length(net::NodeId neighbor) const;

  /// Encoded data-frame header bits this node has put on the air (every
  /// transmission attempt charges wire::kDataHeaderBytes on top of the
  /// payload; the stats registry sums this across nodes).
  [[nodiscard]] std::uint64_t data_header_bits() const {
    return data_header_bits_;
  }

  /// Occupancy of the open-addressing link table (observability gauge).
  [[nodiscard]] double table_load() const { return links_.load_factor(); }

 private:
  struct Link {
    net::NodeId peer = 0;  ///< the neighbour this link serves
    /// Per-link FIFO over the network's data pool.
    util::PooledQueue<Queued> q;
    bool busy = false;
    int retries = 0;
    /// Frozen channel only: the class of the link's first sample, final
    /// from then on (DESIGN.md §16).
    std::optional<channel::CsiClass> csi;
    /// The end of an ACK wait that holds no event: the frame landed with
    /// nothing queued behind it.  The next pump either attaches the ACK
    /// event at this exact (time, seq) or, once it has passed, finds the
    /// link free (DESIGN.md §16).
    std::optional<sim::Reservation> ack_end;
    /// The link's single serial-server timer: at most one of {data airtime,
    /// ACK wait, retry backoff} is ever in flight, so one slot serves all
    /// three phases and declare_break() can kill the whole chain in O(1).
    sim::Timer timer;
  };

  /// The link toward `neighbor`, created (and its queue bound to the data
  /// pool) on first touch.  Links are never erased and FlatMap64 values
  /// never move, so the serving chain below and its timer callbacks hold
  /// the reference (or a pointer) instead of looking the link up again.
  Link& link(net::NodeId neighbor);

  void pump(Link& link);
  /// Schedules the ACK end at `end`: the link turns free and pumps.
  void arm_ack_end(Link& link, sim::Reservation end);
  void tx_attempt(Link& link);
  void fail(Link& link, std::string_view cause);
  void declare_break(Link& link);

  /// Packet-lifecycle trace emission for this node's data plane.  The flag
  /// test is inline, so with no sink attached a call costs one load and
  /// branch.
  void trace_pkt(std::string_view stage, const net::DataPacket& pkt,
                 net::NodeId peer, std::string_view detail = {}) {
    if (metrics_.tracer().packet_on()) {
      emit_pkt_trace(stage, pkt, peer, detail);
    }
  }
  void emit_pkt_trace(std::string_view stage, const net::DataPacket& pkt,
                      net::NodeId peer, std::string_view detail);
  /// This directed link's Perfetto data-plane track (allocated lazily).
  std::uint32_t perfetto_tid(net::NodeId neighbor);

  net::NodeId self_;
  sim::Simulator& sim_;
  channel::ChannelModel& channel_;
  stats::MetricsCollector& metrics_;
  LinkConfig cfg_;
  std::uint64_t data_header_bits_ = 0;
  DataPool& data_pool_;
  util::FlatMap64<Link> links_;
  DeliverFn deliver_;
  LinkBreakFn on_break_;
  DropFn on_drop_;
};

}  // namespace rica::mac
