// The shared 250 kbps control channel with unslotted CSMA/CA (paper §III-A).
//
// All routing packets travel on one common channel; data packets travel on
// per-link CDMA codes (see link_transmitter.hpp).  The paper assumes the
// common channel is "robust" against fading, so receptions here fail only
// due to collisions, which this MAC models explicitly:
//   * carrier sense: a node defers (random backoff) while any transmission
//     whose sender is within range is on the air;
//   * hidden terminals: a reception at r fails when a second transmission
//     covering r overlaps the packet in time (no capture effect);
//   * half duplex: a node transmitting cannot simultaneously receive;
//   * bounded per-node control queue: drop-tail under overload — this is the
//     mechanism behind the paper's link-state congestion collapse.
//
// Both collision and carrier-sense state are kept per node in two fields:
// `busy_until`, the latest end among the frames covering it (the node's own
// transmission included), and `lone`, the last frame that landed on it while
// it was idle.  A frame that lands on a busy node is collided, and so is the
// lone frame if it is still on the air; a frame that lands on an idle node
// starts uncollided and becomes the new lone frame.  At most one lone frame
// is live per node, because the node stays busy until it ends, so a landing
// and a carrier sense are O(1).  Each in-flight transmission holds one
// `rx_collided` flag per receiver, which end-of-tx reads instead of scanning
// the node's history.  DESIGN.md §13 shows why this equals the interval
// overlap rule; tests/mac_diff_test.cpp checks it against the old scan.
//
// Each transmission is charged size*8 bits of routing overhead exactly once
// (per §III-A: "each time the common channel is used ... counted as one
// transmission"), regardless of how many neighbours hear it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "channel/channel_model.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"
#include "util/pool.hpp"

namespace rica::mac {

/// Tunables of the common channel MAC.
struct CommonChannelConfig {
  double rate_bps = 250'000.0;            ///< paper: 250 kbps common channel
  sim::Time backoff_min = sim::microseconds(500);
  sim::Time backoff_max = sim::milliseconds(4);
  /// Per-node control queue bound.  Deliberately deep (plain FIFO, no AQM —
  /// faithful to 2002-era MACs): under flooding overload packets are not
  /// so much lost as delivered *late*, which is what lets stale link-state
  /// updates poison remote views (§III-B).
  std::size_t queue_cap = 500;
  int unicast_attempts = 3;               ///< CSMA/CA ACK-retransmit emulation
};

/// Network-wide CSMA/CA MAC for control traffic.
class CommonChannelMac {
 public:
  /// Reception callback: (packet, transmitter id).
  using RxHandler = std::function<void(const net::ControlPacket&, net::NodeId)>;

  CommonChannelMac(sim::Simulator& sim, channel::ChannelModel& channel,
                   const sim::RngManager& rng, stats::MetricsCollector& metrics,
                   const CommonChannelConfig& cfg);

  /// Registers a node's receive handler.  Must be called once per node
  /// before any send().
  void register_node(net::NodeId id, RxHandler handler);

  /// Queues a control packet for CSMA transmission from `from`.  Broadcasts
  /// (pkt.to == kBroadcastId) reach every in-range node; unicasts reach only
  /// pkt.to.  Either way collisions can destroy individual receptions.
  void send(net::NodeId from, net::ControlPacket pkt);

  /// Transmission airtime of a packet at the common-channel rate.
  [[nodiscard]] sim::Time airtime(std::uint16_t size_bytes) const;

  [[nodiscard]] const CommonChannelConfig& config() const { return cfg_; }

  /// Peak live control-queue entries across the whole MAC (pool gauge).
  [[nodiscard]] std::size_t pool_high_water() const;
  /// Bytes the control-queue pool holds in chunks (pool gauge).
  [[nodiscard]] std::size_t pool_bytes() const;

 private:
  /// A frame covering a node: its sender's transmission until `end`.
  /// `slot` indexes the sender's tx_receivers (and rx_collided); a node's
  /// own transmission uses kOwnSlot, since there is no reception to mark.
  struct ActiveRx {
    sim::Time end;
    net::NodeId sender = 0;
    std::uint32_t slot = 0;
  };
  static constexpr std::uint32_t kOwnSlot = UINT32_MAX;
  struct QueuedControl {
    net::ControlPacket pkt;
    int attempts = 0;
  };
  struct NodeState {
    /// Control FIFO over the MAC-wide free-list pool: a flood burst on one
    /// node reuses the queue nodes another node just released.
    util::PooledQueue<QueuedControl> queue;
    RxHandler handler;
    sim::RandomStream rng{0};
    bool transmitting = false;
    /// The node's single CSMA contention timer: armed while a carrier-sense
    /// attempt is scheduled (its armed() state replaces the old
    /// attempt_pending flag).
    sim::Timer attempt_timer;
    /// The latest end among the frames covering this node: it senses a
    /// carrier while busy_until > now.
    sim::Time busy_until;
    /// The last frame that landed while the node was idle: the only frame
    /// covering it that can still be uncollided.
    ActiveRx lone;
    // In-flight transmission state, valid while `transmitting` (half duplex:
    // one tx at a time).  Keeping it here — not in the end-of-tx closure —
    // is what lets that closure capture just [this, id], and `tx_receivers`
    // keeps its capacity across transmissions (no per-tx allocation).
    QueuedControl in_flight;
    std::vector<net::NodeId> tx_receivers;
    /// rx_collided[i]: another frame overlapped this one at tx_receivers[i].
    /// Bytes, not vector<bool>: resized and read once per receiver per tx.
    std::vector<std::uint8_t> rx_collided;
    sim::Time tx_start;
    sim::Time tx_end;
  };

  void schedule_attempt(net::NodeId id, sim::Time delay);
  void attempt(net::NodeId id);
  /// Route-lifecycle trace emission for control transmissions and
  /// collision losses.  The flag test is inline, so with no sink attached
  /// a call costs one load and branch.
  void trace_control(std::string_view stage, net::NodeId node,
                     const net::ControlPacket& pkt) {
    if (metrics_.tracer().route_on()) emit_control_trace(stage, node, pkt);
  }
  void emit_control_trace(std::string_view stage, net::NodeId node,
                          const net::ControlPacket& pkt);
  void start_tx(net::NodeId id);
  void end_of_tx(net::NodeId id);
  /// True while a frame covering `st` is on the air.
  static bool on_air(const NodeState& st, sim::Time now);
  /// Carrier sense: transmitting, or a frame covering the node on the air.
  [[nodiscard]] static bool medium_busy(const NodeState& st, sim::Time now);
  /// A frame lands on `st` at `now`: any frame still covering it collides
  /// with the new one, both ways.  Returns whether the new frame collided.
  bool land(NodeState& st, ActiveRx rx, sim::Time now);
  [[nodiscard]] sim::Time random_backoff(NodeState& st);

  sim::Simulator& sim_;
  channel::ChannelModel& channel_;
  stats::MetricsCollector& metrics_;
  CommonChannelConfig cfg_;
  /// Shared control-queue node pool; must outlive nodes_ (declared first).
  util::FreeListPool<QueuedControl> ctrl_pool_;
  std::vector<NodeState> nodes_;
};

}  // namespace rica::mac
