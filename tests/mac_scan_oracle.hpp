// Test-only oracle: the interval-scan CommonChannelMac, kept verbatim as the
// reference the active-reception MAC in src/mac/common_channel.* is checked
// against (tests/mac_diff_test.cpp).
//
// Every transmission covering a node is remembered as a [start, end) interval
// in that node's `heard` vector; carrier sense and the end-of-tx collision
// check both scan it.  The vector is pruned only when its node contends, and
// only of intervals that ended more than kHeardHorizon ago — which is why a
// frame with more than 50 ms of airtime (over 1562 B) can lose the record of
// a short frame that hit it near its start.  Differential schedules therefore
// keep frames at or below 1500 B.
//
// Header-only and in its own namespace so it never links into rica_core.
// Apart from the namespace, the `inline` keywords and reusing the library's
// CommonChannelConfig, the code is the pre-replacement implementation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "channel/channel_model.hpp"
#include "mac/common_channel.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "obs/perfetto.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"
#include "util/pool.hpp"

namespace rica::mac::scan_oracle {

using mac::CommonChannelConfig;

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

 private:
  struct Interval {
    sim::Time start;
    sim::Time end;
    std::uint64_t tx_id = 0;
  };
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
    std::vector<Interval> heard;  ///< transmissions covering this node
    // In-flight transmission state, valid while `transmitting` (half duplex:
    // one tx at a time).  Keeping it here — not in the end-of-tx closure —
    // is what lets that closure capture just [this, id], and `tx_receivers`
    // keeps its capacity across transmissions (no per-tx allocation).
    QueuedControl in_flight;
    std::vector<net::NodeId> tx_receivers;
    sim::Time tx_start;
    sim::Time tx_end;
    std::uint64_t tx_id = 0;
  };

  void schedule_attempt(net::NodeId id, sim::Time delay);
  void attempt(net::NodeId id);
  /// Route-lifecycle trace emission for control transmissions and
  /// collision losses (no-op with no sink attached).
  void trace_control(std::string_view stage, net::NodeId node,
                     const net::ControlPacket& pkt);
  void start_tx(net::NodeId id);
  void end_of_tx(net::NodeId id);
  [[nodiscard]] bool medium_busy(const NodeState& st, sim::Time now) const;
  void prune_heard(NodeState& st, sim::Time now) const;
  [[nodiscard]] sim::Time random_backoff(NodeState& st);

  sim::Simulator& sim_;
  channel::ChannelModel& channel_;
  stats::MetricsCollector& metrics_;
  CommonChannelConfig cfg_;
  /// Shared control-queue node pool; must outlive nodes_ (declared first).
  util::FreeListPool<QueuedControl> ctrl_pool_;
  std::vector<NodeState> nodes_;
  std::uint64_t next_tx_id_ = 1;
};

namespace {
/// Intervals older than this are irrelevant to any in-flight reception.
constexpr sim::Time kHeardHorizon = sim::milliseconds(50);
}  // namespace

inline CommonChannelMac::CommonChannelMac(sim::Simulator& sim,
                                   channel::ChannelModel& channel,
                                   const sim::RngManager& rng,
                                   stats::MetricsCollector& metrics,
                                   const CommonChannelConfig& cfg)
    : sim_(sim), channel_(channel), metrics_(metrics), cfg_(cfg) {
  nodes_.resize(channel.num_nodes());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].rng = rng.stream("mac", i);
    nodes_[i].queue.bind(ctrl_pool_);
  }
}

inline std::size_t CommonChannelMac::pool_high_water() const {
  return ctrl_pool_.high_water();
}

inline void CommonChannelMac::trace_control(std::string_view stage, net::NodeId node,
                                     const net::ControlPacket& pkt) {
  auto& tracer = metrics_.tracer();
  if (!tracer.route_on()) return;
  const auto info = obs::control_info(pkt.payload);
  // size_bytes is the frame's exact encoded size (asserted in send()), so
  // control_tx records carry byte-exact on-air cost — trace_query.py joins
  // them on (src, dst, bid) to attribute control bytes per discovery.
  tracer.route(obs::RouteTrace{stage, sim_.now(), node, info.src, info.dst,
                               info.bid, 0.0, {}, info.name,
                               pkt.size_bytes});
}

inline void CommonChannelMac::register_node(net::NodeId id, RxHandler handler) {
  assert(id < nodes_.size());
  nodes_[id].handler = std::move(handler);
}

inline sim::Time CommonChannelMac::airtime(std::uint16_t size_bytes) const {
  return sim::seconds_f(size_bytes * 8.0 / cfg_.rate_bps);
}

inline void CommonChannelMac::send(net::NodeId from, net::ControlPacket pkt) {
  assert(from < nodes_.size());
  // Airtime is charged from size_bytes, so it must be the frame's exact
  // encoded size (make_control stamps it; no encodable frame is smaller
  // than the codec floor, the airtime floor checked at startup).
  assert(pkt.size_bytes >= net::wire::kMinControlBytes &&
         pkt.size_bytes == net::wire::encoded_control_size(pkt.payload) &&
         "control frames must carry their exact encoded size");
  auto& st = nodes_[from];
  if (st.queue.size() >= cfg_.queue_cap) {
    metrics_.inc("mac.ctrl_queue_drop");
    return;  // drop-tail: the channel is saturated
  }
  st.queue.emplace_back(QueuedControl{std::move(pkt), 0});
  if (!st.transmitting && !st.attempt_timer.armed()) {
    schedule_attempt(from, sim::Time::zero());
  }
}

inline void CommonChannelMac::schedule_attempt(net::NodeId id, sim::Time delay) {
  nodes_[id].attempt_timer.arm_after(sim_, delay, [this, id] { attempt(id); });
}

inline sim::Time CommonChannelMac::random_backoff(NodeState& st) {
  const double lo = static_cast<double>(cfg_.backoff_min.nanos());
  const double hi = static_cast<double>(cfg_.backoff_max.nanos());
  return sim::Time{static_cast<std::int64_t>(st.rng.uniform(lo, hi))};
}

inline void CommonChannelMac::prune_heard(NodeState& st, sim::Time now) const {
  const sim::Time horizon = now - kHeardHorizon;
  std::erase_if(st.heard,
                [horizon](const Interval& iv) { return iv.end < horizon; });
}

inline bool CommonChannelMac::medium_busy(const NodeState& st, sim::Time now) const {
  if (st.transmitting) return true;
  return std::any_of(st.heard.begin(), st.heard.end(),
                     [now](const Interval& iv) {
                       return iv.start <= now && now < iv.end;
                     });
}

inline void CommonChannelMac::attempt(net::NodeId id) {
  auto& st = nodes_[id];
  if (st.transmitting) return;  // a tx started meanwhile; re-pumped at its end
  if (st.queue.empty()) return;
  prune_heard(st, sim_.now());
  if (medium_busy(st, sim_.now())) {
    schedule_attempt(id, random_backoff(st));
    return;
  }
  start_tx(id);
}

inline void CommonChannelMac::start_tx(net::NodeId id) {
  auto& st = nodes_[id];
  assert(!st.queue.empty());
  st.in_flight = std::move(st.queue.front());
  st.queue.pop_front();
  st.transmitting = true;
  st.tx_start = sim_.now();
  st.tx_end = st.tx_start + airtime(st.in_flight.pkt.size_bytes);
  st.tx_id = next_tx_id_++;

  // Coverage is evaluated at transmission start; node motion within a few
  // milliseconds of airtime is negligible at the paper's speeds.  This is
  // the MAC's hottest channel query (one per transmission); it is served by
  // the channel's spatial neighbor index rather than an O(N) scan, into a
  // receiver buffer reused across this node's transmissions.
  channel_.neighbors_of(id, st.tx_start, st.tx_receivers);
  for (const auto r : st.tx_receivers) {
    nodes_[r].heard.push_back(Interval{st.tx_start, st.tx_end, st.tx_id});
  }
  // Record our own airtime too: it is what makes a half-duplex node deaf to
  // transmissions that overlap its own.
  st.heard.push_back(Interval{st.tx_start, st.tx_end, st.tx_id});
  metrics_.on_control_tx(st.in_flight.pkt.size_bytes * 8u);
  trace_control("control_tx", id, st.in_flight.pkt);
  if (auto* writer = metrics_.tracer().perfetto()) {
    // Half duplex: one transmission per node at a time, so one track per
    // terminal holds non-overlapping slices.
    const auto info = obs::control_info(st.in_flight.pkt.payload);
    writer->slice(obs::PerfettoWriter::kControlPid, id, "control", info.name,
                  st.tx_start, st.tx_end - st.tx_start);
  }

  // All per-transmission state lives in NodeState (half duplex guarantees
  // one in-flight tx per node), so the event captures two words — well
  // under the engine's inline buffer, keeping steady-state scheduling free
  // of per-event heap allocation.
  auto fire = [this, id] { end_of_tx(id); };
  static_assert(sizeof(fire) <= sim::EventEngine::kInlineBytes);
  sim_.at(st.tx_end, fire);
}

inline void CommonChannelMac::end_of_tx(net::NodeId id) {
  auto& sender = nodes_[id];
  sender.transmitting = false;
  const net::ControlPacket& pkt = sender.in_flight.pkt;
  const sim::Time start = sender.tx_start;
  const sim::Time end = sender.tx_end;
  const std::uint64_t tx_id = sender.tx_id;

  bool unicast_ok = false;
  for (const auto r : sender.tx_receivers) {
    if (pkt.to != net::kBroadcastId && pkt.to != r) continue;
    auto& rst = nodes_[r];
    // Half duplex: a node that transmitted during our airtime missed us.
    // Collision: any other transmission covering r overlapping [start,end].
    const bool collided =
        std::any_of(rst.heard.begin(), rst.heard.end(),
                    [&](const Interval& iv) {
                      return iv.tx_id != tx_id && iv.start < end &&
                             start < iv.end;
                    }) ||
        rst.transmitting;
    if (collided) {
      metrics_.on_control_collision();
      trace_control("control_lost", r, pkt);
      continue;
    }
    unicast_ok = true;
    if (rst.handler) rst.handler(pkt, id);
  }

  // CSMA/CA acknowledges unicast frames; a missing ACK triggers a
  // retransmission after a fresh backoff.  Broadcasts are fire-and-forget.
  if (pkt.to != net::kBroadcastId && !unicast_ok) {
    ++sender.in_flight.attempts;
    if (sender.in_flight.attempts < cfg_.unicast_attempts) {
      sender.queue.push_front(std::move(sender.in_flight));
    } else {
      metrics_.inc("mac.unicast_fail");
    }
  }

  // Pump the sender's queue: contend again after a fresh backoff.
  if (!sender.queue.empty() && !sender.attempt_timer.armed()) {
    schedule_attempt(id, random_backoff(sender));
  }
}

}  // namespace rica::mac::scan_oracle
