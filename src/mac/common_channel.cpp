#include "mac/common_channel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/wire.hpp"
#include "obs/perfetto.hpp"

namespace rica::mac {

CommonChannelMac::CommonChannelMac(sim::Simulator& sim,
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

std::size_t CommonChannelMac::pool_high_water() const {
  return ctrl_pool_.high_water();
}

std::size_t CommonChannelMac::pool_bytes() const { return ctrl_pool_.bytes(); }

void CommonChannelMac::emit_control_trace(std::string_view stage,
                                          net::NodeId node,
                                          const net::ControlPacket& pkt) {
  auto& tracer = metrics_.tracer();
  const auto info = obs::control_info(pkt.payload);
  // size_bytes is the frame's exact encoded size (asserted in send()), so
  // control_tx records carry byte-exact on-air cost — trace_query.py joins
  // them on (src, dst, bid) to attribute control bytes per discovery.
  tracer.route(obs::RouteTrace{stage, sim_.now(), node, info.src, info.dst,
                               info.bid, 0.0, {}, info.name,
                               pkt.size_bytes});
}

void CommonChannelMac::register_node(net::NodeId id, RxHandler handler) {
  assert(id < nodes_.size());
  nodes_[id].handler = std::move(handler);
}

sim::Time CommonChannelMac::airtime(std::uint16_t size_bytes) const {
  return sim::seconds_f(size_bytes * 8.0 / cfg_.rate_bps);
}

void CommonChannelMac::send(net::NodeId from, net::ControlPacket pkt) {
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

void CommonChannelMac::schedule_attempt(net::NodeId id, sim::Time delay) {
  nodes_[id].attempt_timer.arm_after(sim_, delay, [this, id] { attempt(id); });
}

sim::Time CommonChannelMac::random_backoff(NodeState& st) {
  const double lo = static_cast<double>(cfg_.backoff_min.nanos());
  const double hi = static_cast<double>(cfg_.backoff_max.nanos());
  return sim::Time{static_cast<std::int64_t>(st.rng.uniform(lo, hi))};
}

bool CommonChannelMac::on_air(const NodeState& st, sim::Time now) {
  return st.busy_until > now;
}

bool CommonChannelMac::medium_busy(const NodeState& st, sim::Time now) {
  return st.transmitting || on_air(st, now);
}

bool CommonChannelMac::land(NodeState& st, ActiveRx rx, sim::Time now) {
  if (!on_air(st, now)) {
    // Idle: every earlier frame ended at or before `now`, so the new one
    // overlaps nothing yet.
    st.lone = rx;
    st.busy_until = rx.end;
    return false;
  }
  // Busy: a frame still on the air started at or before `now` and ends
  // after it, a strict overlap.  Every such frame but the lone one landed
  // on a busy node and is already marked.
  if (st.lone.end > now && st.lone.slot != kOwnSlot) {
    nodes_[st.lone.sender].rx_collided[st.lone.slot] = 1;
  }
  st.busy_until = std::max(st.busy_until, rx.end);
  return true;
}

void CommonChannelMac::attempt(net::NodeId id) {
  auto& st = nodes_[id];
  if (st.transmitting) return;  // a tx started meanwhile; re-pumped at its end
  if (st.queue.empty()) return;
  if (medium_busy(st, sim_.now())) {
    schedule_attempt(id, random_backoff(st));
    return;
  }
  start_tx(id);
}

void CommonChannelMac::start_tx(net::NodeId id) {
  auto& st = nodes_[id];
  assert(!st.queue.empty());
  st.in_flight = std::move(st.queue.front());
  st.queue.pop_front();
  st.transmitting = true;
  st.tx_start = sim_.now();
  st.tx_end = st.tx_start + airtime(st.in_flight.pkt.size_bytes);

  // Coverage is evaluated at transmission start; node motion within a few
  // milliseconds of airtime is negligible at the paper's speeds.  This is
  // the MAC's hottest channel query (one per transmission); it is served by
  // the channel's spatial neighbor index rather than an O(N) scan, into a
  // receiver buffer reused across this node's transmissions.
  channel_.neighbors_of(id, st.tx_start, st.tx_receivers);
  st.rx_collided.resize(st.tx_receivers.size());
  for (std::uint32_t i = 0; i < st.tx_receivers.size(); ++i) {
    st.rx_collided[i] = land(nodes_[st.tx_receivers[i]],
                             ActiveRx{st.tx_end, id, i}, st.tx_start);
  }
  // Land our own airtime too: it is what makes a half-duplex node deaf to
  // transmissions that overlap its own.
  land(st, ActiveRx{st.tx_end, id, kOwnSlot}, st.tx_start);
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

void CommonChannelMac::end_of_tx(net::NodeId id) {
  auto& sender = nodes_[id];
  sender.transmitting = false;
  const net::ControlPacket& pkt = sender.in_flight.pkt;

  bool unicast_ok = false;
  for (std::size_t i = 0; i < sender.tx_receivers.size(); ++i) {
    const auto r = sender.tx_receivers[i];
    if (pkt.to != net::kBroadcastId && pkt.to != r) continue;
    auto& rst = nodes_[r];
    // Collision: another frame covering r overlapped ours (r's own airtime
    // included: half duplex).  `transmitting` also catches a tx r started at
    // exactly our end, before this event fired: it touches ours without
    // overlapping it, yet r is already deaf.
    const bool collided = sender.rx_collided[i] || rst.transmitting;
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

}  // namespace rica::mac
