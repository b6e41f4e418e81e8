#include "routing/bgca/bgca.hpp"

#include <algorithm>
#include <utility>

namespace rica::routing {

namespace {
constexpr std::uint8_t kTagRreq = 1;
/// The bandwidth guard samples every route's downstream link this often.
constexpr sim::Time kMonitorPeriod = sim::milliseconds(500);
}  // namespace

BgcaProtocol::BgcaProtocol(ProtocolHost& host, const BgcaConfig& cfg)
    : Protocol(host), cfg_(cfg), history_(host.flood_log(), host.id()) {}

double BgcaProtocol::requirement_bps() const {
  // 1.5 x 41 kbps puts class D below the bar at 10 pkt/s, and C at 20.
  constexpr double kBandwidthFactor = 1.5;
  return kBandwidthFactor * cfg_.flow_rate_bps;
}

sim::Time BgcaProtocol::forward_jitter(channel::CsiClass cls) {
  // CSI-aware flood jitter per unit of excess CSI hop distance.
  constexpr sim::Time kCsiJitter = sim::milliseconds(10);
  const double excess = channel::csi_hop_distance(cls) - 1.0;
  const double dither = host().protocol_rng().uniform(0.0, 0.5e6);
  return sim::Time{static_cast<std::int64_t>(
             excess * static_cast<double>(kCsiJitter.nanos()) + dither)};
}

std::optional<net::NodeId> BgcaProtocol::downstream(net::FlowKey flow) const {
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid) return std::nullopt;
  return it->second.downstream;
}

void BgcaProtocol::start() {
  // Desynchronize the monitors across nodes.
  const auto phase = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(0.0,
                                    static_cast<double>(kMonitorPeriod.nanos())))};
  monitor_timer_.arm_after(host().simulator(), phase,
                           [this] { monitor_links(); });
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void BgcaProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  const net::FlowKey flow = pkt.key();
  if (pkt.dst == host().id()) {
    host().deliver_local(pkt);
    return;
  }

  auto& e = entries_[flow];
  if (from == host().id()) {  // source
    if (e.valid || e.repairing) {
      forward_or_drop(std::move(pkt), e);
      return;
    }
    sources_[flow].hold(host(), pkt, "bgca.pending_overflow");
    begin_discovery(flow);
    return;
  }

  e.upstream = from;
  forward_or_drop(std::move(pkt), e);
}

void BgcaProtocol::forward_or_drop(net::DataPacket pkt, Entry& e) {
  if (e.repairing) {
    // Hold arriving traffic while the local query runs; the paper's local
    // repair is exactly what builds queues at the repairing terminal.
    repair_pending_.hold(host(), pkt);
    return;
  }
  if (!e.valid) {
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    return;
  }
  host().forward_data(std::move(pkt), e.downstream);
}

// ---------------------------------------------------------------------------
// Discovery (same CSI-hop flood as RICA)
// ---------------------------------------------------------------------------

void BgcaProtocol::begin_discovery(net::FlowKey flow) {
  sources_[flow].start(host(), flow, "bgca.discovery", cfg_.discovery_timeout,
                       [this, flow] { return send_rreq(flow); });
}

std::uint32_t BgcaProtocol::send_rreq(net::FlowKey flow) {
  const std::uint32_t bid = next_bid_++;
  history_.seen_or_insert(host().id(), bid, kTagRreq);
  host().send_control(net::make_control(
      net::kBroadcastId,
      net::RreqMsg{net::flow_src(flow), net::flow_dst(flow), bid, 0.0, 0}));
  return bid;
}

void BgcaProtocol::on_rreq(const net::RreqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;
  // A relay drops a duplicate before sampling the link; the destination
  // weighs every copy.
  if (msg.dst != host().id() && history_.seen(msg.src, msg.bid, kTagRreq)) {
    return;
  }
  const auto cls = host().link_csi(from);
  if (!cls) return;

  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (msg.dst == host().id()) {
    // Every arriving copy is a route candidate (duplicate suppression only
    // governs relay forwarding), mirroring RICA's discovery.
    const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
    dests_[flow].collect(host().simulator(), kDestWait, msg.bid,
                         Candidate{from, csi_hops, topo},
                         [this, flow] { close_dest_window(flow); });
    return;
  }
  if (history_.seen_or_insert(msg.src, msg.bid, kTagRreq, from)) return;
  if (topo >= kDiscoveryTtl) return;
  net::RreqMsg fwd = msg;
  fwd.csi_hops = csi_hops;
  fwd.topo_hops = topo;
  host().simulator().after(forward_jitter(*cls), [this, fwd] {
    host().send_control(net::make_control(net::kBroadcastId, fwd));
  });
}

void BgcaProtocol::close_dest_window(net::FlowKey flow) {
  auto& d = dests_[flow];
  const auto candidates = d.close();
  if (candidates.empty()) return;
  const Candidate& best = csi_shortest(candidates);
  host().send_control(net::make_control(
      best.first_hop,
      net::RrepMsg{net::flow_src(flow), net::flow_dst(flow), d.bid(),
                   best.csi_hops, 0}));
}

void BgcaProtocol::on_rrep(const net::RrepMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  auto& e = entries_[flow];
  e.valid = true;
  e.downstream = from;
  e.hops_to_dst = static_cast<std::uint16_t>(msg.topo_hops + 1);
  e.repairing = false;

  if (msg.src == host().id()) {
    sources_[flow].finish();
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       msg.csi_hops);
    flush_pending(flow);
    return;
  }
  const auto up = history_.upstream(msg.src, msg.bid, kTagRreq);
  if (!up) return;
  e.upstream = *up;
  net::RrepMsg fwd = msg;
  fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

void BgcaProtocol::flush_pending(net::FlowKey flow) {
  auto& e = entries_[flow];
  if (!e.valid) return;
  if (auto it = sources_.find(flow); it != sources_.end()) {
    for (auto& p : it->second.release(host())) {
      host().forward_data(std::move(p), e.downstream);
    }
  }
  repair_pending_.release(host(), flow, e.downstream);
}

// ---------------------------------------------------------------------------
// The bandwidth guard (the "BG" in BGCA)
// ---------------------------------------------------------------------------

void BgcaProtocol::monitor_links() {
  constexpr sim::Time kLqCooldown = sim::seconds(2);
  // Consecutive below-requirement samples before a local query: filters
  // sub-period fade flickers.
  constexpr int kGuardStrikes = 3;
  for (auto& [flow, e] : entries_) {
    if (!e.valid || e.repairing) continue;
    if (net::flow_dst(flow) == host().id()) continue;
    if (now() - e.last_lq < kLqCooldown) continue;
    const auto cls = host().link_csi(e.downstream);
    if (!cls) continue;  // range exit is the data plane's business
    if (channel::throughput_bps(*cls) < requirement_bps()) {
      // Only a *persistent* deficiency (deep fade) triggers the repair; a
      // single sub-period flicker does not (the paper calls BGCA
      // deliberately "passive").
      if (++e.strikes >= kGuardStrikes) {
        e.strikes = 0;
        host().count("bgca.guard_trigger");
        start_local_query(flow, /*broken=*/false);
      }
    } else {
      e.strikes = 0;
    }
  }
  monitor_timer_.arm_after(host().simulator(), kMonitorPeriod,
                           [this] { monitor_links(); });
}

void BgcaProtocol::start_local_query(net::FlowKey flow, bool broken) {
  auto& e = entries_[flow];
  if (e.repairing) return;
  e.repairing = broken;  // keep using a degraded (but live) link meanwhile
  e.last_lq = now();
  constexpr sim::Time kLqTimeout = sim::milliseconds(100);
  queries_[flow].start<net::BgcaLqMsg>(
      host(), history_, flow, e, next_bid_++, "bgca.lq", kLqTimeout,
      [this, flow](std::uint32_t bid) { finish_local_query(flow, bid); });
}

void BgcaProtocol::on_lq(const net::BgcaLqMsg& msg, net::NodeId from) {
  if (msg.origin == host().id()) return;
  // Drop a duplicate before sampling the link; a copy from a sender that
  // already left our range is not recorded, so a later copy still counts.
  if (history_.seen(msg.origin, msg.bid, LocalQuery::kTag)) return;
  const auto cls = host().link_csi(from);
  if (!cls) return;
  history_.seen_or_insert(msg.origin, msg.bid, LocalQuery::kTag, from);

  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  net::BgcaLqReplyMsg reply;
  reply.csi_hops = csi_hops;
  LocalQuery::answer_or_forward(
      host(), entries_, msg, from, reply,
      [this, csi_hops, link = *cls](net::BgcaLqMsg fwd) {
        fwd.csi_hops = csi_hops;
        host().simulator().after(forward_jitter(link), [this, fwd] {
          host().send_control(net::make_control(net::kBroadcastId, fwd));
        });
      });
}

void BgcaProtocol::on_lq_reply(const net::BgcaLqReplyMsg& msg,
                               net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  if (msg.origin == host().id()) {
    queries_[flow].collect(
        msg.bid, Candidate{from, msg.csi_hops, msg.join_hops_to_dst});
  } else {
    LocalQuery::splice_reply(host(), history_, entries_[flow], msg, from);
  }
}

void BgcaProtocol::finish_local_query(net::FlowKey flow, std::uint32_t bid) {
  auto& e = entries_[flow];
  queries_[flow].finish(
      host(), flow, e, bid, "bgca.lq_success", csi_shortest,
      [this, flow] { flush_pending(flow); },
      [this, flow, &e] {
        // A guard-triggered (link still alive) query that found nothing
        // keeps the degraded route; the cooldown throttles the next attempt.
        if (!e.repairing) return;
        // The link is gone and local repair failed: escalate.
        e.repairing = false;
        e.valid = false;
        escalate_to_source(flow, e);
      });
}

void BgcaProtocol::escalate_to_source(net::FlowKey flow, Entry& e) {
  if (net::flow_src(flow) == host().id()) {
    begin_discovery(flow);
    return;
  }
  if (e.upstream != host().id()) {
    host().send_control(net::make_control(
        e.upstream,
        net::ReerMsg{net::flow_src(flow), net::flow_dst(flow), host().id()}));
  }
  // Whatever was held for repair dies with the failed route.
  repair_pending_.discard(host(), flow);
}

void BgcaProtocol::on_reer(const net::ReerMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid ||
      it->second.downstream != from) {
    return;  // stale report from an abandoned route
  }
  it->second.valid = false;
  if (msg.src == host().id()) {
    begin_discovery(flow);
    return;
  }
  if (it->second.upstream != host().id()) {
    host().send_control(net::make_control(
        it->second.upstream, net::ReerMsg{msg.src, msg.dst, host().id()}));
  }
}

double BgcaProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, entries_.load_factor());
  lf = std::max(lf, sources_.load_factor());
  lf = std::max(lf, dests_.load_factor());
  lf = std::max(lf, queries_.load_factor());
  lf = std::max(lf, repair_pending_.load_factor());
  return lf;
}

void BgcaProtocol::on_link_break(net::NodeId neighbor,
                                 std::vector<net::DataPacket> stranded) {
  host().count("bgca.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  for (auto& [flow, e] : entries_) {
    if (!e.valid || e.downstream != neighbor) continue;
    e.valid = false;
    // Local repair first; stranded packets wait in the repair buffer.
    start_local_query(flow, /*broken=*/true);
  }
  for (const auto& p : stranded) {
    if (entries_[p.key()].repairing) {
      repair_pending_.hold(host(), p);
    } else {
      host().drop_data(p, stats::DropReason::kLinkBreak);
    }
  }
}

void BgcaProtocol::on_control(const net::ControlPacket& pkt,
                              net::NodeId from) {
  if (const auto* rreq = std::get_if<net::RreqMsg>(&pkt.payload)) {
    on_rreq(*rreq, from);
  } else if (const auto* rrep = std::get_if<net::RrepMsg>(&pkt.payload)) {
    on_rrep(*rrep, from);
  } else if (const auto* lq = std::get_if<net::BgcaLqMsg>(&pkt.payload)) {
    on_lq(*lq, from);
  } else if (const auto* rep = std::get_if<net::BgcaLqReplyMsg>(&pkt.payload)) {
    on_lq_reply(*rep, from);
  } else if (const auto* reer = std::get_if<net::ReerMsg>(&pkt.payload)) {
    on_reer(*reer, from);
  }
}

}  // namespace rica::routing
