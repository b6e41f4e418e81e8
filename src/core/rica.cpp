#include "core/rica.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rica::core {

namespace {
constexpr std::uint8_t kTagRreq = 1;
constexpr std::uint8_t kTagCheck = 2;
/// The source gathers a round's CSI-checking copies for this long (§II-C).
constexpr sim::Time kSourceWait = sim::milliseconds(40);
/// After a route switch, data packets keep carrying the update flag for this
/// long, so the re-anchoring survives the loss of the first packet.
constexpr sim::Time kUpdateFlagWindow = sim::milliseconds(100);
}  // namespace

RicaProtocol::RicaProtocol(routing::ProtocolHost& host, const RicaConfig& cfg)
    : Protocol(host), cfg_(cfg), history_(host.flood_log(), host.id()) {}

sim::Time RicaProtocol::forward_jitter(channel::CsiClass cls) {
  const double excess = channel::csi_hop_distance(cls) - 1.0;
  const double dither = host().protocol_rng().uniform(0.0, 0.5e6);  // <=0.5ms
  return sim::Time{static_cast<std::int64_t>(
             excess * static_cast<double>(cfg_.csi_jitter.nanos()))} +
         sim::Time{static_cast<std::int64_t>(dither)};
}

std::optional<net::NodeId> RicaProtocol::source_next_hop(
    net::NodeId dst) const {
  const auto it = sources_.find(net::flow_key(host().id(), dst));
  if (it == sources_.end() || !it->second.valid) return std::nullopt;
  return it->second.next_hop;
}

std::optional<net::NodeId> RicaProtocol::relay_downstream(
    net::FlowKey flow) const {
  const auto it = relays_.find(flow);
  if (it == relays_.end() || !it->second.valid) {
    return std::nullopt;
  }
  return it->second.downstream;
}

std::optional<net::NodeId> RicaProtocol::check_candidate(
    net::FlowKey flow) const {
  const auto it = relays_.find(flow);
  if (it == relays_.end() || !it->second.check_next_valid) return std::nullopt;
  return it->second.check_next;
}

std::optional<net::NodeId> RicaProtocol::upstream_candidate(
    net::FlowKey flow) const {
  const auto it = relays_.find(flow);
  if (it == relays_.end() || now() >= it->second.cand_upstream_expiry) {
    return std::nullopt;
  }
  return it->second.cand_upstream;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void RicaProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  const net::FlowKey flow = pkt.key();

  if (pkt.dst == host().id()) {
    auto& d = dests_[flow];
    d.last_data = now();
    d.route_hops = std::max<std::uint16_t>(pkt.hops, 1);
    host().deliver_local(pkt);
    arm_checks(flow);
    return;
  }

  if (from == host().id()) {  // we are the source
    source_send(sources_[flow], flow, std::move(pkt));
    return;
  }

  // Relay.
  auto& r = relays_[flow];
  if (pkt.route_update) {
    // §II-C: a packet on a switched route re-anchors the relay to the
    // downstream it first heard the latest CSI check from.  Never re-anchor
    // back toward the terminal the packet just came from; without a usable
    // check candidate, fall through to the existing entry.
    if (r.check_next_valid && r.check_next != from) {
      r.upstream = from;
      r.downstream = r.check_next;
      r.valid = true;
      host().forward_data(std::move(pkt), r.downstream);
      return;
    }
  }

  if (!r.valid || r.downstream == from) {
    // No live entry.  §II-C: a terminal remembers the downstream it first
    // received a checking packet from and "in the future it can use the
    // corresponding PN code to send packets to this downstream terminal" —
    // salvage the packet along the check candidate when one exists.
    if (r.check_next_valid && r.check_next != from) {
      r.upstream = from;
      r.downstream = r.check_next;
      r.valid = true;
      host().count("rica.salvage");
      host().forward_data(std::move(pkt), r.downstream);
      return;
    }
    host().count(r.downstream == from ? "rica.drop_bounce"
                                      : "rica.drop_no_entry");
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    return;
  }
  r.upstream = from;
  host().forward_data(std::move(pkt), r.downstream);
}

void RicaProtocol::source_send(SourceState& s, net::FlowKey flow,
                               net::DataPacket pkt) {
  if (s.valid) {
    pkt.route_update = pkt.route_update || now() <= s.update_flag_until;
    host().forward_data(std::move(pkt), s.next_hop);
    return;
  }
  s.discovery.hold(host(), pkt, "rica.pending_overflow");
  begin_discovery(flow, s);
}

// ---------------------------------------------------------------------------
// Discovery (§II-B)
// ---------------------------------------------------------------------------

void RicaProtocol::begin_discovery(net::FlowKey flow, SourceState& s) {
  s.discovery.start(host(), flow, "rica.discovery", cfg_.discovery_timeout,
                    [this, flow] { return send_rreq(flow); });
}

std::uint32_t RicaProtocol::send_rreq(net::FlowKey flow) {
  const std::uint32_t bid = next_bid_++;
  history_.seen_or_insert(host().id(), bid, kTagRreq);
  host().send_control(net::make_control(
      net::kBroadcastId,
      net::RreqMsg{net::flow_src(flow), net::flow_dst(flow), bid, 0.0, 0}));
  return bid;
}

void RicaProtocol::on_rreq(const net::RreqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;
  // A relay drops a duplicate before sampling the link; the destination
  // weighs every copy.
  if (msg.dst != host().id() && history_.seen(msg.src, msg.bid, kTagRreq)) {
    return;
  }
  const auto cls = host().link_csi(from);
  if (!cls) return;  // the sender already left our range

  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (msg.dst == host().id()) {
    // §II-B: "the destination terminal receives several RREQ's with the
    // same source from all possible routes ... and chooses a route with
    // the minimal distance value."  Every copy (one per last-hop
    // neighbour) is a candidate; the duplicate-suppression rule only
    // governs relay forwarding.
    const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
    dests_[flow].rreqs.collect(host().simulator(), routing::kDestWait, msg.bid,
                               Candidate{from, csi_hops, topo},
                               [this, flow] { close_dest_window(flow); });
    return;
  }

  if (history_.seen_or_insert(msg.src, msg.bid, kTagRreq, from)) return;

  if (topo >= routing::kDiscoveryTtl) return;
  net::RreqMsg fwd = msg;
  fwd.csi_hops = csi_hops;
  fwd.topo_hops = topo;
  host().simulator().after(forward_jitter(*cls), [this, fwd] {
    host().send_control(net::make_control(net::kBroadcastId, fwd));
  });
}

void RicaProtocol::close_dest_window(net::FlowKey flow) {
  auto& d = dests_[flow];
  const auto candidates = d.rreqs.close();
  if (candidates.empty()) return;
  const Candidate& best = routing::csi_shortest(candidates);
  d.route_hops = std::max<std::uint16_t>(best.topo_hops, 1);
  host().send_control(net::make_control(
      best.first_hop,
      net::RrepMsg{net::flow_src(flow), net::flow_dst(flow), d.rreqs.bid(),
                   best.csi_hops, 0}));
  arm_checks(flow);
}

void RicaProtocol::on_rrep(const net::RrepMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);

  if (msg.src == host().id()) {
    auto& s = sources_[flow];
    s.valid = true;
    s.next_hop = from;
    s.route_csi_cost = msg.csi_hops;
    s.discovery.finish();
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       msg.csi_hops);
    // The first packets announce the (new) route to the relays.
    s.update_flag_until = now() + kUpdateFlagWindow;
    flush_pending(flow, s);
    return;
  }

  auto& r = relays_[flow];
  r.valid = true;
  r.downstream = from;
  r.hops_to_dst = static_cast<std::uint16_t>(msg.topo_hops + 1);

  const auto up = history_.upstream(msg.src, msg.bid, kTagRreq);
  if (!up) return;  // relayed no copy of this flood
  r.upstream = *up;
  net::RrepMsg fwd = msg;
  fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

// ---------------------------------------------------------------------------
// Receiver-initiated CSI checking (§II-C)
// ---------------------------------------------------------------------------

void RicaProtocol::arm_checks(net::FlowKey flow) {
  auto& d = dests_[flow];
  if (d.check_timer.armed()) return;
  d.last_data = now();
  d.check_timer.arm_after(host().simulator(), cfg_.check_period,
                          [this, flow] { broadcast_check(flow); });
}

void RicaProtocol::broadcast_check(net::FlowKey flow) {
  constexpr sim::Time kFlowActiveTimeout = sim::seconds(3);
  // A check may travel this many hops past the delivered route's length,
  // so routes slightly longer in hops but shorter in CSI distance compete.
  constexpr std::int16_t kCheckTtlSlack = 2;
  auto& d = dests_[flow];
  if (now() - d.last_data > kFlowActiveTimeout) {
    return;  // flow went idle; the timer stays disarmed (§II-C)
  }
  const std::uint32_t bid = next_check_bid_++;
  history_.seen_or_insert(net::flow_dst(flow), bid, kTagCheck);
  net::CsiCheckMsg msg;
  msg.src = net::flow_src(flow);
  msg.dst = net::flow_dst(flow);
  msg.bid = bid;
  msg.csi_hops = 0.0;
  msg.topo_hops = 0;
  msg.ttl = static_cast<std::int16_t>(d.route_hops + kCheckTtlSlack);
  msg.received_from = host().id();
  host().send_control(net::make_control(net::kBroadcastId, msg));
  host().count("rica.check_sent");
  d.check_timer.arm_after(host().simulator(), cfg_.check_period,
                          [this, flow] { broadcast_check(flow); });
}

void RicaProtocol::on_check(const net::CsiCheckMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);

  if (msg.dst == host().id()) return;  // our own flood echoed back

  // Overhearing (§II-C): `from` named us as the terminal it received the
  // check from, so `from` may become our upstream on the refreshed route;
  // arm the PN-code detection window.  This applies even to duplicate
  // copies that are otherwise discarded.
  if (msg.received_from == host().id() && msg.src != host().id()) {
    constexpr sim::Time kDetectWindow = sim::milliseconds(100);
    auto& r = relays_[flow];
    r.cand_upstream = from;
    r.cand_upstream_expiry = now() + kDetectWindow;
  }

  // A relay drops a duplicate before sampling the link; the source weighs
  // every copy.
  if (msg.src != host().id() && history_.seen(msg.dst, msg.bid, kTagCheck)) {
    return;
  }
  const auto cls = host().link_csi(from);
  if (!cls) return;
  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (msg.src == host().id()) {
    // We are the source: §II-C "the source terminal receives several
    // checking packets from all possible routes, then it can choose the
    // shortest one as the new route."  Collect every copy; relays are the
    // ones that forward only once.
    auto& s = sources_[flow];
    s.last_check_seen = now();
    s.checks.collect(host().simulator(), kSourceWait, msg.bid,
                     Candidate{from, csi_hops, topo},
                     [this, flow] { close_source_window(flow); });
    return;
  }

  if (history_.seen_or_insert(msg.dst, msg.bid, kTagCheck)) return;

  // Relay: remember the downstream we first heard this check from.
  auto& r = relays_[flow];
  r.check_bid = msg.bid;
  r.check_next = from;
  r.check_next_valid = true;

  if (msg.ttl <= 1) return;
  net::CsiCheckMsg fwd = msg;
  fwd.csi_hops = csi_hops;
  fwd.topo_hops = topo;
  fwd.ttl = static_cast<std::int16_t>(msg.ttl - 1);
  fwd.received_from = from;
  host().simulator().after(forward_jitter(*cls), [this, fwd] {
    host().send_control(net::make_control(net::kBroadcastId, fwd));
  });
}

void RicaProtocol::close_source_window(net::FlowKey flow) {
  auto& s = sources_[flow];
  auto candidates = s.checks.close();
  if (candidates.empty()) return;
  const Candidate chosen = routing::csi_shortest(candidates);
  // Refresh our knowledge of the current route's cost when its check copy
  // made it through this round (copies can be lost to collisions).
  for (const auto& c : candidates) {
    if (s.valid && c.first_hop == s.next_hop) {
      s.route_csi_cost = c.csi_hops;
    }
  }
  // Hysteresis: abandon a working route only for one shorter by the switch
  // margin (CSI distance); otherwise equal-cost candidates arriving in
  // CSMA-jitter order would flip the route every round.
  constexpr double kSwitchMargin = 0.5;
  const bool keep =
      s.valid && chosen.csi_hops > s.route_csi_cost - kSwitchMargin;
  s.last_candidates = std::move(candidates);
  s.last_window_close = now();

  if (!keep && (!s.valid || chosen.first_hop != s.next_hop)) {
    switch_route(flow, s, chosen);
  }
  s.discovery.finish();  // the checks repaired the route (§II-D case 1)
  flush_pending(flow, s);
}

void RicaProtocol::switch_route(net::FlowKey flow, SourceState& s,
                                const Candidate& chosen) {
  s.valid = true;
  s.next_hop = chosen.first_hop;
  s.route_csi_cost = chosen.csi_hops;
  s.update_flag_until = now() + kUpdateFlagWindow;
  host().count("rica.route_switch");
  host().trace_route("repaired", net::flow_src(flow), net::flow_dst(flow), 0,
                     chosen.csi_hops);
  host().send_control(net::make_control(
      chosen.first_hop,
      net::RupdMsg{net::flow_src(flow), net::flow_dst(flow)}));
}

bool RicaProtocol::try_candidate_fallback(net::FlowKey flow, SourceState& s,
                                          net::NodeId exclude) {
  if (now() - s.last_window_close > cfg_.check_period + kSourceWait) {
    return false;  // stale: no recent checking round
  }
  const Candidate* best = nullptr;
  for (const auto& c : s.last_candidates) {
    if (c.first_hop == exclude) continue;
    if (!best || c.csi_hops < best->csi_hops) best = &c;
  }
  if (!best) return false;
  switch_route(flow, s, *best);
  host().count("rica.fallback_switch");
  return true;
}

void RicaProtocol::flush_pending(net::FlowKey flow, SourceState& s) {
  if (!s.valid) return;
  for (auto& p : s.discovery.release(host())) {
    source_send(s, flow, std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Route update / maintenance (§II-C, §II-D)
// ---------------------------------------------------------------------------

void RicaProtocol::on_rupd(const net::RupdMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  auto& r = relays_[flow];
  r.upstream = from;
  if (r.check_next_valid && r.check_next != from) {
    r.downstream = r.check_next;
    r.valid = true;
  }
}

void RicaProtocol::on_reer(const net::ReerMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);

  if (msg.src == host().id()) {
    auto& s = sources_[flow];
    // §II-D: only meaningful if it comes from our current downstream.
    if (!s.valid || s.next_hop != from) return;
    s.valid = false;
    if (try_candidate_fallback(flow, s, from)) return;
    begin_discovery(flow, s);
    return;
  }

  auto& r = relays_[flow];
  // §II-D: ignore REERs from terminals that are not our downstream — they
  // report breaks of abandoned routes.
  if (!r.valid || r.downstream != from) return;
  r.valid = false;
  if (r.upstream != host().id()) {
    host().send_control(net::make_control(
        r.upstream, net::ReerMsg{msg.src, msg.dst, host().id()}));
  }
}

double RicaProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, sources_.load_factor());
  lf = std::max(lf, relays_.load_factor());
  lf = std::max(lf, dests_.load_factor());
  return lf;
}

void RicaProtocol::on_link_break(net::NodeId neighbor,
                                 std::vector<net::DataPacket> stranded) {
  host().count("rica.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  for (const auto& p : stranded) {
    host().drop_data(p, stats::DropReason::kLinkBreak);
  }

  // Source routes through the dead neighbour: try the freshest CSI-check
  // candidate, otherwise rediscover.
  for (auto& [flow, s] : sources_) {
    if (!s.valid || s.next_hop != neighbor) continue;
    s.valid = false;
    if (try_candidate_fallback(flow, s, neighbor)) continue;
    begin_discovery(flow, s);
  }

  // Relay routes through the dead neighbour: report upstream (§II-D).
  for (auto& [flow, r] : relays_) {
    if (!r.valid || r.downstream != neighbor) continue;
    r.valid = false;
    if (r.upstream != host().id()) {
      host().send_control(net::make_control(
          r.upstream,
          net::ReerMsg{net::flow_src(flow), net::flow_dst(flow),
                       host().id()}));
    }
  }
}

void RicaProtocol::on_control(const net::ControlPacket& pkt,
                              net::NodeId from) {
  if (const auto* rreq = std::get_if<net::RreqMsg>(&pkt.payload)) {
    on_rreq(*rreq, from);
  } else if (const auto* rrep = std::get_if<net::RrepMsg>(&pkt.payload)) {
    on_rrep(*rrep, from);
  } else if (const auto* chk = std::get_if<net::CsiCheckMsg>(&pkt.payload)) {
    on_check(*chk, from);
  } else if (const auto* rupd = std::get_if<net::RupdMsg>(&pkt.payload)) {
    on_rupd(*rupd, from);
  } else if (const auto* reer = std::get_if<net::ReerMsg>(&pkt.payload)) {
    on_reer(*reer, from);
  }
}

}  // namespace rica::core
