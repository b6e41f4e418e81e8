#include "routing/aodv/aodv.hpp"

#include <algorithm>
#include <utility>

namespace rica::routing {

namespace {
constexpr std::uint8_t kTagRreq = 1;
}  // namespace

AodvProtocol::AodvProtocol(ProtocolHost& host, const AodvConfig& cfg)
    : Protocol(host), cfg_(cfg), history_(host.flood_log(), host.id()) {}

std::optional<net::NodeId> AodvProtocol::next_hop(net::NodeId dst) const {
  const auto it = routes_.find(dst);
  if (it == routes_.end() || !it->second.valid) return std::nullopt;
  constexpr sim::Time kRouteExpiry = sim::seconds(3);  // active-route timeout
  if (now() - it->second.last_used > kRouteExpiry) return std::nullopt;
  return it->second.next;
}

void AodvProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  if (pkt.dst == host().id()) {
    host().deliver_local(pkt);
    return;
  }
  if (from != host().id()) precursor_[pkt.dst] = from;
  const auto nh = next_hop(pkt.dst);
  if (nh) {
    auto& route = routes_.at(pkt.dst);
    route.last_used = now();
    host().forward_data(std::move(pkt), *nh);
    return;
  }
  if (from != host().id()) {
    // Transit node without a route: the entry was invalidated while the
    // packet was in flight (paper: packets on a broken route are discarded).
    // Tell the upstream so the source learns and re-discovers.
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    host().send_control(net::make_control(
        from, net::AodvRerrMsg{pkt.src, pkt.dst, host().id()}));
    return;
  }
  const net::NodeId dst = pkt.dst;
  discovery_[dst].hold(host(), pkt, "aodv.pending_overflow");
  begin_discovery(dst);
}

void AodvProtocol::begin_discovery(net::NodeId dst) {
  discovery_[dst].start(host(), net::flow_key(host().id(), dst),
                        "aodv.discovery", cfg_.discovery_timeout,
                        [this, dst] { return send_rreq(dst); });
}

std::uint32_t AodvProtocol::send_rreq(net::NodeId dst) {
  const std::uint32_t bid = next_bid_++;
  history_.seen_or_insert(host().id(), bid, kTagRreq);  // ignore echoes
  host().send_control(net::make_control(
      net::kBroadcastId, net::AodvRreqMsg{host().id(), dst, bid, 0}));
  return bid;
}

void AodvProtocol::on_control(const net::ControlPacket& pkt,
                              net::NodeId from) {
  if (const auto* rreq = std::get_if<net::AodvRreqMsg>(&pkt.payload)) {
    on_rreq(*rreq, from);
  } else if (const auto* rrep = std::get_if<net::AodvRrepMsg>(&pkt.payload)) {
    on_rrep(*rrep, from);
  } else if (const auto* rerr = std::get_if<net::AodvRerrMsg>(&pkt.payload)) {
    on_rerr(*rerr, from);
  }
}

void AodvProtocol::on_rreq(const net::AodvRreqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;  // our own flood echoed back
  if (history_.seen_or_insert(msg.src, msg.bid, kTagRreq, from)) return;

  if (msg.dst == host().id()) {
    // Paper: "the destination responds only the first RREQ and chooses the
    // path this RREQ has gone through".  Dedup above enforces "first".
    host().send_control(net::make_control(
        from, net::AodvRrepMsg{msg.src, msg.dst, msg.bid, 0}));
    return;
  }
  if (msg.hops + 1 >= kDiscoveryTtl) return;  // flood scope exhausted
  net::AodvRreqMsg fwd = msg;
  fwd.hops = static_cast<std::uint16_t>(msg.hops + 1);
  // Random broadcast-forwarding jitter (standard in AODV implementations to
  // de-synchronize rebroadcasts).  It also means the first RREQ copy the
  // destination hears travelled a random tree, not the shortest path — the
  // paper: "chooses the path this RREQ has gone through although this route
  // is usually not the shortest one".
  constexpr sim::Time kForwardJitterMax = sim::milliseconds(5);
  const auto jitter = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(
          0.0, static_cast<double>(kForwardJitterMax.nanos())))};
  host().simulator().after(jitter, [this, fwd] {
    host().send_control(net::make_control(net::kBroadcastId, fwd));
  });
}

void AodvProtocol::on_rrep(const net::AodvRrepMsg& msg, net::NodeId from) {
  // The RREP travels dst -> src; receiving it from `from` makes `from` our
  // next hop toward the destination.
  routes_[msg.dst] =
      Route{from, static_cast<std::uint16_t>(msg.hops + 1), true, now()};

  if (msg.src == host().id()) {
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       static_cast<double>(msg.hops + 1));
    flush_pending(msg.dst);
    return;
  }
  const auto up = history_.upstream(msg.src, msg.bid, kTagRreq);
  if (!up) return;  // relayed no copy of this flood
  net::AodvRrepMsg fwd = msg;
  fwd.hops = static_cast<std::uint16_t>(msg.hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

void AodvProtocol::on_rerr(const net::AodvRerrMsg& msg, net::NodeId from) {
  const auto it = routes_.find(msg.dst);
  // Only meaningful if it arrives from our live downstream for this
  // destination; stale reports from abandoned paths are ignored.
  if (it == routes_.end() || !it->second.valid || it->second.next != from) {
    return;
  }
  it->second.valid = false;
  const auto pre = precursor_.find(msg.dst);
  if (pre != precursor_.end() && pre->second != host().id()) {
    host().send_control(net::make_control(pre->second, msg));
  }
  // If we are a source with packets still arriving for this destination,
  // the next handle_data() will kick off a fresh discovery.
}

void AodvProtocol::flush_pending(net::NodeId dst) {
  const auto it = discovery_.find(dst);
  if (it == discovery_.end()) return;
  auto& d = it->second;
  d.finish();
  const auto nh = next_hop(dst);
  for (auto& p : d.release(host())) {
    if (nh) {
      host().forward_data(std::move(p), *nh);
    } else {
      host().drop_data(p, stats::DropReason::kNoRoute);
    }
  }
}

double AodvProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, routes_.load_factor());
  lf = std::max(lf, discovery_.load_factor());
  lf = std::max(lf, precursor_.load_factor());
  return lf;
}

void AodvProtocol::on_link_break(net::NodeId neighbor,
                                 std::vector<net::DataPacket> stranded) {
  host().count("aodv.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  // Paper: "packets in the original broken route usually is discarded".
  for (const auto& p : stranded) {
    host().drop_data(p, stats::DropReason::kLinkBreak);
  }
  for (auto& [dst, route] : routes_) {
    if (!route.valid || route.next != neighbor) continue;
    route.valid = false;
    const auto pre = precursor_.find(dst);
    if (pre != precursor_.end() && pre->second != host().id()) {
      host().send_control(net::make_control(
          pre->second,
          net::AodvRerrMsg{0, static_cast<net::NodeId>(dst), host().id()}));
    }
  }
}

}  // namespace rica::routing
