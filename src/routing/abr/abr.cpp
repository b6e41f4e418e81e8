#include "routing/abr/abr.hpp"

#include <algorithm>
#include <utility>

namespace rica::routing {

namespace {
constexpr std::uint8_t kTagBq = 1;
/// Every terminal beacons once per period.
constexpr sim::Time kBeaconPeriod = sim::seconds(1);
/// A neighbour unheard for this long has lost its association.
constexpr sim::Time kNeighborTimeout = sim::milliseconds(2500);

/// The destination's route-selection order (§III: stability first, then
/// load, then length).
bool better_candidate(std::uint32_t a_ticks, std::uint32_t a_load,
                      std::uint16_t a_hops, std::uint32_t b_ticks,
                      std::uint32_t b_load, std::uint16_t b_hops) {
  if (a_ticks != b_ticks) return a_ticks > b_ticks;
  if (a_load != b_load) return a_load < b_load;
  return a_hops < b_hops;
}

/// The local query's pick: the join closest to the destination; the
/// earliest of equals wins.
const CsiCandidate& fewest_join_hops(const std::vector<CsiCandidate>& c) {
  return *std::min_element(c.begin(), c.end(),
                           [](const CsiCandidate& a, const CsiCandidate& b) {
                             return a.topo_hops < b.topo_hops;
                           });
}
}  // namespace

AbrProtocol::AbrProtocol(ProtocolHost& host, const AbrConfig& cfg)
    : Protocol(host), cfg_(cfg), history_(host.flood_log(), host.id()) {}

std::uint32_t AbrProtocol::ticks(net::NodeId neighbor) const {
  const auto it = neighbors_.find(neighbor);
  if (it == neighbors_.end()) return 0;
  if (now() - it->second.last_beacon > kNeighborTimeout) return 0;
  return it->second.ticks;
}

std::optional<net::NodeId> AbrProtocol::downstream(net::FlowKey flow) const {
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid) return std::nullopt;
  return it->second.downstream;
}

void AbrProtocol::start() {
  // Random phase desynchronizes beacons network-wide.
  const auto phase = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(
          0.0, static_cast<double>(kBeaconPeriod.nanos())))};
  beacon_timer_.arm_after(host().simulator(), phase, [this] { send_beacon(); });
}

void AbrProtocol::send_beacon() {
  host().send_control(
      net::make_control(net::kBroadcastId, net::AbrBeaconMsg{host().id()}));
  beacon_timer_.arm_after(host().simulator(), kBeaconPeriod,
                          [this] { send_beacon(); });
}

void AbrProtocol::on_beacon(net::NodeId from) {
  auto& n = neighbors_[from];
  if (now() - n.last_beacon > kNeighborTimeout) {
    n.ticks = 0;  // the association lapsed; start counting afresh
  }
  n.ticks = std::min(n.ticks + 1, kTickCap);
  n.last_beacon = now();
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void AbrProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  const net::FlowKey flow = pkt.key();
  if (pkt.dst == host().id()) {
    host().deliver_local(pkt);
    return;
  }

  auto& e = entries_[flow];
  if (from == host().id()) {  // source
    if (e.repairing) {
      repair_pending_.hold(host(), pkt);
      return;
    }
    if (e.valid) {
      host().forward_data(std::move(pkt), e.downstream);
      return;
    }
    sources_[flow].hold(host(), pkt, "abr.pending_overflow");
    begin_discovery(flow);
    return;
  }

  e.upstream = from;
  if (e.repairing) {
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
// Discovery: BQ flood + stability-based selection
// ---------------------------------------------------------------------------

void AbrProtocol::begin_discovery(net::FlowKey flow) {
  sources_[flow].start(host(), flow, "abr.discovery", cfg_.discovery_timeout,
                       [this, flow] { return send_bq(flow); });
}

std::uint32_t AbrProtocol::send_bq(net::FlowKey flow) {
  const std::uint32_t bid = next_bid_++;
  history_.seen_or_insert(host().id(), bid, kTagBq);
  net::AbrBqMsg msg;
  msg.src = net::flow_src(flow);
  msg.dst = net::flow_dst(flow);
  msg.bid = bid;
  host().send_control(net::make_control(net::kBroadcastId, msg));
  return bid;
}

void AbrProtocol::on_bq(const net::AbrBqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;

  const std::uint32_t tick_sum = msg.tick_sum + ticks(from);
  const auto load_sum =
      msg.load_sum + static_cast<std::uint32_t>(host().buffered_count());
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (msg.dst == host().id()) {
    // The destination compares every arriving copy (one per last hop);
    // duplicate suppression only applies to relay forwarding.
    const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
    dests_[flow].collect(host().simulator(), kDestWait, msg.bid,
                         Candidate{from, tick_sum, load_sum, topo},
                         [this, flow] { close_dest_window(flow); });
    return;
  }
  if (history_.seen_or_insert(msg.src, msg.bid, kTagBq, from)) return;
  if (topo >= kDiscoveryTtl) return;
  net::AbrBqMsg fwd = msg;
  fwd.tick_sum = tick_sum;
  fwd.load_sum = load_sum;
  fwd.topo_hops = topo;
  host().send_control(net::make_control(net::kBroadcastId, fwd));
}

void AbrProtocol::close_dest_window(net::FlowKey flow) {
  auto& d = dests_[flow];
  const auto candidates = d.close();
  if (candidates.empty()) return;
  const auto best = std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) {
        return better_candidate(a.tick_sum, a.load_sum, a.topo_hops,
                                b.tick_sum, b.load_sum, b.topo_hops);
      });
  host().send_control(net::make_control(
      best->first_hop, net::AbrReplyMsg{net::flow_src(flow),
                                        net::flow_dst(flow), d.bid(), 0}));
}

void AbrProtocol::on_reply(const net::AbrReplyMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  auto& e = entries_[flow];
  e.valid = true;
  e.downstream = from;
  e.hops_to_dst = static_cast<std::uint16_t>(msg.topo_hops + 1);
  e.repairing = false;

  if (msg.src == host().id()) {
    auto& s = sources_[flow];
    s.finish();
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       static_cast<double>(msg.topo_hops + 1));
    for (auto& p : s.release(host())) {
      host().forward_data(std::move(p), e.downstream);
    }
    repair_pending_.release(host(), flow, e.downstream);
    return;
  }
  const auto up = history_.upstream(msg.src, msg.bid, kTagBq);
  if (!up) return;
  e.upstream = *up;
  net::AbrReplyMsg fwd = msg;
  fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

// ---------------------------------------------------------------------------
// Local repair: LQ with RN backtracking
// ---------------------------------------------------------------------------

void AbrProtocol::start_local_query(net::FlowKey flow) {
  auto& e = entries_[flow];
  e.repairing = true;
  e.valid = false;
  constexpr sim::Time kLqTimeout = sim::milliseconds(150);
  queries_[flow].start<net::AbrLqMsg>(
      host(), history_, flow, e, next_bid_++, "abr.lq", kLqTimeout,
      [this, flow](std::uint32_t bid) { finish_local_query(flow, bid); });
}

void AbrProtocol::on_lq(const net::AbrLqMsg& msg, net::NodeId from) {
  if (msg.origin == host().id()) return;
  if (history_.seen_or_insert(msg.origin, msg.bid, LocalQuery::kTag, from)) {
    return;
  }
  LocalQuery::answer_or_forward(
      host(), entries_, msg, from, net::AbrLqReplyMsg{},
      [this](const net::AbrLqMsg& fwd) {
        host().send_control(net::make_control(net::kBroadcastId, fwd));
      });
}

void AbrProtocol::on_lq_reply(const net::AbrLqReplyMsg& msg,
                              net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  if (msg.origin == host().id()) {
    queries_[flow].collect(msg.bid,
                           CsiCandidate{from, 0.0, msg.join_hops_to_dst});
  } else {
    LocalQuery::splice_reply(host(), history_, entries_[flow], msg, from);
  }
}

void AbrProtocol::finish_local_query(net::FlowKey flow, std::uint32_t bid) {
  auto& e = entries_[flow];
  if (!e.repairing) return;  // a reply already ended the repair
  queries_[flow].finish(
      host(), flow, e, bid, "abr.lq_success", fewest_join_hops,
      [this, flow, &e] { repair_pending_.release(host(), flow, e.downstream); },
      [this, flow, &e] {
        e.repairing = false;
        backtrack(flow, e);
      });
}

void AbrProtocol::backtrack(net::FlowKey flow, Entry& e) {
  if (net::flow_src(flow) == host().id()) {
    // Backtracked all the way: full rediscovery, keep the held packets.
    begin_discovery(flow);
    return;
  }
  host().count("abr.rn");
  if (e.upstream != host().id()) {
    host().send_control(net::make_control(
        e.upstream,
        net::AbrRnMsg{net::flow_src(flow), net::flow_dst(flow), host().id()}));
  }
  // Packets held here cannot be salvaged once we give up the repair.
  repair_pending_.discard(host(), flow);
}

void AbrProtocol::on_rn(const net::AbrRnMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid ||
      it->second.downstream != from) {
    return;  // stale notification from an abandoned path
  }
  // Our downstream gave up; now it is our turn to repair locally.
  start_local_query(flow);
}

double AbrProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, neighbors_.load_factor());
  lf = std::max(lf, entries_.load_factor());
  lf = std::max(lf, sources_.load_factor());
  lf = std::max(lf, dests_.load_factor());
  lf = std::max(lf, queries_.load_factor());
  lf = std::max(lf, repair_pending_.load_factor());
  return lf;
}

void AbrProtocol::on_link_break(net::NodeId neighbor,
                                std::vector<net::DataPacket> stranded) {
  host().count("abr.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  // The broken association resets.
  neighbors_.erase(neighbor);

  for (auto& [flow, e] : entries_) {
    if ((!e.valid && !e.repairing) || e.downstream != neighbor) continue;
    if (net::flow_src(flow) == host().id() && e.hops_to_dst <= 1) {
      // Next hop was the destination itself: just rediscover.
      e.valid = false;
      begin_discovery(flow);
      continue;
    }
    start_local_query(flow);
  }
  for (const auto& p : stranded) {
    if (entries_[p.key()].repairing) {
      repair_pending_.hold(host(), p);
    } else {
      host().drop_data(p, stats::DropReason::kLinkBreak);
    }
  }
}

void AbrProtocol::on_control(const net::ControlPacket& pkt, net::NodeId from) {
  if (std::get_if<net::AbrBeaconMsg>(&pkt.payload) != nullptr) {
    on_beacon(from);
  } else if (const auto* bq = std::get_if<net::AbrBqMsg>(&pkt.payload)) {
    on_bq(*bq, from);
  } else if (const auto* rep = std::get_if<net::AbrReplyMsg>(&pkt.payload)) {
    on_reply(*rep, from);
  } else if (const auto* lq = std::get_if<net::AbrLqMsg>(&pkt.payload)) {
    on_lq(*lq, from);
  } else if (const auto* lr = std::get_if<net::AbrLqReplyMsg>(&pkt.payload)) {
    on_lq_reply(*lr, from);
  } else if (const auto* rn = std::get_if<net::AbrRnMsg>(&pkt.payload)) {
    on_rn(*rn, from);
  }
}

}  // namespace rica::routing
