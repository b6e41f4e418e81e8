#include "routing/linkstate/linkstate.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

namespace rica::routing {

namespace {
const LinkStateProtocol::AdjacencyRow kNoLinks;
}  // namespace

LinkStateProtocol::LinkStateProtocol(ProtocolHost& host,
                                     const LinkStateConfig& cfg)
    : Protocol(host), cfg_(cfg) {
  view_.assign(cfg_.num_nodes, &kNoLinks);
  seqs_.assign(cfg_.num_nodes, 0);
  next_hop_.assign(cfg_.num_nodes, kNoNextHop);
}

void LinkStateProtocol::install_topology(const Topology& topology) {
  snapshot_ = topology;
  const auto& rows = std::as_const(snapshot_);
  for (std::size_t i = 0; i < view_.size(); ++i) {
    view_[i] = i < rows.size() ? &rows[i] : &kNoLinks;
  }
  ++view_version_;
  host().trace_route("topology_install", host().id(), 0, 0,
                     static_cast<double>(view_.size()));
}

const LinkStateProtocol::AdjacencyRow& LinkStateProtocol::own_row() const {
  return row(host().id());
}

const LinkStateProtocol::AdjacencyRow& LinkStateProtocol::row(
    net::NodeId origin) const {
  return *view_.at(origin);
}

LinkStateProtocol::AdjacencyRow& LinkStateProtocol::owned_row(
    net::NodeId origin) {
  if (own_rows_.empty()) own_rows_.resize(cfg_.num_nodes);
  auto& slot = own_rows_[origin];
  if (view_[origin] != &slot) {
    slot = *view_[origin];
    view_[origin] = &slot;
  }
  return slot;
}

void LinkStateProtocol::start() {
  const auto phase = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(
          0.0, static_cast<double>(cfg_.sense_period.nanos())))};
  sense_timer_.arm_after(host().simulator(), phase,
                         [this] { sense_links(); });
}

void LinkStateProtocol::sense_links() {
  // The host's row is only borrowed: copy it only when it floods.
  const auto& row = host().link_row();
  if (row != *view_[host().id()]) {
    owned_row(host().id()) = row;
    ++view_version_;
    flood_own_row();
  }
  sense_timer_.arm_after(host().simulator(), cfg_.sense_period,
                         [this] { sense_links(); });
}

void LinkStateProtocol::flood_own_row() {
  ++own_seq_;
  seqs_[host().id()] = own_seq_;
  net::LsuMsg msg;
  msg.origin = host().id();
  msg.seq = own_seq_;
  msg.links = *view_[host().id()];
  host().count("ls.lsu_origin");
  host().send_control(net::make_control(net::kBroadcastId, std::move(msg)));
}

void LinkStateProtocol::on_lsu(const net::LsuMsg& msg, net::NodeId from) {
  (void)from;
  if (msg.origin == host().id()) return;
  if (msg.origin >= cfg_.num_nodes) return;
  if (msg.seq <= seqs_[msg.origin]) return;  // duplicate or stale
  seqs_[msg.origin] = msg.seq;
  owned_row(msg.origin) = msg.links;
  ++view_version_;
  // Re-flood exactly once per (origin, seq): the seq check above is the
  // duplicate suppression.
  host().send_control(net::make_control(net::kBroadcastId, msg));
}

void LinkStateProtocol::recompute_if_stale() {
  if (routes_version_ == view_version_) return;
  const sim::Time now = host().simulator().now();
  if (spf_ever_ran_ && now - last_spf_ < cfg_.spf_hold) {
    return;  // SPF hold-down: keep forwarding on the previous tree
  }
  spf_ever_ran_ = true;
  last_spf_ = now;
  routes_version_ = view_version_;

  // Dijkstra with CSI hop-distance costs over the (possibly stale) view.
  // Edges are taken as advertised by the tail terminal's row.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = cfg_.num_nodes;
  std::vector<double> dist(n, kInf);
  std::vector<net::NodeId> first_hop(n, kNoNextHop);
  using Item = std::pair<double, net::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;

  const net::NodeId self = host().id();
  dist[self] = 0.0;
  heap.emplace(0.0, self);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, cls] : *view_[u]) {
      if (v >= n) continue;
      const double nd = d + channel::csi_hop_distance(cls);
      if (nd < dist[v]) {
        dist[v] = nd;
        first_hop[v] = u == self ? v : first_hop[u];
        heap.emplace(nd, v);
      }
    }
  }
  next_hop_ = std::move(first_hop);
}

std::optional<net::NodeId> LinkStateProtocol::next_hop(net::NodeId dst) {
  recompute_if_stale();
  if (dst >= next_hop_.size() || next_hop_[dst] == kNoNextHop) {
    return std::nullopt;
  }
  return next_hop_[dst];
}

void LinkStateProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  (void)from;
  if (pkt.dst == host().id()) {
    host().deliver_local(pkt);
    return;
  }
  const auto nh = next_hop(pkt.dst);
  if (!nh) {
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    return;
  }
  host().forward_data(std::move(pkt), *nh);
}

void LinkStateProtocol::on_link_break(net::NodeId neighbor,
                                      std::vector<net::DataPacket> stranded) {
  host().count("ls.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  for (const auto& p : stranded) {
    host().drop_data(p, stats::DropReason::kLinkBreak);
  }
  // Remove the dead link from our row immediately and flood the change.
  const auto& row = *view_[host().id()];
  const auto it = std::find_if(row.begin(), row.end(),
                               [neighbor](const auto& e) {
                                 return e.first == neighbor;
                               });
  if (it != row.end()) {
    auto& own = owned_row(host().id());
    own.erase(own.begin() + (it - row.begin()));
    ++view_version_;
    flood_own_row();
  }
}

void LinkStateProtocol::on_control(const net::ControlPacket& pkt,
                                   net::NodeId from) {
  if (const auto* lsu = std::get_if<net::LsuMsg>(&pkt.payload)) {
    on_lsu(*lsu, from);
  }
}

}  // namespace rica::routing
