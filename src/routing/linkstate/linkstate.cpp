#include "routing/linkstate/linkstate.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rica::routing {

namespace {
const LinkStateProtocol::AdjacencyRow kNoLinks;

/// Minimum spacing between Dijkstra recomputations (SPF hold-down, as in
/// deployed link-state routers).  Between recomputations a terminal forwards
/// on its previous tree even though newer LSUs have arrived — with
/// per-second CSI churn this is precisely what lets neighbouring terminals
/// disagree and routing loops form (§III-B).
constexpr sim::Time kSpfHold = sim::milliseconds(3000);

/// CSI hop distances (csi.hpp) in exact thirds: 1, 5/3, 10/3 and 5.
constexpr std::array<std::uint32_t, 4> kCost = {3, 5, 10, 15};
/// Dial's circular buckets: more than the largest edge cost, so a bucket
/// never holds two distances at once.
constexpr std::uint32_t kBuckets = 16;
static_assert(kCost.back() < kBuckets);

/// SPF's working arrays.  One set per thread, shared by every terminal the
/// thread simulates; each run clears them first, so no state passes from
/// one run (or terminal) to the next.
struct SpfWorkspace {
  std::vector<double> dist;
  std::vector<net::NodeId> parent;
  /// Dial's buckets: (path sum, node) entries reached at t thirds, t % 16.
  std::array<std::vector<std::pair<double, net::NodeId>>, kBuckets> buckets;
};

SpfWorkspace& spf_workspace() {
  thread_local SpfWorkspace workspace;
  return workspace;
}
}  // namespace

LinkStateProtocol::LinkStateProtocol(ProtocolHost& host,
                                     const LinkStateConfig& cfg)
    : Protocol(host), cfg_(cfg) {}

void LinkStateProtocol::install_topology(const Topology& topology) {
  complete_tree();
  snapshot_ = topology;
  view_.clear();  // read the new snapshot's rows until the next adopt
  held_.clear();
  ++view_version_;
  resume_sensing();  // a stopped tick must compare the new own row
  host().trace_route("topology_install", host().id(), 0, 0,
                     static_cast<double>(cfg_.num_nodes));
}

const LinkStateProtocol::AdjacencyRow& LinkStateProtocol::own_row() const {
  return row(host().id());
}

const LinkStateProtocol::AdjacencyRow& LinkStateProtocol::row(
    net::NodeId origin) const {
  if (origin >= cfg_.num_nodes) {
    throw std::out_of_range("LinkStateProtocol::row: origin outside the view");
  }
  return view_row(origin);
}

const LinkStateProtocol::AdjacencyRow& LinkStateProtocol::view_row(
    net::NodeId origin) const {
  if (!view_.empty()) return *view_[origin];
  const auto& rows = std::as_const(snapshot_);
  return origin < rows.size() ? rows[origin] : kNoLinks;
}

void LinkStateProtocol::adopt(net::NodeId origin, net::SharedLinkRow row) {
  complete_tree();  // the view is about to change
  if (view_.empty()) {  // the first change: a private view of the snapshot
    const auto& rows = std::as_const(snapshot_);
    view_.reserve(cfg_.num_nodes);
    for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
      view_.push_back(i < rows.size() ? &rows[i] : &kNoLinks);
    }
    held_.resize(cfg_.num_nodes);
  }
  view_[origin] = row ? row.get() : &kNoLinks;
  held_[origin] = std::move(row);
  ++view_version_;
}

void LinkStateProtocol::start() {
  const auto phase = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(
          0.0, static_cast<double>(kSensePeriod.nanos())))};
  first_tick_ = host().simulator().now() + phase;
  sense_timer_.arm_at(host().simulator(), first_tick_,
                      [this] { sense_links(); });
}

void LinkStateProtocol::sense_links() {
  // The host's row is only borrowed: copy it only when it floods.
  const auto& row = host().link_row();
  if (row != view_row(host().id())) {
    publish_own_row(row);
  } else if (host().links_final()) {
    return;  // every later tick would compare these same rows
  }
  sense_timer_.arm_after(host().simulator(), kSensePeriod,
                         [this] { sense_links(); });
}

void LinkStateProtocol::resume_sensing() {
  const sim::Time now = host().simulator().now();
  if (sense_timer_.armed() || first_tick_ > now) return;
  const std::int64_t ticks =
      (now - first_tick_).nanos() / kSensePeriod.nanos() + 1;
  sense_timer_.arm_at(host().simulator(),
                      first_tick_ + kSensePeriod * ticks,
                      [this] { sense_links(); });
}

void LinkStateProtocol::publish_own_row(AdjacencyRow row) {
  auto shared = net::share_row(std::move(row));
  adopt(host().id(), shared);
  ++own_seq_;
  host().count("ls.lsu_origin");
  host().send_control(net::make_control(
      net::kBroadcastId, net::LsuMsg{host().id(), own_seq_, std::move(shared)}));
}

void LinkStateProtocol::on_lsu(const net::LsuMsg& msg,
                               std::uint16_t size_bytes) {
  if (msg.origin == host().id()) return;
  if (msg.origin >= cfg_.num_nodes) return;
  if (seqs_.empty()) seqs_.assign(cfg_.num_nodes, 0);
  if (msg.seq <= seqs_[msg.origin]) return;  // duplicate or stale
  seqs_[msg.origin] = msg.seq;
  adopt(msg.origin, msg.links);
  // Re-flood exactly once per (origin, seq): the seq check above is the
  // duplicate suppression.
  host().send_control(net::ControlPacket{net::kBroadcastId, size_bytes, msg});
}

void LinkStateProtocol::recompute_if_stale(net::NodeId dst) {
  if (routes_version_ == view_version_) return;
  const sim::Time now = host().simulator().now();
  if (spf_ever_ran_ && now - last_spf_ < kSpfHold) {
    return;  // SPF hold-down: keep forwarding on the previous tree
  }
  spf_ever_ran_ = true;
  last_spf_ = now;
  routes_version_ = view_version_;
  host().count("ls.spf_runs");
  // Stopping early pays off only while the view holds still: on a moving
  // channel the next query usually needs the rest of the tree anyway.
  spf(host().links_final() ? dst : kNoNextHop);
}

void LinkStateProtocol::complete_tree() {
  if (tree_partial_) spf(kNoNextHop);
}

void LinkStateProtocol::spf(net::NodeId target) {
  // Dijkstra with CSI hop-distance costs over the (possibly stale) view.
  // Edges are taken as advertised by the tail terminal's row.  The costs
  // are whole thirds, so Dial's bucket queue replaces the binary heap:
  // bucket t % 16 collects the nodes reached at t thirds, and it is complete
  // when the scan reaches it, because every edge costs at least 3.  Path
  // sums stay in double, as before: 5/3 + 5/3 + 5/3 != 5 in double, so two
  // paths of equal thirds can differ in their last bit, and that bit has
  // always decided which one wins.  No node of bucket t can relax another
  // node of bucket t, so the order in which a bucket is scanned changes no
  // distance, only which of several equal-sum relaxers is seen first.  The
  // heap keeps the relaxer it pops first, the least (dist, id); so on an
  // exact tie v takes u as parent when u precedes its current parent in that
  // order, and the tree is the heap's tree, bit for bit (DESIGN.md §14).
  //
  // The scan stops as soon as `target` is final.  Every node not yet final
  // then reads kUnsettled in next_hop_ until complete_tree() reruns the
  // scan to the end on the same view.  A partial run leaves entries in the
  // buckets, so every run clears the workspace before it starts.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = cfg_.num_nodes;
  SpfWorkspace& ws = spf_workspace();
  auto& dist = ws.dist;
  auto& parent = ws.parent;
  auto& buckets = ws.buckets;
  dist.assign(n, kInf);
  parent.assign(n, kNoNextHop);
  for (auto& bucket : buckets) bucket.clear();
  auto& first_hop = next_hop_;  // the tree is written in place
  first_hop.assign(n, kNoNextHop);
  const auto precedes = [&dist](net::NodeId a, net::NodeId b) {
    return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
  };

  const net::NodeId self = host().id();
  dist[self] = 0.0;
  buckets[0].emplace_back(0.0, self);
  std::size_t queued = 1;
  std::uint64_t relaxed = 0;
  // When the scan reaches bucket t, every node within t + 2 thirds is
  // final: whatever could still reach it lies within t - 1 thirds and has
  // been scanned.  3 * dist is within far less than 1/2 of a node's thirds.
  const auto settled_at = [&dist](net::NodeId v, std::uint32_t thirds) {
    return dist[v] * 3.0 < thirds + 2.5;
  };
  std::uint32_t thirds = 0;
  bool partial = false;
  for (; queued > 0; ++thirds) {
    if (target < n && settled_at(target, thirds)) {
      partial = true;
      break;
    }
    auto& bucket = buckets[thirds % kBuckets];
    if (bucket.empty()) continue;
    queued -= bucket.size();
    for (const auto& [d, u] : bucket) {
      if (d > dist[u]) continue;  // reached again more cheaply since
      const auto& row = view_row(u);
      relaxed += row.size();
      const net::NodeId hop = first_hop[u];
      for (const auto& [v, cls] : row) {
        if (v >= n) continue;
        const double nd = d + channel::csi_hop_distance(cls);
        if (nd < dist[v]) {
          dist[v] = nd;
          parent[v] = u;
          first_hop[v] = u == self ? v : hop;
          const auto cost = kCost[static_cast<std::size_t>(cls)];
          buckets[(thirds + cost) % kBuckets].emplace_back(nd, v);
          ++queued;
        } else if (nd == dist[v] && precedes(u, parent[v])) {
          parent[v] = u;
          first_hop[v] = u == self ? v : hop;
        }
      }
    }
    bucket.clear();
  }
  host().count("ls.spf_relaxations", relaxed);
  if (partial) {
    for (net::NodeId v = 0; v < n; ++v) {
      if (!settled_at(v, thirds)) first_hop[v] = kUnsettled;
    }
  }
  tree_partial_ = partial;
}

std::optional<net::NodeId> LinkStateProtocol::next_hop(net::NodeId dst) {
  recompute_if_stale(dst);
  if (dst >= next_hop_.size()) return std::nullopt;
  if (next_hop_[dst] == kUnsettled) complete_tree();
  if (next_hop_[dst] == kNoNextHop) return std::nullopt;
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
  const auto& row = view_row(host().id());
  const auto it = std::find_if(row.begin(), row.end(),
                               [neighbor](const auto& e) {
                                 return e.first == neighbor;
                               });
  if (it != row.end()) {
    AdjacencyRow kept = row;
    kept.erase(kept.begin() + (it - row.begin()));
    publish_own_row(std::move(kept));
    // The sensed row no longer matches: the next tick restores the link.
    resume_sensing();
  }
}

void LinkStateProtocol::on_control(const net::ControlPacket& pkt,
                                   net::NodeId from) {
  (void)from;
  if (const auto* lsu = std::get_if<net::LsuMsg>(&pkt.payload)) {
    on_lsu(*lsu, pkt.size_bytes);
  }
}

}  // namespace rica::routing
