// The link-state SPF that Dial's bucket queue replaced, kept verbatim as a
// test oracle: Dijkstra over double CSI hop distances on a binary heap.
// tests/routing_test.cpp compares LinkStateProtocol's first hops against it.
// It divides throughputs for each hop distance, as csi.hpp did before its
// kHopDistance table, so the table is checked against the division rather
// than shared with it.  Its own namespace; never linked into rica_core.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "channel/csi.hpp"
#include "net/packet.hpp"
#include "routing/linkstate/linkstate.hpp"

namespace rica::oracle {

inline constexpr net::NodeId kNoNextHop = net::kBroadcastId;

/// CSI hop distance: transmission-delay ratio relative to class A.
inline double hop_distance(channel::CsiClass c) {
  return channel::kClassThroughputBps[0] / channel::throughput_bps(c);
}

/// First hop from `self` toward every node of `view` (kNoNextHop when
/// unreachable), with edges taken as advertised by the tail terminal's row.
/// `dist_out`, when given, receives each node's path sum (infinity when
/// unreachable).
inline std::vector<net::NodeId> spf_first_hops(
    const routing::LinkStateProtocol::Topology& view, net::NodeId self,
    std::vector<double>* dist_out = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = view.size();
  std::vector<double> dist(n, kInf);
  std::vector<net::NodeId> first_hop(n, kNoNextHop);
  using Item = std::pair<double, net::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;

  dist[self] = 0.0;
  heap.emplace(0.0, self);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, cls] : view[u]) {
      if (v >= n) continue;
      const double nd = d + hop_distance(cls);
      if (nd < dist[v]) {
        dist[v] = nd;
        first_hop[v] = u == self ? v : first_hop[u];
        heap.emplace(nd, v);
      }
    }
  }
  if (dist_out != nullptr) *dist_out = std::move(dist);
  return first_hop;
}

}  // namespace rica::oracle
