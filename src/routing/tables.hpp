// Shared building blocks for the on-demand protocols (RICA, BGCA, ABR,
// AODV): the pending-packet buffer and the §II-B discovery skeleton the
// four protocols share — the source's retry policy, the destination's
// candidate window, and the repair hold — and the local query BGCA and ABR
// repair a broken route with.  The per-flood state, each terminal's
// history table and the relays' reverse paths, is a view of the network's
// flood log (routing/flood_log.hpp).  DESIGN.md §15 describes the policy
// and its order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "routing/flood_log.hpp"
#include "routing/protocol.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

// The paper's discovery constants, one value for every on-demand protocol.

/// Data packets a source (or repairing relay) holds per flow.
inline constexpr std::size_t kPendingCap = 10;
/// How long a held packet stays deliverable (the paper's 3 s bound).
inline constexpr sim::Time kPendingResidency = sim::seconds(3);
/// Floods a source sends for one discovery before it gives up.
inline constexpr int kMaxDiscoveryAttempts = 3;
/// Hop scope of a RREQ/BQ flood (the network diameter).
inline constexpr std::int16_t kDiscoveryTtl = 16;
/// How long a destination collects the copies of one flood.
inline constexpr sim::Time kDestWait = sim::milliseconds(40);

/// FIFO buffer holding data packets while a route is discovered/repaired.
/// Enforces a capacity and the paper's 3-second residency bound.
class PendingBuffer {
 public:
  explicit PendingBuffer(std::size_t cap = kPendingCap,
                         sim::Time residency = kPendingResidency)
      : cap_(cap), residency_(residency) {}

  /// Tries to enqueue; returns false (caller drops the packet) when full.
  bool push(net::DataPacket pkt, sim::Time now) {
    if (q_.size() >= cap_) return false;
    q_.push_back(Entry{std::move(pkt), now});
    return true;
  }

  /// Removes and returns all packets that are still within the residency
  /// bound; expired ones are passed to `on_expired`.
  std::vector<net::DataPacket> take_fresh(
      sim::Time now,
      const std::function<void(const net::DataPacket&)>& on_expired) {
    std::vector<net::DataPacket> fresh;
    fresh.reserve(q_.size());
    for (auto& e : q_) {
      if (now - e.enqueued > residency_) {
        if (on_expired) on_expired(e.pkt);
      } else {
        fresh.push_back(std::move(e.pkt));
      }
    }
    q_.clear();
    return fresh;
  }

  /// take_fresh at the host's clock, dropping expired packets as kExpired:
  /// what a route that just appeared does with the buffer.
  std::vector<net::DataPacket> release(ProtocolHost& host) {
    return take_fresh(host.simulator().now(),
                      [&host](const net::DataPacket& p) {
                        host.drop_data(p, stats::DropReason::kExpired);
                      });
  }

  /// Drops entries older than the residency bound (reporting each).
  void purge_expired(
      sim::Time now,
      const std::function<void(const net::DataPacket&)>& on_expired) {
    while (!q_.empty() && now - q_.front().enqueued > residency_) {
      if (on_expired) on_expired(q_.front().pkt);
      q_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  struct Entry {
    net::DataPacket pkt;
    sim::Time enqueued;
  };
  std::size_t cap_;
  sim::Time residency_;
  std::deque<Entry> q_;
};

/// One source's route discovery for one flow (§II-B): whether a discovery
/// runs, how many floods it has sent, the retry deadline, and the data
/// packets held until a reply installs a route.  The protocol sends each
/// flood itself — its own message type, history tag and `next_bid_`
/// counter — through the `flood` callable it hands to start(); everything
/// else is this one policy.
///
/// The retry closure captures `this`, so the state neither copies nor
/// moves: the protocols keep it in a util::FlatMap64, whose values never
/// move, and never erase it.
class SourceDiscovery {
 public:
  SourceDiscovery() = default;
  SourceDiscovery(const SourceDiscovery&) = delete;
  SourceDiscovery& operator=(const SourceDiscovery&) = delete;

  /// Holds a data packet until a route answers.  A full buffer drops it as
  /// kBufferOverflow and counts it as `overflow_stat`.
  void hold(ProtocolHost& host, const net::DataPacket& pkt,
            const char* overflow_stat) {
    if (pending_.push(pkt, host.simulator().now())) return;
    host.count(overflow_stat);
    host.drop_data(pkt, stats::DropReason::kBufferOverflow);
  }

  /// A route appeared: the held packets that are still fresh, for sending
  /// (expired ones drop as kExpired).
  std::vector<net::DataPacket> release(ProtocolHost& host) {
    return pending_.release(host);
  }

  /// Starts a discovery unless one is running: attempt 1, counted as `stat`
  /// and traced as discovery_start, then the first flood.  `flood()` sends
  /// one flood and returns its broadcast id.
  template <typename Flood>
  void start(ProtocolHost& host, net::FlowKey flow, const char* stat,
             sim::Time timeout, Flood flood) {
    if (active_) return;
    active_ = true;
    attempts_ = 1;
    host.count(stat);
    host.trace_route("discovery_start", net::flow_src(flow),
                     net::flow_dst(flow));
    send(host, flow, timeout, flood);
  }

  /// A reply installed a route: stop retrying.
  void finish() {
    active_ = false;
    timer_.cancel();
  }

 private:
  template <typename Flood>
  void send(ProtocolHost& host, net::FlowKey flow, sim::Time timeout,
            Flood flood) {
    bid_ = flood();
    auto retry = [this, &host, flow, timeout, flood] {
      if (retry_due(host, flow)) send(host, flow, timeout, flood);
    };
    static_assert(sizeof(retry) <= sim::EventEngine::kInlineBytes);
    timer_.arm_after(host.simulator(), timeout, std::move(retry));
  }

  /// The retry deadline passed with no reply.  Expired packets drop as
  /// kExpired; an empty buffer ends the discovery quietly; after the last
  /// attempt the fresh packets drop as kNoRoute.  Returns true when another
  /// flood is due.
  bool retry_due(ProtocolHost& host, net::FlowKey flow) {
    const sim::Time now = host.simulator().now();
    pending_.purge_expired(now, [&host](const net::DataPacket& p) {
      host.drop_data(p, stats::DropReason::kExpired);
    });
    if (pending_.empty()) {
      active_ = false;
      return false;
    }
    if (attempts_ >= kMaxDiscoveryAttempts) {
      for (const auto& p : pending_.take_fresh(now, nullptr)) {
        host.drop_data(p, stats::DropReason::kNoRoute);
      }
      active_ = false;
      host.trace_route("discovery_failed", net::flow_src(flow),
                       net::flow_dst(flow), bid_);
      return false;
    }
    ++attempts_;
    host.trace_route("discovery_retry", net::flow_src(flow),
                     net::flow_dst(flow), bid_);
    return true;
  }

  bool active_ = false;
  std::uint32_t bid_ = 0;  ///< the flood the retry deadline waits on
  int attempts_ = 0;
  sim::Timer timer_;  ///< retry deadline; cancelled by finish()
  PendingBuffer pending_;
};

/// A window over the copies of one flood: the first copy opens it and
/// schedules its close, every copy adds a candidate, and close() hands the
/// candidates over.  A copy of another flood restarts the window with
/// fresh candidates; the older close event then closes it early.
template <typename Candidate>
class CandidateWindow {
 public:
  /// Adds `c` for flood `bid`.  A copy that opens the window schedules
  /// `on_close` after `wait`.
  template <typename F>
  void collect(sim::Simulator& sim, sim::Time wait, std::uint32_t bid,
               const Candidate& c, F&& on_close) {
    static_assert(sizeof(std::decay_t<F>) <= sim::EventEngine::kInlineBytes);
    if (!open_ || bid_ != bid) {
      open_ = true;
      bid_ = bid;
      candidates_.clear();
      sim.after(wait, std::forward<F>(on_close));
    }
    candidates_.push_back(c);
  }

  /// Closes the window and returns its candidates (none when it was not
  /// open).
  std::vector<Candidate> close() {
    if (!open_) return {};
    open_ = false;
    return std::exchange(candidates_, {});
  }

  /// The flood the window collects (or last collected).
  [[nodiscard]] std::uint32_t bid() const { return bid_; }

 private:
  bool open_ = false;
  std::uint32_t bid_ = 0;
  std::vector<Candidate> candidates_;
};

/// A route candidate ranked by CSI distance (RICA, BGCA): the neighbour it
/// came through, its CSI hop distance, and its topological hops.
struct CsiCandidate {
  net::NodeId first_hop = 0;
  double csi_hops = 0.0;
  std::uint16_t topo_hops = 0;
};

/// §II-B: "chooses a route with the minimal distance value"; the earliest
/// of equals wins.  `c` must not be empty.
inline const CsiCandidate& csi_shortest(const std::vector<CsiCandidate>& c) {
  return *std::min_element(c.begin(), c.end(),
                           [](const CsiCandidate& a, const CsiCandidate& b) {
                             return a.csi_hops < b.csi_hops;
                           });
}

/// The packets a repairing terminal holds per flow while its local query
/// runs (BGCA, ABR).
class RepairHold {
 public:
  /// Holds `pkt` for its flow; a full buffer drops it as kBufferOverflow.
  void hold(ProtocolHost& host, const net::DataPacket& pkt) {
    if (!held_[pkt.key()].push(pkt, host.simulator().now())) {
      host.drop_data(pkt, stats::DropReason::kBufferOverflow);
    }
  }

  /// The flow's route is back: its fresh packets go to `next_hop`, and
  /// expired ones drop as kExpired.
  void release(ProtocolHost& host, net::FlowKey flow, net::NodeId next_hop) {
    if (auto it = held_.find(flow); it != held_.end()) {
      for (auto& p : it->second.release(host)) {
        host.forward_data(std::move(p), next_hop);
      }
    }
  }

  /// The repair failed: the flow's fresh packets drop as kLinkBreak, and
  /// the ones past their residency as kExpired.
  void discard(ProtocolHost& host, net::FlowKey flow) {
    if (auto it = held_.find(flow); it != held_.end()) {
      for (const auto& p : it->second.take_fresh(
               host.simulator().now(), [&host](const net::DataPacket& p) {
                 host.drop_data(p, stats::DropReason::kExpired);
               })) {
        host.drop_data(p, stats::DropReason::kLinkBreak);
      }
    }
  }

  [[nodiscard]] double load_factor() const { return held_.load_factor(); }

 private:
  util::FlatMap64<PendingBuffer> held_;
};

/// A flow's route at a terminal that repairs it with a local query (BGCA,
/// ABR).  `hops_to_dst` feeds the query's join-eligibility loop guard.
struct RepairRoute {
  bool valid = false;
  net::NodeId upstream = 0;
  net::NodeId downstream = 0;
  std::uint16_t hops_to_dst = 0;
  bool repairing = false;  ///< the route is down while a query repairs it
};

/// One terminal's local query for one flow (BGCA, ABR): a flood of kTtl hops
/// that looks for the destination, or a terminal strictly closer to it on a
/// live route, and splices the best answer in.  The object is the origin's
/// state: the current bid, its deadline and the join candidates (`topo_hops`
/// holds the join's hops to the destination).  The relay's steps are
/// static.  Each protocol keeps its message types, its duplicate check,
/// when it starts a query and what a failed one does (DESIGN.md §15).
class LocalQuery {
 public:
  static constexpr std::int16_t kTtl = 3;  ///< the query's reach, hops
  /// The flood-log tag of a query (the discovery floods use 1).
  static constexpr std::uint8_t kTag = 2;

  /// Starts query `bid` for `flow` from `route`: drops the older query's
  /// candidates, records the flood, counts `stat`, traces repair_start,
  /// broadcasts a `Msg` and calls `deadline(bid)` after `timeout`.
  template <typename Msg, typename Deadline>
  void start(ProtocolHost& host, FloodHistory& history, net::FlowKey flow,
             const RepairRoute& route, std::uint32_t bid, const char* stat,
             sim::Time timeout, Deadline deadline) {
    bid_ = bid;
    candidates_.clear();
    history.seen_or_insert(host.id(), bid, kTag);
    host.count(stat);
    host.trace_route("repair_start", net::flow_src(flow), net::flow_dst(flow),
                     bid);
    Msg msg;
    msg.origin = host.id();
    msg.src = net::flow_src(flow);
    msg.dst = net::flow_dst(flow);
    msg.bid = bid;
    msg.ttl = kTtl;
    msg.origin_hops_to_dst = route.hops_to_dst;
    host.send_control(net::make_control(net::kBroadcastId, msg));
    auto expire = [deadline, bid] { deadline(bid); };
    static_assert(sizeof(expire) <= sim::EventEngine::kInlineBytes);
    timer_.arm_after(host.simulator(), timeout, std::move(expire));
  }

  /// A reply reached the origin: `c` counts if it answers the current query.
  void collect(std::uint32_t bid, const CsiCandidate& c) {
    if (bid == bid_) candidates_.push_back(c);
  }

  /// Query `bid`'s deadline, unless a newer query replaced it.  The
  /// candidate `rank` picks becomes `route`, one hop beyond its join,
  /// counted as `stat` and traced as repaired, and `flush()` sends the held
  /// packets.  With no candidate, `fail()` runs.
  template <typename Rank, typename Flush, typename Fail>
  void finish(ProtocolHost& host, net::FlowKey flow, RepairRoute& route,
              std::uint32_t bid, const char* stat, Rank rank, Flush flush,
              Fail fail) {
    if (bid != bid_) return;
    if (candidates_.empty()) {
      fail();
      return;
    }
    const CsiCandidate& best = rank(candidates_);
    route.valid = true;
    route.downstream = best.first_hop;
    route.hops_to_dst = static_cast<std::uint16_t>(best.topo_hops + 1);
    route.repairing = false;
    candidates_.clear();
    host.count(stat);
    host.trace_route("repaired", net::flow_src(flow), net::flow_dst(flow), bid,
                     static_cast<double>(route.hops_to_dst));
    flush();
  }

  /// A terminal heard query `msg` from `from` for the first time.  The
  /// destination, or a terminal strictly closer to it on a live route (so
  /// no splice makes a loop), answers with `reply`, whose own fields the
  /// protocol has set.  Otherwise a query with hops left goes on through
  /// `forward(fwd)`, one hop farther and one TTL shorter.
  template <typename Route, typename Msg, typename Reply, typename Forward>
  static void answer_or_forward(ProtocolHost& host,
                                const util::FlatMap64<Route>& routes,
                                const Msg& msg, net::NodeId from, Reply reply,
                                Forward forward) {
    const auto it = routes.find(net::flow_key(msg.src, msg.dst));
    const bool is_dst = msg.dst == host.id();
    const bool on_path = it != routes.end() && it->second.valid &&
                         !it->second.repairing &&
                         it->second.hops_to_dst < msg.origin_hops_to_dst;
    if (is_dst || on_path) {
      reply.origin = msg.origin;
      reply.src = msg.src;
      reply.dst = msg.dst;
      reply.bid = msg.bid;
      reply.join_hops_to_dst = is_dst ? 0 : it->second.hops_to_dst;
      reply.join = host.id();
      host.send_control(net::make_control(from, reply));
      return;
    }
    if (msg.ttl <= 1) return;
    Msg fwd = msg;
    fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
    fwd.ttl = static_cast<std::int16_t>(msg.ttl - 1);
    forward(fwd);
  }

  /// A relay on reply `msg`'s path joins the spliced route: `route` leads
  /// to `from`, one hop beyond the join, and the reply goes on to the
  /// neighbour this relay heard the query from.
  template <typename Reply>
  static void splice_reply(ProtocolHost& host, const FloodHistory& history,
                           RepairRoute& route, Reply msg, net::NodeId from) {
    route.valid = true;
    route.downstream = from;
    route.hops_to_dst = static_cast<std::uint16_t>(msg.join_hops_to_dst + 1);
    route.repairing = false;
    const auto up = history.upstream(msg.origin, msg.bid, kTag);
    if (!up) return;
    route.upstream = *up;
    msg.join_hops_to_dst = route.hops_to_dst;
    host.send_control(net::make_control(*up, msg));
  }

 private:
  std::uint32_t bid_ = 0;  ///< the current query
  sim::Timer timer_;       ///< its deadline
  std::vector<CsiCandidate> candidates_;
};

}  // namespace rica::routing
