// Shared building blocks for the on-demand protocols: the RREQ/BQ history
// table (§II-B: "checks whether it has seen this packet before by looking up
// its history table") and the pending-packet buffer used while a route is
// being discovered or repaired.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// Records which broadcast packets (keyed by origin and broadcast id) this
/// terminal has already processed, so floods are forwarded exactly once.
class HistoryTable {
 public:
  /// Returns true if (origin, bid) was already recorded; otherwise records
  /// it and returns false.  Scoped by a small tag so different packet kinds
  /// (RREQ vs CSI check vs LQ) never collide.
  bool seen_or_insert(net::NodeId origin, std::uint32_t bid,
                      std::uint8_t tag = 0) {
    return !seen_.insert(key(origin, bid, tag));
  }

  /// True if (origin, bid) was already recorded; records nothing.  Lets a
  /// relay drop a duplicate before it pays for anything else (e.g. a CSI
  /// sample), while a copy it then rejects stays unrecorded.
  [[nodiscard]] bool seen(net::NodeId origin, std::uint32_t bid,
                          std::uint8_t tag = 0) const {
    return seen_.contains(key(origin, bid, tag));
  }

  void clear() { seen_.clear(); }
  [[nodiscard]] std::size_t size() const { return seen_.size(); }
  [[nodiscard]] double load_factor() const { return seen_.load_factor(); }

 private:
  // Node ids are small (< 2^24, enforced at node construction), so
  // (tag, origin, bid) packs losslessly.
  static std::uint64_t key(net::NodeId origin, std::uint32_t bid,
                           std::uint8_t tag) {
    return ((static_cast<std::uint64_t>(tag) << 24 |
             static_cast<std::uint64_t>(origin))
            << 32) |
           bid;
  }

  util::FlatSet64 seen_;
};

/// FIFO buffer holding data packets while a route is discovered/repaired.
/// Enforces a capacity and the paper's 3-second residency bound.
class PendingBuffer {
 public:
  PendingBuffer(std::size_t cap, sim::Time residency)
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

}  // namespace rica::routing
