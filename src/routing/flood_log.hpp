// The §II-B per-flood state of every terminal, kept as one network-wide
// log: the history table ("checks whether it has seen this packet before
// by looking up its history table") and the relays' reverse paths.
//
// Every terminal asks the same question about the same few floods — the
// RREQs, CSI checks, BQs and LQs on the air — so the log indexes each flood
// once, by its packed (tag, origin, bid) key, and keeps one bit per
// terminal for it (⌈N/64⌉ words) and a list of its relays' upstreams.  A
// lookup is one probe of a small shared index plus one word, where a table
// per terminal touched N separate hash sets that together outgrew the
// cache.  DESIGN.md §15 describes the layout and its memory cost;
// tests/flood_log_test.cpp checks it against N per-terminal tables.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// Which terminals have processed which broadcast packets, and the upstream
/// of each relay's first copy, for a network of a fixed size.  Floods are
/// never forgotten.  Single-threaded, like the simulator that owns it.
class FloodLog {
 public:
  explicit FloodLog(std::size_t num_nodes)
      : num_nodes_(num_nodes), words_((num_nodes + 63) / 64) {}
  FloodLog(const FloodLog&) = delete;
  FloodLog& operator=(const FloodLog&) = delete;

  /// Returns true if `node` already recorded (origin, bid) under `tag`;
  /// otherwise records it, with `upstream` when given, and returns false.
  /// A duplicate records nothing, so the upstream kept is the first copy's.
  bool seen_or_insert(net::NodeId node, net::NodeId origin, std::uint32_t bid,
                      std::uint8_t tag,
                      std::optional<net::NodeId> upstream = std::nullopt) {
    const std::uint64_t k = key(origin, bid, tag);
    std::uint32_t flood = find(k);
    if (flood == kNone) flood = insert(k);
    std::uint64_t& word = bits_[word_index(flood, node)];
    const std::uint64_t bit = std::uint64_t{1} << (node % 64);
    if ((word & bit) != 0) return true;
    word |= bit;
    if (upstream) upstreams_[flood].push_back(Upstream{node, *upstream});
    return false;
  }

  /// True if `node` already recorded (origin, bid) under `tag`; records
  /// nothing.
  [[nodiscard]] bool seen(net::NodeId node, net::NodeId origin,
                          std::uint32_t bid, std::uint8_t tag) const {
    const std::uint32_t flood = find(key(origin, bid, tag));
    return flood != kNone &&
           (bits_[word_index(flood, node)] >> (node % 64) & 1) != 0;
  }

  /// The upstream `node` recorded with (origin, bid) under `tag`, if any.
  [[nodiscard]] std::optional<net::NodeId> upstream(
      net::NodeId node, net::NodeId origin, std::uint32_t bid,
      std::uint8_t tag) const {
    const std::uint32_t flood = find(key(origin, bid, tag));
    if (flood == kNone) return std::nullopt;
    for (const Upstream& u : upstreams_[flood]) {
      if (u.node == node) return u.from;
    }
    return std::nullopt;
  }

  /// Floods indexed so far.
  [[nodiscard]] std::size_t floods() const { return upstreams_.size(); }

  /// Bytes the log holds: its index, and per flood a bit row and an upstream
  /// list with its capacity.  It only grows: floods are never forgotten.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = slots_.size() * sizeof(Slot) +
                    bits_.size() * sizeof(std::uint64_t) +
                    upstreams_.size() * sizeof(UpstreamList);
    for (const auto& l : upstreams_) n += l.capacity() * sizeof(Upstream);
    return n;
  }

  /// Index occupancy (floods over probe capacity), kept below 3/4.
  [[nodiscard]] double load_factor() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(floods()) /
                                static_cast<double>(slots_.size());
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::size_t kInitialSlots = 64;

  /// An index slot: a flood's key and its index + 1 (0 marks an empty
  /// slot, so every key value stays usable).
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t flood_plus_one = 0;
  };

  /// A terminal that recorded a flood, and the neighbour it came from.
  struct Upstream {
    net::NodeId node;
    net::NodeId from;
  };
  using UpstreamList = std::vector<Upstream>;

  // Node ids are small (< 2^24, enforced at network construction), so
  // (tag, origin, bid) packs losslessly.
  static std::uint64_t key(net::NodeId origin, std::uint32_t bid,
                           std::uint8_t tag) {
    return ((static_cast<std::uint64_t>(tag) << 24 |
             static_cast<std::uint64_t>(origin))
            << 32) |
           bid;
  }

  [[nodiscard]] std::size_t word_index(std::uint32_t flood,
                                       net::NodeId node) const {
    assert(node < num_nodes_ && "FloodLog: node id outside the network");
    return static_cast<std::size_t>(flood) * words_ + node / 64;
  }

  [[nodiscard]] std::uint32_t find(std::uint64_t k) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = util::detail::probe_start(k, mask);;
         i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.flood_plus_one == 0) return kNone;
      if (s.key == k) return s.flood_plus_one - 1;
    }
  }

  /// Indexes a new flood with no terminal's bit set; `k` must be absent.
  std::uint32_t insert(std::uint64_t k) {
    if ((floods() + 1) * 4 > slots_.size() * 3) grow();
    const auto flood = static_cast<std::uint32_t>(floods());
    bits_.resize(bits_.size() + words_, 0);
    upstreams_.emplace_back();
    place(k, flood);
    return flood;
  }

  void grow() {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.flood_plus_one != 0) place(s.key, s.flood_plus_one - 1);
    }
  }

  void place(std::uint64_t k, std::uint32_t flood) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = util::detail::probe_start(k, mask);
    while (slots_[i].flood_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = Slot{k, flood + 1};
  }

  std::size_t num_nodes_;
  std::size_t words_;        ///< ⌈num_nodes / 64⌉ bit words per flood
  std::vector<Slot> slots_;  ///< open-addressing index, a power of two
  std::vector<std::uint64_t> bits_;  ///< flood-major: words_ per flood
  std::vector<UpstreamList> upstreams_;  ///< one list per flood, in order
};

/// One terminal's history table and reverse paths: a view of the flood log.
class FloodHistory {
 public:
  FloodHistory(FloodLog& log, net::NodeId node) : log_(log), node_(node) {}

  /// Returns true if (origin, bid) was already recorded; otherwise records
  /// it, with a relay's `upstream` (the neighbour the copy came from), and
  /// returns false.  Scoped by a small tag so different packet kinds (RREQ
  /// vs CSI check vs LQ) never collide.
  bool seen_or_insert(net::NodeId origin, std::uint32_t bid,
                      std::uint8_t tag = 0,
                      std::optional<net::NodeId> upstream = std::nullopt) {
    return log_.seen_or_insert(node_, origin, bid, tag, upstream);
  }

  /// True if (origin, bid) was already recorded; records nothing.  Lets a
  /// relay drop a duplicate before it pays for anything else (e.g. a CSI
  /// sample), while a copy it then rejects stays unrecorded.
  [[nodiscard]] bool seen(net::NodeId origin, std::uint32_t bid,
                          std::uint8_t tag = 0) const {
    return log_.seen(node_, origin, bid, tag);
  }

  /// The reverse path of (origin, bid): the upstream recorded, if any.
  [[nodiscard]] std::optional<net::NodeId> upstream(
      net::NodeId origin, std::uint32_t bid, std::uint8_t tag = 0) const {
    return log_.upstream(node_, origin, bid, tag);
  }

  /// The shared log's index occupancy.
  [[nodiscard]] double load_factor() const { return log_.load_factor(); }

 private:
  FloodLog& log_;
  net::NodeId node_;
};

}  // namespace rica::routing
