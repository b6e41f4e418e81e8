// The per-terminal tables the network-wide flood log replaced, kept
// verbatim as test oracles: the history table (one open-addressing set of
// packed (tag, origin, bid) keys per terminal) and the reverse paths (one
// (origin, bid) -> upstream map per terminal and packet kind).
// tests/flood_log_test.cpp drives routing::FloodLog against one of each per
// node.  Their own namespace; never linked into rica_core.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "util/flat_table.hpp"

namespace rica::oracle {

/// Flat membership set over packed 64-bit keys: insert and clear only (the
/// flood-dedup history table never erases single keys).  ~0ull is reserved
/// as the empty-bucket sentinel — unreachable for real keys because node
/// ids are bounded below 2^24 (net::kMaxNodes).
class FlatSet64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  /// Inserts `key`; returns true when it was newly added.
  bool insert(std::uint64_t key) {
    assert(key != kEmptyKey && "FlatSet64: key collides with the sentinel");
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = util::detail::probe_start(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] == kEmptyKey) {
        slots_[i] = key;
        ++size_;
        return true;
      }
      if (slots_[i] == key) return false;
    }
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = util::detail::probe_start(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] == kEmptyKey) return false;
      if (slots_[i] == key) return true;
    }
  }

  void clear() {
    slots_.assign(slots_.size(), kEmptyKey);
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double load_factor() const {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(size_) /
                     static_cast<double>(slots_.size());
  }
  [[nodiscard]] std::size_t index_capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kInitialSlots = 32;

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, kEmptyKey);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t key : old) {
      if (key == kEmptyKey) continue;
      std::size_t i = util::detail::probe_start(key, mask);
      while (slots_[i] != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

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

  FlatSet64 seen_;
};

/// A relay's reverse paths: for each flood (origin, bid) it forwarded, the
/// neighbour it first heard the flood from, so the reply can retrace it.
class ReversePaths {
 public:
  void record(net::NodeId origin, std::uint32_t bid, net::NodeId upstream) {
    up_[key(origin, bid)] = upstream;
  }

  /// The upstream of flood (origin, bid), if this relay forwarded it.
  [[nodiscard]] std::optional<net::NodeId> find(net::NodeId origin,
                                                std::uint32_t bid) const {
    const auto it = up_.find(key(origin, bid));
    if (it == up_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] double load_factor() const { return up_.load_factor(); }

 private:
  static constexpr std::uint64_t key(net::NodeId origin, std::uint32_t bid) {
    return (static_cast<std::uint64_t>(origin) << 32) | bid;
  }

  util::FlatMap64<net::NodeId> up_;
};

}  // namespace rica::oracle
