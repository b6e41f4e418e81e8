// Open-addressing hash tables over packed 64-bit keys.
//
// Every per-node routing table in the stack (route entries, discovery
// state, per-link queues) is keyed by a value that packs losslessly into
// 64 bits: a NodeId or a FlowKey (src << 32 | dst) — node ids are bounded
// below 2^24 at construction (net::kMaxNodes), so both fit with room to
// spare.
// std::unordered_map spends a pointer chase plus an allocation per entry on
// such keys; these tables instead probe a flat power-of-two index with
// linear probing (one cache line covers several probes).
//
// FlatMap64<V> separates the index from the values:
//   * the index is a flat array of {probe key, slot ref} pairs that rehashes
//     freely (no value ever moves during a rehash);
//   * values live in chunked slabs with stable addresses, so `V&` references
//     (and the protocols hold them across inserts) stay valid for the
//     value's whole lifetime — required for V = sim::Timer holders, and it
//     makes non-movable V legal;
//   * erased slots become tombstones in the index and free nodes in the
//     slab; both are recycled, and a rehash sweeps tombstones out.
//
// Iteration walks the slab in node order (insertion order, with freed nodes
// recycled LIFO), which is a pure function of the operation sequence —
// deterministic replay of a run reproduces the exact iteration order, which
// the golden stream hashes pin down.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rica::util {

namespace detail {
/// Fibonacci multiplier; the high bits of key * kGolden are well mixed even
/// for the structured keys above (ids in low bits, tags in high bits).
inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

[[nodiscard]] constexpr std::size_t probe_start(std::uint64_t key,
                                                std::size_t mask) {
  // mask is pow2-1; shift the mixed key down so the high (well-mixed) bits
  // pick the bucket.
  return static_cast<std::size_t>((key * kGolden) >> 32) & mask;
}
}  // namespace detail

/// Flat hash map from a packed 64-bit key to V.  See file comment for the
/// index/slab split and the guarantees (stable V addresses, deterministic
/// iteration).  Single-threaded, like the simulator that owns it.
template <typename V>
class FlatMap64 {
 public:
  /// The stored entry; named like std::pair so `it->second` and
  /// `auto& [key, value] : map` work unchanged at the call sites.
  struct Entry {
    const std::uint64_t first;
    V second;
  };

  FlatMap64() = default;
  FlatMap64(const FlatMap64&) = delete;
  FlatMap64& operator=(const FlatMap64&) = delete;
  ~FlatMap64() { clear(); }

  template <bool Const>
  class Iter {
   public:
    using MapPtr = std::conditional_t<Const, const FlatMap64*, FlatMap64*>;
    using Ref = std::conditional_t<Const, const Entry&, Entry&>;

    Iter() = default;
    Iter(MapPtr m, std::uint32_t idx) : m_(m), idx_(idx) {}
    /// const_iterator from iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : m_(o.m_), idx_(o.idx_) {}  // NOLINT(google-explicit-constructor)

    Ref operator*() const { return m_->node(idx_).entry(); }
    auto* operator->() const { return &m_->node(idx_).entry(); }
    Iter& operator++() {
      idx_ = m_->next_live(idx_ + 1);
      return *this;
    }
    bool operator==(const Iter& o) const { return idx_ == o.idx_; }
    bool operator!=(const Iter& o) const { return idx_ != o.idx_; }

   private:
    friend class FlatMap64;
    MapPtr m_ = nullptr;
    std::uint32_t idx_ = kNpos;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] iterator begin() { return {this, next_live(0)}; }
  [[nodiscard]] iterator end() { return {this, kNpos}; }
  [[nodiscard]] const_iterator begin() const { return {this, next_live(0)}; }
  [[nodiscard]] const_iterator end() const { return {this, kNpos}; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator find(std::uint64_t key) {
    return {this, find_node(key)};
  }
  [[nodiscard]] const_iterator find(std::uint64_t key) const {
    return {this, find_node(key)};
  }

  [[nodiscard]] V& at(std::uint64_t key) {
    const std::uint32_t idx = find_node(key);
    assert(idx != kNpos && "FlatMap64::at: key absent");
    return node(idx).entry().second;
  }
  [[nodiscard]] const V& at(std::uint64_t key) const {
    const std::uint32_t idx = find_node(key);
    assert(idx != kNpos && "FlatMap64::at: key absent");
    return node(idx).entry().second;
  }

  /// Inserts V(args...) under `key` unless present.  Returns the entry's
  /// iterator and whether it was inserted.  Like std::try_emplace, args are
  /// not evaluated into a V when the key already exists.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(std::uint64_t key, Args&&... args) {
    if (std::uint32_t idx = find_node(key); idx != kNpos) {
      return {iterator{this, idx}, false};
    }
    reserve_for_insert();
    const std::uint32_t idx = alloc_node();
    ::new (node(idx).storage) Entry{key, V(std::forward<Args>(args)...)};
    node(idx).live = true;
    index_insert(key, idx);
    ++size_;
    return {iterator{this, idx}, true};
  }

  std::pair<iterator, bool> emplace(std::uint64_t key, V&& v) {
    return try_emplace(key, std::move(v));
  }

  /// Default-constructs on first touch (only instantiated when used, so
  /// maps of non-default-constructible V simply avoid operator[]).
  V& operator[](std::uint64_t key) {
    return try_emplace(key).first->second;
  }

  /// Erases `key` if present; returns the number of entries removed.
  std::size_t erase(std::uint64_t key) {
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = detail::probe_start(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] == kEmptySlot) return 0;
      if (slots_[i] >= 0 && keys_[i] == key) {
        const auto idx = static_cast<std::uint32_t>(slots_[i]);
        slots_[i] = kTombSlot;
        ++tombstones_;
        release_node(idx);
        --size_;
        return 1;
      }
    }
  }

  void clear() {
    for (std::uint32_t i = 0; i < node_count_; ++i) {
      if (node(i).live) {
        node(i).entry().~Entry();
        node(i).live = false;
      }
    }
    slots_.assign(slots_.size(), kEmptySlot);
    free_nodes_.clear();
    // Recycle all nodes, highest index first, so the next insert reuses
    // node 0 (LIFO pop) and iteration order restarts from scratch.
    for (std::uint32_t i = node_count_; i-- > 0;) free_nodes_.push_back(i);
    size_ = 0;
    tombstones_ = 0;
  }

  /// Index occupancy (live entries over probe capacity); the observability
  /// gauge surfaced per scenario.  Kept below ~0.75 by rehashing.
  [[nodiscard]] double load_factor() const {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(size_) /
                     static_cast<double>(slots_.size());
  }
  [[nodiscard]] std::size_t index_capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
  static constexpr std::int32_t kEmptySlot = -1;
  static constexpr std::int32_t kTombSlot = -2;
  static constexpr std::size_t kChunkNodes = 32;
  static constexpr std::size_t kInitialSlots = 16;

  struct Node {
    alignas(Entry) unsigned char storage[sizeof(Entry)];
    bool live = false;

    [[nodiscard]] Entry& entry() {
      return *std::launder(reinterpret_cast<Entry*>(storage));
    }
    [[nodiscard]] const Entry& entry() const {
      return *std::launder(reinterpret_cast<const Entry*>(storage));
    }
  };

  [[nodiscard]] Node& node(std::uint32_t idx) {
    return chunks_[idx / kChunkNodes][idx % kChunkNodes];
  }
  [[nodiscard]] const Node& node(std::uint32_t idx) const {
    return chunks_[idx / kChunkNodes][idx % kChunkNodes];
  }

  /// First live node at or after `idx` (kNpos when none) — the iterator's
  /// stepping primitive.
  [[nodiscard]] std::uint32_t next_live(std::uint32_t idx) const {
    for (; idx < node_count_; ++idx) {
      if (node(idx).live) return idx;
    }
    return kNpos;
  }

  [[nodiscard]] std::uint32_t find_node(std::uint64_t key) const {
    if (slots_.empty()) return kNpos;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = detail::probe_start(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] == kEmptySlot) return kNpos;
      if (slots_[i] >= 0 && keys_[i] == key) {
        return static_cast<std::uint32_t>(slots_[i]);
      }
    }
  }

  /// Grows / rebuilds the index when an insert would push occupancy
  /// (including tombstones) past 3/4.
  void reserve_for_insert() {
    if (slots_.empty()) {
      rehash(kInitialSlots);
      return;
    }
    if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
      // Double only when genuinely full; a tombstone-heavy index rebuilds
      // at the same size.
      rehash((size_ + 1) * 4 > slots_.size() * 3 ? slots_.size() * 2
                                                 : slots_.size());
    }
  }

  void rehash(std::size_t new_cap) {
    slots_.assign(new_cap, kEmptySlot);
    keys_.resize(new_cap);
    tombstones_ = 0;
    for (std::uint32_t idx = 0; idx < node_count_; ++idx) {
      if (node(idx).live) index_insert(node(idx).entry().first, idx);
    }
  }

  /// Writes (key -> idx) into the first free probe slot.  The key must not
  /// already be indexed.
  void index_insert(std::uint64_t key, std::uint32_t idx) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = detail::probe_start(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] < 0) {
        if (slots_[i] == kTombSlot) --tombstones_;
        slots_[i] = static_cast<std::int32_t>(idx);
        keys_[i] = key;
        return;
      }
    }
  }

  [[nodiscard]] std::uint32_t alloc_node() {
    if (!free_nodes_.empty()) {
      const std::uint32_t idx = free_nodes_.back();
      free_nodes_.pop_back();
      return idx;
    }
    if (node_count_ == chunks_.size() * kChunkNodes) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    }
    return node_count_++;
  }

  void release_node(std::uint32_t idx) {
    node(idx).entry().~Entry();
    node(idx).live = false;
    free_nodes_.push_back(idx);
  }

  // Index: parallel arrays of slot refs (kEmptySlot / kTombSlot / node
  // index) and probe keys, always a power of two long.
  std::vector<std::int32_t> slots_;
  std::vector<std::uint64_t> keys_;
  // Value slab: chunked, stable addresses, freed nodes recycled LIFO.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::uint32_t> free_nodes_;
  std::uint32_t node_count_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace rica::util
