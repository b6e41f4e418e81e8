// The typed, pooled discrete-event engine.
//
// Replaces the std::function binary heap + lazy-cancellation hash set with:
//
//   * a slab of fixed-size event records (chunked, stable addresses) holding
//     the callback inline in a small type-erased buffer — no per-event heap
//     allocation for any closure up to kInlineBytes (oversized closures fall
//     back to one heap cell and are counted in heap_fallbacks());
//   * generation-counted handles: cancel() is an O(1) slot lookup + unlink,
//     the record is recycled immediately, and a stale handle (fired or
//     cancelled) can never touch a reused slot;
//   * a four-rung hierarchical timing wheel (256 buckets per rung, 4096 ns
//     ticks) with per-rung occupancy bitmaps: schedule and pop are O(1)
//     amortized — each event is touched at most once per rung as the clock
//     cascades it downward;
//   * batch firing: each rung-0 bucket is harvested *whole* into a flat
//     vector, sorted once by (time, seq), and consumed front-to-back — no
//     per-event heap churn on the pop path.  Events scheduled at-or-behind
//     the harvested tick mid-batch (e.g. a callback arming a zero-delay
//     event) land in a small "spill" min-heap; fire_next() interleaves the
//     batch cursor and the spill top by (at, seq), so the global pop order
//     stays the exact deterministic (timestamp, FIFO-seq) order.  Fires
//     consumed from the flat batch are counted in batched_fires().
//
// Time must advance monotonically at the firing boundary: scheduling
// earlier than an already-fired event asserts in debug builds (it would
// break the exact pop order) and fires as-soon-as-possible in release.
// Scheduling behind the engine's *internal* clock is legal and exact —
// next_time() may harvest buckets ahead of the caller's run horizon, and
// such events simply join the spill heap, which orders every not-yet-fired
// event by (at, seq) regardless.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rica::sim {

/// Handle identifying a scheduled event; usable to cancel it.  Packs the
/// slab slot (upper 32 bits, offset by one so 0 is never a valid handle)
/// and the slot's generation at scheduling time (lower 32 bits).
using EventId = std::uint64_t;

/// Slab-backed four-rung timing-wheel event engine.  See the file comment
/// for the design; fire_next() invokes the callback in place (the record is
/// recycled *before* invocation, so a callback may re-arm into its own —
/// now cache-hot — slot).
class EventEngine {
 public:
  /// Inline capacity of an event record's callback buffer.  Sizing rule:
  /// the measured largest closure the stack schedules, rounded up to a
  /// power of two.  Per-transmission MAC state lives in the MAC's own
  /// NodeState (common_channel.hpp), so every steady-state closure is a
  /// few captured words; the largest (a std::function copy in a periodic
  /// timer chain) is 40 bytes.  Anything larger falls back to one counted
  /// heap cell — the golden suite asserts heap_fallbacks == 0 across the
  /// full protocol × traffic matrix, so an oversized closure can't creep
  /// in unnoticed.
  static constexpr std::size_t kInlineBytes = 64;

  EventEngine();
  ~EventEngine();
  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Schedules `fn` at absolute time `at`. Returns a handle for cancel().
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    using D = std::decay_t<F>;
    const std::uint32_t idx = alloc_slot();
    Slot& s = slot(idx);
    s.at = at;
    s.seq = next_seq_++;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(s.storage)) D(std::forward<F>(fn));
      s.ops = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(s.storage)) (D*)(new D(std::forward<F>(fn)));
      s.ops = &HeapOps<D>::kOps;
      ++heap_fallbacks_;
    }
    place(idx);
    ++size_;
    return make_id(idx, s.gen);
  }

  /// Cancels a pending event: O(1) unlink, slot recycled immediately.
  /// Cancelling an already-fired or unknown handle is a no-op returning
  /// false (generation counters make stale handles harmless even after the
  /// slot has been reused).
  bool cancel(EventId id);

  /// True while `id` refers to a still-pending event.
  [[nodiscard]] bool pending(EventId id) const;

  /// True if no pending events remain.
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] Time next_time();

  /// A fired event's identity (the callback has already been invoked).
  struct Fired {
    Time at;
    EventId id{};
  };

  /// Pops the earliest pending event, recycles its record, and invokes its
  /// callback. Requires !empty().
  Fired fire_next();

  // -- diagnostics ----------------------------------------------------------
  /// Slab high-water mark: maximum event records ever in use at once (the
  /// Simulator tracks peak *pending* events itself, across both backends).
  [[nodiscard]] std::size_t slab_high_water() const { return slab_high_water_; }
  /// Closures too large for the inline buffer (each cost one heap cell).
  [[nodiscard]] std::uint64_t heap_fallbacks() const { return heap_fallbacks_; }
  /// Events fired straight off the sorted flat batch (no heap churn); the
  /// remainder went through the spill heap.
  [[nodiscard]] std::uint64_t batched_fires() const { return batched_fires_; }

 private:
  // Type-erased callable operations; one static table per closure type.
  struct CallableOps {
    void (*invoke)(void* p);
    void (*relocate)(void* from, void* to);  // move-construct + destroy src
    void (*destroy)(void* p);
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t);
  }

  template <typename D>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<D*>(p))(); }
    static void relocate(void* from, void* to) {
      D* f = static_cast<D*>(from);
      ::new (to) D(std::move(*f));
      f->~D();
    }
    static void destroy(void* p) { static_cast<D*>(p)->~D(); }
    static constexpr CallableOps kOps{&invoke, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {  // storage holds a single D*
    static void invoke(void* p) { (**static_cast<D**>(p))(); }
    static void relocate(void* from, void* to) {
      std::memcpy(to, from, sizeof(D*));
    }
    static void destroy(void* p) { delete *static_cast<D**>(p); }
    static constexpr CallableOps kOps{&invoke, &relocate, &destroy};
  };

  // Wheel geometry: 4096 ns ticks, 256 buckets per rung, four rungs.
  // Spans per rung: ~1.05 ms, ~268 ms, ~68.7 s, ~4.9 h; events beyond the
  // top rung (relative to the current tick) wait in the overflow list.
  static constexpr int kTickShift = 12;
  static constexpr int kRungBits = 8;
  static constexpr int kRungs = 4;
  static constexpr std::uint32_t kBucketsPerRung = 1u << kRungBits;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint16_t kBucketOverflow = 0xFFFF;
  static constexpr std::size_t kChunkSlots = 256;

  enum class State : std::uint8_t { kFree, kWheel, kReady, kOverflow };

  struct Slot {
    Time at{};
    std::uint64_t seq = 0;
    const CallableOps* ops = nullptr;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t gen = 1;
    std::uint16_t bucket = 0;  ///< rung * 256 + index while on the wheel
    State state = State::kFree;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };

  struct ReadyEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct ReadyLater {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  static constexpr EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(idx + 1) << 32) | gen;
  }

  /// A Time as a wheel tick.  Simulation time is never negative, so the
  /// shift is a plain floor.
  static constexpr std::uint64_t ticks(Time t) {
    return static_cast<std::uint64_t>(t.nanos()) >> kTickShift;
  }

  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  /// Decodes a handle into a validated live-slot index, or kNil.
  [[nodiscard]] std::uint32_t decode(EventId id) const;

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);

  /// Files a freshly written slot into the spill heap / wheel / overflow.
  void place(std::uint32_t idx);
  void link_bucket(int rung, std::uint32_t bidx, std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// Guarantees the batch cursor and spill top both sit on live entries
  /// (harvesting and cascading wheel buckets as needed). Requires !empty().
  void ensure_ready();
  /// Harvests or cascades the next occupied wheel/overflow bucket.
  void advance_wheel();
  /// One wheel advancement step: harvests the next rung-0 bucket into the
  /// (fully consumed) batch, cascades an upper rung, or re-files the
  /// overflow list.  Returns false when the wheel and overflow are empty.
  bool wheel_step();
  /// The live entry with the smallest (at, seq): the batch cursor or the
  /// spill top.  Requires ensure_ready() to have just run.
  [[nodiscard]] const ReadyEntry& peek_min() const;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNil;
  std::size_t slots_in_use_ = 0;
  std::size_t slab_high_water_ = 0;

  std::array<std::vector<std::uint32_t>, kRungs> wheel_;  // bucket heads
  std::array<std::array<std::uint64_t, 4>, kRungs> occupied_{};  // bitmaps
  std::uint32_t overflow_head_ = kNil;
  // The current tick's events: a bucket harvested whole, sorted once by
  // (at, seq), consumed via batch_pos_.  The spill heap catches events
  // place()d at-or-behind cur_tick_ while the batch is in flight.
  std::vector<ReadyEntry> batch_;
  std::size_t batch_pos_ = 0;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyLater> spill_;

  std::uint64_t cur_tick_ = 0;  ///< tick of the last harvested bucket
  Time fired_floor_ = Time::zero();  ///< guards the exact-order precondition
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  std::uint64_t batched_fires_ = 0;
};

}  // namespace rica::sim
