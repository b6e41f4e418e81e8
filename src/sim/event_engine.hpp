// The typed, pooled discrete-event engine.
//
//   * A chunked slab of fixed-size event records (stable addresses) holds
//     each callback inline in a small type-erased buffer: no per-event heap
//     allocation for any closure up to kInlineBytes (oversized closures fall
//     back to one heap cell and are counted in heap_fallbacks()).
//   * One binary min-heap of {at, seq, slot, gen} entries orders the pending
//     events by (timestamp, schedule-seq).  seq is unique, so that order is
//     total, and any exact priority queue pops the same stream.
//   * Generation-counted handles: cancel() destroys the callback and frees
//     the slot at once, which bumps its generation.  The cancelled event's
//     heap entry is left in place and discarded when it reaches the top
//     (lazy cancellation); a stale handle (fired or cancelled) can never
//     touch a reused slot.
//
// Time must advance monotonically at the firing boundary: scheduling
// earlier than an already-fired event asserts in debug builds (it would
// break the exact pop order) and fires as soon as possible in release.
//
// A fired event's heap entry stays at the root while its callback runs:
// it is stale already, so the callback's first schedule() overwrites it and
// sifts down once, and a re-arming event (a carrier-sense poll, a periodic
// timer) costs one sift instead of a pop plus a push.  Any pop in between
// hands the root back, and a callback that schedules nothing leaves the
// root to be popped when it returns.
//
// A Reservation takes the schedule-seq an event scheduled now would take,
// without scheduling anything.  Attached later, it schedules at exactly
// that (time, seq), so it pops where the event would have; never attached,
// it costs nothing.  passed() compares it with the firing cursor.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rica::sim {

/// Handle identifying a scheduled event; usable to cancel it.  Packs the
/// slab slot (upper 32 bits, offset by one so 0 is never a valid handle)
/// and the slot's generation at scheduling time (lower 32 bits).
using EventId = std::uint64_t;

/// A (time, schedule-seq) slot taken now for an event that may be
/// scheduled later (see EventEngine::reserve).
struct Reservation {
  Time at;
  std::uint64_t seq = 0;
};

/// Slab-backed binary-heap event engine.  See the file comment for the
/// design; fire_next() invokes the callback in place (the record is
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

  EventEngine() = default;
  ~EventEngine();
  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Schedules `fn` at absolute time `at`. Returns a handle for cancel().
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    assert(at >= cursor_at_ &&
           "EventEngine: scheduling before an already-fired event");
    return emplace(at, next_seq_++, std::forward<F>(fn));
  }

  /// Takes the (at, seq) that schedule(at, ...) would take now, without
  /// scheduling anything.
  [[nodiscard]] Reservation reserve(Time at) {
    assert(at >= cursor_at_ &&
           "EventEngine: reserving before an already-fired event");
    return Reservation{at, next_seq_++};
  }

  /// Schedules `fn` at exactly the reserved (at, seq).  The reservation
  /// must not have passed.
  template <typename F>
  EventId schedule(Reservation r, F&& fn) {
    assert(!passed(r) && "EventEngine: attaching a passed reservation");
    return emplace(r.at, r.seq, std::forward<F>(fn));
  }

  /// True when the firing cursor is past `r`: an event scheduled at it
  /// would already have fired.  The cursor is the (at, seq) of the event
  /// being fired, or the one advance_cursor() set.
  [[nodiscard]] bool passed(Reservation r) const {
    return r.at != cursor_at_ ? r.at < cursor_at_ : r.seq < cursor_seq_;
  }

  /// Moves the cursor to `at`, past every seq taken so far (a run loop
  /// that has fired everything up to `at` calls this).  Requires `at` to
  /// be no earlier than the cursor.
  void advance_cursor(Time at) {
    assert(at >= cursor_at_);
    cursor_at_ = at;
    cursor_seq_ = next_seq_;
  }

  /// Cancels a pending event: its callback is destroyed and its slot
  /// recycled at once.  Cancelling an already-fired or unknown handle is a
  /// no-op returning false (generation counters make stale handles harmless
  /// even after the slot has been reused).
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

  /// Closures too large for the inline buffer (each cost one heap cell).
  [[nodiscard]] std::uint64_t heap_fallbacks() const { return heap_fallbacks_; }

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

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkSlots = 256;

  struct Slot {
    const CallableOps* ops = nullptr;  ///< null while the slot is free
    std::uint32_t next_free = kNil;
    std::uint32_t gen = 1;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };

  /// A heap entry.  It is live while its slot's generation still equals
  /// `gen`; cancelling or firing the event bumps the generation.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(idx + 1) << 32) | gen;
  }

  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  /// Decodes a handle into a validated live-slot index, or kNil.
  [[nodiscard]] std::uint32_t decode(EventId id) const;

  template <typename F>
  EventId emplace(Time at, std::uint64_t seq, F&& fn) {
    using D = std::decay_t<F>;
    const std::uint32_t idx = alloc_slot();
    Slot& s = slot(idx);
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(s.storage)) D(std::forward<F>(fn));
      s.ops = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(s.storage)) (D*)(new D(std::forward<F>(fn)));
      s.ops = &HeapOps<D>::kOps;
      ++heap_fallbacks_;
    }
    push(Entry{at, seq, idx, s.gen});
    ++size_;
    return make_id(idx, s.gen);
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);

  /// Adds `e`: into the free root when the firing callback has not
  /// scheduled yet (one sift down), else at the back (one sift up).
  void push(const Entry& e);
  void pop();
  /// Pops cancelled entries until the top is live. Requires !empty().
  void drop_stale_top();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNil;
  std::vector<Entry> heap_;  ///< binary min-heap by (at, seq)
  /// heap_.front() is the stale entry of the event being fired, free for
  /// the callback's first push.  Every pop clears it.
  bool root_free_ = false;

  /// The firing cursor: (at, seq) of the last fired event, or where
  /// advance_cursor() moved it.  Guards the exact-order precondition.
  Time cursor_at_ = Time::zero();
  std::uint64_t cursor_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
};

}  // namespace rica::sim
