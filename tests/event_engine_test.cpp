// Tests for the slab-backed binary-heap event engine: a randomized
// differential model test against a sorted-map reference, the deterministic
// FIFO tie-break, generation-counted handle reuse safety, lazy cancellation
// (a cancelled entry at the heap top is skipped), the oversized-closure
// fallback, far-future scheduling, scheduling from inside a callback, and
// reservations (attached later, attached at the cursor's own time, or
// never attached) against the same reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rica::sim {
namespace {

TEST(EventEngine, PopsInTimeOrderAcrossScales) {
  EventEngine q;
  std::vector<int> order;
  // Delays from nanoseconds to hours, scheduled latest first.
  q.schedule(seconds(3600) * 7, [&] { order.push_back(6); });
  q.schedule(seconds(40), [&] { order.push_back(5); });
  q.schedule(milliseconds(900), [&] { order.push_back(4); });
  q.schedule(milliseconds(2), [&] { order.push_back(3); });
  q.schedule(microseconds(100), [&] { order.push_back(2); });
  q.schedule(nanoseconds(100), [&] { order.push_back(1); });
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventEngine, FifoTieBreakAtSameTimestamp) {
  EventEngine q;
  std::vector<int> order;
  // Same instant, scheduled interleaved with other timestamps: fire order
  // must be insertion order among the ties.
  for (int i = 0; i < 50; ++i) {
    q.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
    q.schedule(milliseconds(5) + nanoseconds(i + 1), [] {});
  }
  while (!q.empty()) q.fire_next();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventEngine, CancelRecyclesSlotImmediately) {
  EventEngine q;
  const EventId a = q.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.empty());
  // The freed slot is reused at once: b's handle names a's slot (the upper
  // half) with a bumped generation (the lower half).
  const EventId b = q.schedule(milliseconds(2), [] {});
  EXPECT_EQ(b >> 32, a >> 32);
  EXPECT_NE(b, a);
  EXPECT_TRUE(q.pending(b));
}

TEST(EventEngine, StaleHandleCannotTouchReusedSlot) {
  EventEngine q;
  int fired = 0;
  const EventId a = q.schedule(milliseconds(1), [&] { fired += 1; });
  ASSERT_TRUE(q.cancel(a));
  // b reuses a's slot (same index, bumped generation).
  const EventId b = q.schedule(milliseconds(1), [&] { fired += 10; });
  EXPECT_FALSE(q.cancel(a));   // stale: must not kill b
  EXPECT_FALSE(q.pending(a));
  EXPECT_TRUE(q.pending(b));
  q.fire_next();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(q.pending(b));  // fired handles go stale too
  EXPECT_FALSE(q.cancel(b));
  EXPECT_FALSE(q.cancel(0));   // the null handle is never valid
}

TEST(EventEngine, CancelOfEarliestEventIsExact) {
  EventEngine q;
  std::vector<int> order;
  const EventId a = q.schedule(nanoseconds(10), [&] { order.push_back(1); });
  q.schedule(nanoseconds(20), [&] { order.push_back(2); });
  q.schedule(nanoseconds(30), [&] { order.push_back(3); });
  // Cancelling the earliest leaves its stale entry at the heap top; firing
  // must skip it and still yield 2, 3 in order.
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(EventEngine, OversizedClosureFallsBackToHeap) {
  EventEngine q;
  struct Big {
    char blob[EventEngine::kInlineBytes + 64] = {};
  };
  Big big;
  big.blob[0] = 42;
  int seen = 0;
  q.schedule(milliseconds(1), [big, &seen] { seen = big.blob[0]; });
  EXPECT_EQ(q.heap_fallbacks(), 1u);
  q.fire_next();
  EXPECT_EQ(seen, 42);
  // Cancelled oversized closures must release their heap cell (covered by
  // ASan in CI): schedule and cancel one.
  const EventId id = q.schedule(milliseconds(1), [big] { (void)big; });
  EXPECT_TRUE(q.cancel(id));
}

TEST(EventEngine, CallbackCanRearmIntoItsOwnSlot) {
  EventEngine q;
  int count = 0;
  std::vector<EventId> ids;
  std::function<void()> tick;  // self-referential chain via explicit rearm
  tick = [&] {
    ++count;
    if (count < 5) ids.push_back(q.schedule(milliseconds(count), tick));
  };
  ids.push_back(q.schedule(milliseconds(0), tick));
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(count, 5);
  // The chain kept recycling one slot: every handle names the same slot.
  ASSERT_EQ(ids.size(), 5u);
  for (const EventId id : ids) EXPECT_EQ(id >> 32, ids.front() >> 32);
}

TEST(EventEngine, NextTimeSkipsCancelledTop) {
  EventEngine q;
  const Time t1 = milliseconds(1);
  const Time t2 = milliseconds(2);
  const EventId a = q.schedule(t1, [] {});
  q.schedule(t2, [] {});
  ASSERT_TRUE(q.cancel(a));
  // a's stale entry still sits at the heap top; next_time() must look past
  // it, as Simulator::run_until does before every fire.
  EXPECT_EQ(q.next_time(), t2);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.fire_next().at, t2);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Randomized differential model test: the engine vs a sorted-map reference,
// over schedule/cancel/fire/reserve/attach interleavings at adversarial time
// offsets (same tick, same timestamp, every scale, far future).  A
// reservation holds its (time, seq) key; passed() must agree with the
// reference cursor, and an attached reservation must pop at its key.
// Callbacks act too: each schedules 0, 1 or 2 events (some by attaching a
// reservation), and may cancel, reserve or call next_time() first, so the
// fired event's root is taken over, handed back by a pop, or left unused.
// ---------------------------------------------------------------------------

class EngineModel {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  explicit EngineModel(std::uint64_t seed) : rng_(seed) {}

  /// One top-level operation, drawn at random.
  void step() {
    const auto r = rng_.uniform_int(0, 99);
    if (r < 45 || ref_.empty()) {
      schedule_one();
    } else if (r < 55) {
      reserve_one();
    } else if (r < 65) {
      attach_one();
    } else if (r < 75) {
      cancel_one();
    } else {
      fire_one();
    }
    ASSERT_EQ(q_.size(), ref_.size());
  }

  /// Fires everything left; callbacks only record from here on.
  void drain() {
    quiet_ = true;
    while (!ref_.empty() && !::testing::Test::HasFailure()) fire_one();
    EXPECT_TRUE(q_.empty());
    // Reservations never attached left no trace in the engine.
    for (const Held& h : held_) EXPECT_EQ(q_.passed(h.r), h.key < cursor_);
    never_attached += static_cast<int>(held_.size());
  }

  int attached_later = 0;
  int attached_at_cursor = 0;
  int never_attached = 0;
  int callback_pushes = 0;
  int pushes_after_next_time = 0;
  int callbacks_pushing_nothing = 0;

 private:
  struct Live {
    EventId id;
    Key key;
  };
  struct Held {
    Reservation r;
    Key key;
    int fires_before;  // fired_.size() when reserved
  };

  std::int64_t draw_time() {
    static constexpr std::int64_t kSpans[] = {
        0, 1, 3'000, 400'000, 2'000'000, 40'000'000,
        900'000'000, 30'000'000'000, 20'000'000'000'000};
    const auto span = kSpans[rng_.uniform_int(0, 8)];
    return cursor_.first + (span == 0 ? 0 : rng_.uniform_int(0, span));
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  void schedule_one() {
    const std::int64_t at = draw_time();
    const int tok = token_++;
    const EventId id = q_.schedule(Time{at}, [this, tok] { on_fire(tok); });
    ref_.emplace(Key{at, seq_}, tok);
    live_.push_back(Live{id, {at, seq_++}});
  }

  void reserve_one() {
    const std::int64_t at = draw_time();
    const Reservation res = q_.reserve(Time{at});
    ASSERT_EQ(res.seq, seq_);
    held_.push_back(
        Held{res, {at, seq_++}, static_cast<int>(fired_.size())});
  }

  /// Attaches a held reservation if it has not passed; returns whether it
  /// scheduled an event.
  bool attach_one() {
    if (held_.empty()) return false;
    const auto k = pick(held_.size());
    const Held h = held_[k];
    held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(k));
    const bool passed = h.key < cursor_;
    EXPECT_EQ(q_.passed(h.r), passed);
    if (passed) {
      ++never_attached;
      return false;
    }
    if (h.key.first == cursor_.first) ++attached_at_cursor;
    if (static_cast<int>(fired_.size()) > h.fires_before) ++attached_later;
    const int tok = token_++;
    const EventId id = q_.schedule(h.r, [this, tok] { on_fire(tok); });
    ref_.emplace(h.key, tok);
    live_.push_back(Live{id, h.key});
    return true;
  }

  void cancel_one() {  // sometimes a stale handle
    if (live_.empty()) return;
    const auto k = pick(live_.size());
    const Live victim = live_[k];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k));
    const bool was_live = ref_.erase(victim.key) == 1;
    EXPECT_EQ(q_.cancel(victim.id), was_live);
    EXPECT_FALSE(q_.pending(victim.id));
  }

  void fire_one() {
    ASSERT_FALSE(q_.empty());
    const auto expect = ref_.begin();
    const int tok = expect->second;
    const Key key = expect->first;
    // The reference moves first: the callback acts on the engine and the
    // reference alike.
    cursor_ = key;
    ref_.erase(expect);
    const auto before = fired_.size();
    const auto f = q_.fire_next();
    ASSERT_GT(fired_.size(), before);
    EXPECT_EQ(fired_[before], tok);
    EXPECT_EQ(f.at.nanos(), key.first);
    for (const Held& h : held_) ASSERT_EQ(q_.passed(h.r), h.key < cursor_);
    ASSERT_EQ(q_.size(), ref_.size());
  }

  /// The callback of every event: records its token, then acts.
  void on_fire(int tok) {
    fired_.push_back(tok);
    if (quiet_) return;
    const auto pushes = rng_.uniform_int(0, 2);
    bool asked_next_time = false;
    for (std::int64_t k = 0; k < pushes; ++k) {
      const auto r = rng_.uniform_int(0, 99);
      if (r < 20) cancel_one();
      if (r >= 15 && r < 30) reserve_one();
      if (r >= 25 && r < 45 && !q_.empty()) {
        // Pops the fired event's stale root, and any cancelled entry
        // under it, before this callback pushes.
        EXPECT_EQ(q_.next_time().nanos(), ref_.begin()->first.first);
        asked_next_time = true;
      }
      if (r >= 70 && attach_one()) {
        // attached
      } else {
        schedule_one();
      }
      ++callback_pushes;
      if (asked_next_time) ++pushes_after_next_time;
    }
    if (pushes == 0) ++callbacks_pushing_nothing;
    EXPECT_EQ(q_.size(), ref_.size());
  }

  EventEngine q_;
  RandomStream rng_;
  std::map<Key, int> ref_;  // (time, seq) -> token
  std::vector<Live> live_;  // ids still cancellable
  std::vector<Held> held_;  // reservations not attached yet
  std::vector<int> fired_;
  Key cursor_{0, 0};  // (at, seq) of the last fired event
  std::uint64_t seq_ = 0;
  int token_ = 0;
  bool quiet_ = false;
};

TEST(EventEngine, RandomizedModelAgainstSortedMapReference) {
  int attached_later = 0;
  int attached_at_cursor = 0;
  int never_attached = 0;
  int callback_pushes = 0;
  int pushes_after_next_time = 0;
  int callbacks_pushing_nothing = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EngineModel model(seed);
    for (int op = 0; op < 4000; ++op) {
      model.step();
      if (::testing::Test::HasFailure()) return;
    }
    model.drain();
    attached_later += model.attached_later;
    attached_at_cursor += model.attached_at_cursor;
    never_attached += model.never_attached;
    callback_pushes += model.callback_pushes;
    pushes_after_next_time += model.pushes_after_next_time;
    callbacks_pushing_nothing += model.callbacks_pushing_nothing;
  }
  // Every reservation path and every callback shape was taken.
  EXPECT_GT(attached_later, 0);
  EXPECT_GT(attached_at_cursor, 0);
  EXPECT_GT(never_attached, 0);
  EXPECT_GT(callback_pushes, 0);
  EXPECT_GT(pushes_after_next_time, 0);
  EXPECT_GT(callbacks_pushing_nothing, 0);
}

// ---------------------------------------------------------------------------
// The fired event's root: taken over by the callback's first push, handed
// back by any pop, and never left free after the callback.
// ---------------------------------------------------------------------------

TEST(EventEngine, RearmingCallbackTakesOverItsRoot) {
  EventEngine q;
  std::vector<int> order;
  int polls = 0;
  std::function<void()> poll = [&] {
    order.push_back(0);
    if (++polls < 4) q.schedule(milliseconds(10 * polls), poll);
  };
  q.schedule(milliseconds(0), poll);
  q.schedule(milliseconds(15), [&] { order.push_back(1); });
  q.schedule(milliseconds(25), [&] { order.push_back(2); });
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1, 0, 2, 0}));
}

TEST(EventEngine, PopInsideCallbackHandsTheRootBack) {
  EventEngine q;
  std::vector<int> order;
  // next_time() pops the fired event's stale root, so the live event at
  // 2 ms is the root when the callback schedules: that push must not
  // overwrite it.
  q.schedule(milliseconds(1), [&] {
    order.push_back(1);
    EXPECT_EQ(q.next_time(), milliseconds(2));
    q.schedule(milliseconds(3), [&] { order.push_back(3); });
  });
  q.schedule(milliseconds(2), [&] { order.push_back(2); });
  q.fire_next();
  ASSERT_EQ(q.size(), 2u);
  ASSERT_EQ(q.next_time(), milliseconds(2));  // not overwritten by 3 ms
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventEngine, ThrowingCallbackLeavesNoFreeRoot) {
  EventEngine q;
  std::vector<int> order;
  q.schedule(milliseconds(1), [] { throw std::runtime_error("boom"); });
  q.schedule(milliseconds(5), [&] { order.push_back(5); });
  EXPECT_THROW(q.fire_next(), std::runtime_error);
  // The thrower's stale root is gone, so this push lands beside the live
  // event at 5 ms instead of over it.
  q.schedule(milliseconds(2), [&] { order.push_back(2); });
  q.schedule(milliseconds(9), [&] { order.push_back(9); });
  ASSERT_EQ(q.size(), 3u);
  ASSERT_EQ(q.next_time(), milliseconds(2));
  q.fire_next();
  ASSERT_EQ(q.next_time(), milliseconds(5));  // not overwritten by 2 ms
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{2, 5, 9}));
}

TEST(EventEngine, AdvanceCursorPassesEverySeqTakenSoFar) {
  EventEngine q;
  const Reservation before = q.reserve(milliseconds(3));
  const Reservation later_time = q.reserve(milliseconds(4));
  q.advance_cursor(milliseconds(3));
  EXPECT_TRUE(q.passed(before));
  EXPECT_FALSE(q.passed(later_time));
  // Taken after the advance, at the cursor's own time: still ahead.
  const Reservation after = q.reserve(milliseconds(3));
  EXPECT_FALSE(q.passed(after));
  int fired = 0;
  q.schedule(after, [&] { ++fired; });
  EXPECT_EQ(q.fire_next().at, milliseconds(3));
  EXPECT_EQ(fired, 1);
  q.advance_cursor(milliseconds(3));
  EXPECT_TRUE(q.passed(after));
}

// ---------------------------------------------------------------------------
// Dense bursts and scheduling from inside a callback.
// ---------------------------------------------------------------------------

TEST(EventEngine, ClusteredBurstFiresInTimeOrder) {
  EventEngine q;
  std::vector<int> order;
  // 64 events a nanosecond apart, scheduled latest first.
  for (int i = 63; i >= 0; --i) {
    q.schedule(milliseconds(1) + nanoseconds(i), [&order, i] {
      order.push_back(i);
    });
  }
  while (!q.empty()) q.fire_next();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventEngine, CallbackCanScheduleBetweenPendingEvents) {
  EventEngine q;
  std::vector<int> order;
  // Three events a few nanoseconds apart; the first one's callback
  // schedules a fourth between the other two, which must still fire in
  // exact (at, seq) order.
  const Time base = milliseconds(1);
  q.schedule(base + nanoseconds(100), [&] {
    order.push_back(1);
    q.schedule(base + nanoseconds(150), [&] { order.push_back(2); });
  });
  q.schedule(base + nanoseconds(200), [&] { order.push_back(3); });
  q.schedule(base + nanoseconds(300), [&] { order.push_back(4); });
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace rica::sim
