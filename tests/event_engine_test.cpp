// Tests for the slab-backed binary-heap event engine: a randomized
// differential model test against a sorted-map reference, the deterministic
// FIFO tie-break, generation-counted handle reuse safety, lazy cancellation
// (a cancelled entry at the heap top is skipped), the oversized-closure
// fallback, far-future scheduling, scheduling from inside a callback, and
// reservations (attached later, attached at the cursor's own time, or
// never attached) against the same reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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
// ---------------------------------------------------------------------------

TEST(EventEngine, RandomizedModelAgainstSortedMapReference) {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  int attached_later = 0;
  int attached_at_cursor = 0;
  int never_attached = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EventEngine q;
    RandomStream rng(seed);
    // Reference: (time, seq) -> token, mirroring the engine's contract.
    std::map<Key, int> ref;
    struct Live {
      EventId id;
      Key key;
    };
    std::vector<Live> live;  // ids still cancellable
    struct Held {
      Reservation r;
      Key key;
      int fires_before;  // fired.size() when reserved
    };
    std::vector<Held> held;  // reservations not attached yet
    std::vector<int> fired;
    Key cursor{0, 0};  // (at, seq) of the last fired event
    std::uint64_t seq = 0;
    int token = 0;
    const auto draw_time = [&] {
      static constexpr std::int64_t kSpans[] = {
          0, 1, 3'000, 400'000, 2'000'000, 40'000'000,
          900'000'000, 30'000'000'000, 20'000'000'000'000};
      const auto span = kSpans[rng.uniform_int(0, 8)];
      return cursor.first + (span == 0 ? 0 : rng.uniform_int(0, span));
    };
    const auto schedule_ref = [&](EventId id, Key key, int tok) {
      ref.emplace(key, tok);
      live.push_back(Live{id, key});
    };

    for (int op = 0; op < 4000; ++op) {
      const auto r = rng.uniform_int(0, 99);
      if (r < 45 || ref.empty()) {  // schedule
        const std::int64_t at = draw_time();
        const int tok = token++;
        const EventId id = q.schedule(Time{at}, [tok, &fired] {
          fired.push_back(tok);
        });
        schedule_ref(id, {at, seq++}, tok);
      } else if (r < 55) {  // reserve
        const std::int64_t at = draw_time();
        const Reservation res = q.reserve(Time{at});
        ASSERT_EQ(res.seq, seq);
        held.push_back(Held{res, {at, seq++}, static_cast<int>(fired.size())});
      } else if (r < 65 && !held.empty()) {  // attach (if not passed)
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(held.size()) - 1));
        const Held h = held[pick];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        const bool passed = h.key < cursor;
        ASSERT_EQ(q.passed(h.r), passed);
        if (passed) {
          ++never_attached;
        } else {
          if (h.key.first == cursor.first) ++attached_at_cursor;
          if (static_cast<int>(fired.size()) > h.fires_before) ++attached_later;
          const int tok = token++;
          const EventId id = q.schedule(h.r, [tok, &fired] {
            fired.push_back(tok);
          });
          schedule_ref(id, h.key, tok);
        }
      } else if (r < 75) {  // cancel (sometimes a stale handle)
        if (live.empty()) continue;
        const auto pick =
            static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(live.size()) - 1));
        const Live victim = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        const bool was_live = ref.erase(victim.key) == 1;
        EXPECT_EQ(q.cancel(victim.id), was_live);
        EXPECT_FALSE(q.pending(victim.id));
      } else {  // fire
        ASSERT_FALSE(q.empty());
        const auto expect = ref.begin();
        const auto before = fired.size();
        const auto f = q.fire_next();
        ASSERT_EQ(fired.size(), before + 1);
        EXPECT_EQ(fired.back(), expect->second);
        EXPECT_EQ(f.at.nanos(), expect->first.first);
        cursor = expect->first;
        ref.erase(expect);
        for (const Held& h : held) ASSERT_EQ(q.passed(h.r), h.key < cursor);
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    // Drain.
    while (!ref.empty()) {
      const auto expect = ref.begin();
      q.fire_next();
      EXPECT_EQ(fired.back(), expect->second);
      cursor = expect->first;
      ref.erase(expect);
    }
    EXPECT_TRUE(q.empty());
    // Reservations never attached left no trace in the engine.
    for (const Held& h : held) EXPECT_EQ(q.passed(h.r), h.key < cursor);
    never_attached += static_cast<int>(held.size());
  }
  // Every reservation path was taken.
  EXPECT_GT(attached_later, 0);
  EXPECT_GT(attached_at_cursor, 0);
  EXPECT_GT(never_attached, 0);
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
