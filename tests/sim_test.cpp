// Unit tests for the discrete-event kernel: time arithmetic, event ordering,
// FIFO tie-breaking, cancellation, RAII timers, and RNG stream independence.
// EventEngine-specific cases live in event_engine_test.cpp.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace rica::sim {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(3).nanos(), 3'000'000'000);
  EXPECT_EQ(milliseconds(40).nanos(), 40'000'000);
  EXPECT_EQ(microseconds(7).nanos(), 7'000);
  EXPECT_DOUBLE_EQ(seconds(2).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(milliseconds(1500).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(seconds(1).millis(), 1000.0);
}

TEST(Time, FractionalSecondsRoundsToNanos) {
  EXPECT_EQ(seconds_f(0.5).nanos(), 500'000'000);
  EXPECT_EQ(seconds_f(1e-9).nanos(), 1);
  EXPECT_EQ(seconds_f(0.0).nanos(), 0);
}

TEST(Time, CheckedSecondsRejectsWhatInt64CannotHold) {
  for (const double s : {0.0, 0.5, 1e-9, -2.5, 9.2e9, -9.2e9}) {
    ASSERT_TRUE(checked_seconds_f(s).has_value()) << s;
    EXPECT_EQ(checked_seconds_f(s)->nanos(), seconds_f(s).nanos()) << s;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double s : {std::numeric_limits<double>::quiet_NaN(), kInf,
                         -kInf, 1e300, -1e300, 9.3e9, -9.3e9}) {
    EXPECT_FALSE(checked_seconds_f(s).has_value()) << s;
  }
}

TEST(Time, ArithmeticAndComparison) {
  const Time a = seconds(1);
  const Time b = milliseconds(500);
  EXPECT_EQ((a + b).nanos(), 1'500'000'000);
  EXPECT_EQ((a - b).nanos(), 500'000'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(a * 3, seconds(3));
  Time c = a;
  c += b;
  EXPECT_EQ(c, a + b);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<std::int64_t> at_times;
  sim.after(milliseconds(10), [&] { at_times.push_back(sim.now().nanos()); });
  sim.after(milliseconds(5), [&] { at_times.push_back(sim.now().nanos()); });
  sim.run_until(seconds(1));
  ASSERT_EQ(at_times.size(), 2u);
  EXPECT_EQ(at_times[0], milliseconds(5).nanos());
  EXPECT_EQ(at_times[1], milliseconds(10).nanos());
  EXPECT_EQ(sim.now(), seconds(1));
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents) {
  Simulator sim;
  bool late = false;
  sim.after(seconds(2), [&] { late = true; });
  sim.run_until(seconds(1));
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(seconds(3));
  EXPECT_TRUE(late);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  sim.after(milliseconds(1), [&] {
    ++chain;
    sim.after(milliseconds(1), [&] {
      ++chain;
      sim.after(milliseconds(1), [&] { ++chain; });
    });
  });
  sim.run_until(seconds(1));
  EXPECT_EQ(chain, 3);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.after(milliseconds(5), [&] { fired = true; });
  sim.after(milliseconds(1), [&] { sim.cancel(id); });
  sim.run_until(seconds(1));
  EXPECT_FALSE(fired);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.after(milliseconds(i), [] {});
  sim.run_until(seconds(1));
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.peak_pending_events(), 7u);
}

TEST(Simulator, ScheduleAfterShortRunUntilStaysExact) {
  // run_until() peeks next_time() at an event past the run horizon.
  // Scheduling between the horizon and that peeked event must still be
  // legal and fire in exact time order.
  Simulator sim;
  std::vector<int> order;
  sim.after(seconds(1), [&] { order.push_back(2); });
  sim.run_until(milliseconds(1));  // peeks the 1 s event, fires nothing
  EXPECT_TRUE(order.empty());
  sim.after(milliseconds(1), [&] { order.push_back(1); });
  sim.run_until(seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CancelAndPendingRoundTrip) {
  Simulator sim;
  std::vector<int> order;
  sim.after(milliseconds(10), [&] { order.push_back(2); });
  sim.after(milliseconds(5), [&] { order.push_back(1); });
  const EventId id = sim.after(milliseconds(7), [&] { order.push_back(9); });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  sim.run_until(seconds(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Timer, FiresWhenArmed) {
  Simulator sim;
  Timer timer;
  int fired = 0;
  timer.arm_after(sim, milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(timer.armed());
  sim.run_until(seconds(1));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmReplacesThePendingEvent) {
  Simulator sim;
  Timer timer;
  std::vector<int> order;
  timer.arm_after(sim, milliseconds(5), [&] { order.push_back(1); });
  timer.arm_after(sim, milliseconds(9), [&] { order.push_back(2); });
  sim.run_until(seconds(1));
  EXPECT_EQ(order, (std::vector<int>{2}));  // the first arm was cancelled
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Timer, CancelAndDestructionStopTheEvent) {
  Simulator sim;
  int fired = 0;
  Timer cancelled;
  cancelled.arm_after(sim, milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(cancelled.cancel());
  EXPECT_FALSE(cancelled.cancel());  // second cancel is a no-op
  {
    Timer scoped;
    scoped.arm_after(sim, milliseconds(6), [&] { ++fired; });
  }  // RAII: going out of scope cancels the pending event
  sim.run_until(seconds(1));
  EXPECT_EQ(fired, 0);
}

TEST(Timer, PeriodicRearmFromOwnCallback) {
  Simulator sim;
  Timer timer;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 4) timer.arm_after(sim, milliseconds(10), tick);
  };
  timer.arm_after(sim, milliseconds(10), tick);
  sim.run_until(seconds(1));
  EXPECT_EQ(ticks, 4);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, MoveTransfersOwnership) {
  Simulator sim;
  int fired = 0;
  Timer a;
  a.arm_after(sim, milliseconds(5), [&] { ++fired; });
  Timer b = std::move(a);
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move): post-move state
  EXPECT_TRUE(b.armed());
  a = std::move(b);  // moving back; destroying b must not cancel
  sim.run_until(seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(Random, UniformWithinBounds) {
  RandomStream rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Random, UniformIntCoversRangeInclusive) {
  RandomStream rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, ExponentialHasRequestedMean) {
  RandomStream rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(0.1);
  EXPECT_NEAR(sum / kN, 0.1, 0.005);
}

TEST(Random, StreamsAreDeterministicPerSeed) {
  RngManager a(123);
  RngManager b(123);
  auto s1 = a.stream("traffic", 4);
  auto s2 = b.stream("traffic", 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(s1.uniform(), s2.uniform());
  }
}

TEST(Random, NamedStreamsAreIndependent) {
  RngManager mgr(99);
  auto s1 = mgr.stream("mobility", 0);
  auto s2 = mgr.stream("mobility", 1);
  auto s3 = mgr.stream("channel", 0);
  // Different streams must not produce identical sequences.
  int same12 = 0;
  int same13 = 0;
  for (int i = 0; i < 50; ++i) {
    const double a = s1.uniform();
    const double b = s2.uniform();
    const double c = s3.uniform();
    same12 += a == b;
    same13 += a == c;
  }
  EXPECT_LT(same12, 5);
  EXPECT_LT(same13, 5);
}

TEST(Random, SplitMixAvalanche) {
  // Single-bit input changes must flip roughly half the output bits.
  const std::uint64_t h1 = splitmix64(0x1234);
  const std::uint64_t h2 = splitmix64(0x1235);
  const int flipped = __builtin_popcountll(h1 ^ h2);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

}  // namespace
}  // namespace rica::sim
