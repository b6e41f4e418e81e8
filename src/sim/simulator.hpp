// The discrete-event simulation kernel.
//
// A Simulator owns the clock and the event core.  Components schedule
// callbacks at absolute times or after relative delays; run_until() drains
// events in timestamp order, advancing the clock monotonically.
//
// The event core is EventEngine: a slab of inline callbacks ordered by one
// binary min-heap, which pops in exact (timestamp, schedule-seq) order.
// Runs are therefore bit-identical for a fixed seed, and the golden test
// suite pins full-stack stream hashes against captured references.  The
// Simulator adds the clock, the run loop, and the executed and
// peak-pending counts.  A reservation (reserve, at(reservation), passed)
// holds an event's place in that order without scheduling it (DESIGN.md
// §5).  Scheduled callbacks (at, after, reservations, sim::Timer) are the
// kernel's only callback surface: a component that watches the run, such
// as obs::Sampler, schedules events like any other, so run_until() tests
// nothing per event beyond the heap.  The kernel is single-threaded; cores
// are spent on independent runs (harness::run_cells), never inside one.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_engine.hpp"
#include "sim/time.hpp"

namespace rica::sim {

/// Discrete-event simulation kernel: clock + event core + run loop.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (must not precede now()).
  template <typename F>
  EventId at(Time when, F&& fn) {
    assert(when >= now_ && "cannot schedule in the past");
    const EventId id = engine_.schedule(when, std::forward<F>(fn));
    if (engine_.size() > peak_pending_) peak_pending_ = engine_.size();
    return id;
  }

  /// Takes now the schedule-seq that at(when, ...) would take now, and
  /// schedules nothing.  at(reservation, fn) later puts `fn` at exactly
  /// that (time, seq); a reservation never attached costs no event.
  [[nodiscard]] Reservation reserve(Time when) {
    assert(when >= now_ && "cannot reserve in the past");
    return engine_.reserve(when);
  }

  /// Schedules `fn` at a reservation's (time, seq).  Requires
  /// !passed(reservation).
  template <typename F>
  EventId at(Reservation reservation, F&& fn) {
    const EventId id = engine_.schedule(reservation, std::forward<F>(fn));
    if (engine_.size() > peak_pending_) peak_pending_ = engine_.size();
    return id;
  }

  /// True once an event at `reservation` would have fired: the firing
  /// cursor, the (time, seq) of the event being fired, is past it.  Once
  /// run_until(end) has returned the cursor is (end, infinity) for every
  /// seq taken so far; a reservation taken after the return is not passed.
  [[nodiscard]] bool passed(Reservation reservation) const {
    return engine_.passed(reservation);
  }

  /// Schedules `fn` after a non-negative relative `delay`.
  template <typename F>
  EventId after(Time delay, F&& fn) {
    assert(delay >= Time::zero() && "negative delay");
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event; no-op if it already fired.
  bool cancel(EventId id) { return engine_.cancel(id); }

  /// True while `id` refers to a still-pending event.
  [[nodiscard]] bool pending(EventId id) const { return engine_.pending(id); }

  /// Runs events with timestamp <= `end`, then sets the clock to `end`.
  void run_until(Time end);

  // -- kernel observability ---------------------------------------------------
  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of pending events (for tests/diagnostics).
  [[nodiscard]] std::size_t pending_events() const { return engine_.size(); }

  /// Maximum simultaneously pending events seen so far.
  [[nodiscard]] std::size_t peak_pending_events() const {
    return peak_pending_;
  }

  /// Closures that outgrew the engine's inline callback buffer and spilled
  /// to a heap cell.
  [[nodiscard]] std::uint64_t heap_fallbacks() const {
    return engine_.heap_fallbacks();
  }

 private:
  EventEngine engine_;
  Time now_ = Time::zero();
  std::uint64_t events_executed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace rica::sim
