// First-class RAII timer over the event engine.
//
// A Timer owns at most one pending event: arming it again cancels the
// previous event first (rearm), and destruction cancels whatever is still
// pending — so a component that dies with a timer in flight can never leave
// a dangling callback behind.  Generation-counted handles make every
// operation safe after the event has fired: cancel() and armed() simply see
// a stale handle.
//
// Ownership rules (see DESIGN.md §5):
//   * the Timer must not outlive the Simulator it was last armed on;
//   * a periodic timer re-arms itself from inside its own callback (the
//     previous handle is already dead by then, so rearm is just arm);
//   * Timers are movable (protocol per-flow state lives in hash maps); the
//     moved-from timer is disarmed without cancelling the moved event.
#pragma once

#include <utility>

#include "sim/simulator.hpp"

namespace rica::sim {

class Timer {
 public:
  Timer() = default;
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept : sim_(other.sim_), id_(other.id_) {
    other.sim_ = nullptr;
    other.id_ = 0;
  }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      cancel();
      sim_ = other.sim_;
      id_ = other.id_;
      other.sim_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }

  /// Arms (or rearms) the timer at absolute time `when`.
  template <typename F>
  void arm_at(Simulator& sim, Time when, F&& fn) {
    cancel();
    sim_ = &sim;
    id_ = sim.at(when, std::forward<F>(fn));
  }

  /// Arms (or rearms) the timer at a reservation's exact (time, seq).
  template <typename F>
  void arm(Simulator& sim, Reservation reservation, F&& fn) {
    cancel();
    sim_ = &sim;
    id_ = sim.at(reservation, std::forward<F>(fn));
  }

  /// Arms (or rearms) the timer `delay` from now.
  template <typename F>
  void arm_after(Simulator& sim, Time delay, F&& fn) {
    cancel();
    sim_ = &sim;
    id_ = sim.after(delay, std::forward<F>(fn));
  }

  /// Cancels the pending event, if any. Returns true if one was pending.
  bool cancel() {
    if (sim_ == nullptr) return false;
    const bool live = sim_->cancel(id_);
    sim_ = nullptr;
    id_ = 0;
    return live;
  }

  /// True while the armed event has neither fired nor been cancelled.
  [[nodiscard]] bool armed() const {
    return sim_ != nullptr && sim_->pending(id_);
  }

 private:
  Simulator* sim_ = nullptr;
  EventId id_ = 0;
};

}  // namespace rica::sim
