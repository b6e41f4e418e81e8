#include "sim/simulator.hpp"

namespace rica::sim {

void Simulator::run_until(Time end) {
  while (!engine_.empty()) {
    const Time t = engine_.next_time();
    if (t > end) break;
    now_ = t;
    ++events_executed_;
    engine_.fire_next();
    if (observer_ != nullptr && now_ >= next_observation_) {
      next_observation_ = now_ + observer_interval_;
      observer_->on_kernel_window(now_, events_executed_, engine_.size());
    }
  }
  if (end >= now_) {
    // Every event at or before `end` has fired.
    now_ = end;
    engine_.advance_cursor(end);
  }
}

}  // namespace rica::sim
