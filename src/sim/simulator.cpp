#include "sim/simulator.hpp"

namespace rica::sim {

void Simulator::run_until(Time end) {
  while (!engine_.empty()) {
    const Time t = engine_.next_time();
    if (t > end) break;
    now_ = t;
    ++events_executed_;
    engine_.fire_next();
  }
  if (end >= now_) {
    // Every event at or before `end` has fired.
    now_ = end;
    engine_.advance_cursor(end);
  }
}

}  // namespace rica::sim
