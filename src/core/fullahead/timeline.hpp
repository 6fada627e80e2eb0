// Per-resource booking timeline for full-ahead planning (HEFT's
// insertion-based scheduling policy). Bookings are half-open [start, end)
// intervals kept sorted; the planner looks for the earliest gap that fits a
// task after its data arrives.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace dpjit::core {

class Timeline {
 public:
  /// Earliest start >= ready_time such that [start, start+duration) does not
  /// overlap any booking (the HEFT insertion policy: gaps between existing
  /// bookings are usable).
  [[nodiscard]] double earliest_start(double ready_time, double duration) const;

  /// Books [start, start+duration). The interval must not overlap existing
  /// bookings (throws std::logic_error otherwise).
  void book(double start, double duration);

 private:
  std::vector<std::pair<double, double>> slots_;  // sorted [start, end)
};

}  // namespace dpjit::core
